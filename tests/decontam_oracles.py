"""Reference normalization and short-run lookup for decontamination.

``normalize`` tests the category of every character of the text, and
``contains_run`` slides the run over every position of every document: the
straightforward forms, kept as oracles for ``qwenkit.decontam``. The LCS
oracle, ``oracle_lcs``, lives in ``test_decontam``.
"""

import unicodedata

from qwenkit.decontam import TokenSeq


def normalize(text: str, source_id: str = "", lowercase: bool = True) -> TokenSeq:
    """Lowercase, drop every P* and S* character, split on whitespace runs."""
    if lowercase:
        text = text.lower()
    kept = []
    for ch in text:
        if unicodedata.category(ch)[0] in ("P", "S"):
            continue
        kept.append(ch)
    return TokenSeq(tuple("".join(kept).split()), source_id)


def contains_run(docs, tokens: tuple[str, ...]) -> bool:
    """``tokens`` occurs contiguously in one of ``docs`` (token tuples)."""
    k = len(tokens)
    if k == 0:
        return False
    for toks in docs:
        for start in range(len(toks) - k + 1):
            if toks[start : start + k] == tokens:
                return True
    return False
