"""Reference forms of the decontamination scans.

``normalize`` tests the category of every character of the text,
``contains_run`` slides the run over every position of every document,
``oracle_lcs`` is the plain LCS recursion, and ``filter_corpus`` runs
``oracle_lcs`` on every (document, sample) pair and ``contains_run`` on every
window, with no bound and no index: the straightforward forms, kept as
oracles for ``qwenkit.decontam``.
"""

import unicodedata
from functools import lru_cache

from qwenkit.decontam import (
    MODE_TRAIN_LCS,
    ContaminationReport,
    SampleVerdict,
    SetReport,
    TokenSeq,
)


def normalize(text: str, source_id: str = "") -> TokenSeq:
    """Lowercase, drop every P* and S* character, split on whitespace runs."""
    kept = []
    for ch in text.lower():
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


def oracle_lcs(a: tuple, b: tuple) -> int:
    """Plain memoized recursion, independent of the DP implementation."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def filter_corpus(train_docs, test_sets, mode, *, ngram_n=13, lcs_min_len=13,
                  lcs_min_frac=0.6):
    """``qwenkit.decontam.filter_corpus`` by definition, for valid arguments."""
    verdicts = []
    if mode == MODE_TRAIN_LCS:
        hits = {name: 0 for name in test_sets}
        kept, removed = [], []
        for doc in train_docs:
            flagged = False
            for name, samples in test_sets.items():
                for sample in samples:
                    a, b = doc.tokens, sample.tokens
                    n = oracle_lcs(a, b)
                    if (a and b and n >= lcs_min_len
                            and n >= lcs_min_frac * min(len(a), len(b))):
                        hits[name] += 1
                        verdicts.append(SampleVerdict(
                            doc.source_id, "lcs", name, sample.source_id, n))
                        flagged = True
                        break
            (removed if flagged else kept).append(doc)
        sets = [SetReport(name, len(train_docs), hits[name]) for name in test_sets]
        return kept, removed, ContaminationReport(mode, sets, verdicts)

    docs = [d.tokens for d in train_docs]
    kept, removed, sets = [], [], []
    for name, samples in test_sets.items():
        hit = 0
        for sample in samples:
            toks = sample.tokens
            if len(toks) < ngram_n:
                start = 0 if contains_run(docs, toks) else None
            else:
                start = next((i for i in range(len(toks) - ngram_n + 1)
                              if contains_run(docs, toks[i : i + ngram_n])), None)
            if start is None:
                kept.append(sample)
            else:
                hit += 1
                removed.append(sample)
                verdicts.append(SampleVerdict(
                    sample.source_id, "13-gram", name, "train-corpus", start))
        sets.append(SetReport(name, len(samples), hit))
    return kept, removed, ContaminationReport(mode, sets, verdicts)
