"""Contamination analysis between a training corpus and benchmark test sets.

Texts are normalized (lowercased, Unicode punctuation and symbol characters
removed, whitespace-tokenized) and compared two ways:

* train-side: a training document is removed when some test sample shares a
  longest common subsequence of at least ``min_len`` tokens that also covers
  at least ``min_frac`` of the shorter sequence;
* test-side: a test sample is removed when any contiguous n tokens of it
  (default 13) appear verbatim in the training corpus.

A token sequence is checked once, where it becomes a :class:`TokenSeq`. A
corpus scan does its per-corpus work once, and runs the LCS only on pairs
that sound upper bounds on it do not rule out.

Reports mirror a per-test-set "percent contaminated" table.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, InputError, ParameterError
from .ops import _check_fraction, _check_int, _iter_input

MODE_TRAIN_LCS = "train-side-lcs"
MODE_TEST_NGRAM = "test-side-13gram"
MODES = (MODE_TRAIN_LCS, MODE_TEST_NGRAM)


@dataclass(frozen=True)
class TokenSeq:
    """Normalized word tokens of one document plus its identifier.

    The one check of a token sequence: ``tokens`` may be any iterable of
    hashable tokens and is stored as a tuple, so the same tokens make equal,
    hashable sequences. Text, read as one token per character or byte, and
    unhashable tokens, on which every lookup trips, are an
    :class:`InputError`.
    """

    tokens: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        toks = self.tokens
        if isinstance(toks, (str, bytes, bytearray)):
            raise InputError(f"expected tokens, got text ({type(toks).__name__}); normalize it")
        try:
            toks = tuple(toks)
            hash(toks)
        except TypeError:
            raise InputError(f"expected a sequence of hashable tokens, got {toks!r}") from None
        object.__setattr__(self, "tokens", toks)

    def __len__(self) -> int:
        return len(self.tokens)


# Characters of text a loader cleans in one pass (see _load_lines): a
# fixed budget, so the joined copy stays small whatever the file's size.
_BATCH_CHARS = 16_384
# The 128 ASCII bytes, and the 32 of them that are punctuation (P*) or
# symbol (S*) characters: those are always deleted, so only a text's other
# characters need classifying.
_ASCII = bytes(range(128))
_ASCII_DROPPED = bytes(c for c in _ASCII if unicodedata.category(chr(c))[0] in "PS")


def _clean(text: str) -> str:
    """``text`` lowercased, with its punctuation (P*) and symbol (S*)
    characters deleted.

    Lowercasing stays on the text, since a final sigma lowers by its
    context and some characters lower to two. The rest works on the UTF-8
    bytes, where every non-ASCII character, and under ``surrogatepass``
    every lone surrogate, is made of bytes >= 0x80 only, so deleting ASCII
    bytes never cuts one. One ``bytes.translate`` deletes the ASCII
    punctuation and symbols; another leaves the non-ASCII characters, each
    distinct one classified once, and a regex pass deletes those dropped.
    No step makes or removes a ``"\\n"``.
    """
    data = text.lower().encode("utf-8", "surrogatepass")
    others = set(data.translate(None, _ASCII).decode("utf-8", "surrogatepass"))
    text = data.translate(None, _ASCII_DROPPED).decode("utf-8", "surrogatepass")
    dropped = [ch for ch in others if unicodedata.category(ch)[0] in "PS"]
    if dropped:
        text = re.sub("[" + "".join(map(re.escape, dropped)) + "]", "", text)
    return text


def normalize(text: str, source_id: str = "") -> TokenSeq:
    """Lowercase, strip punctuation (P*) and symbol (S*) characters, split
    on whitespace runs."""
    if not isinstance(text, str):
        raise InputError(f"text must be a str, got {type(text).__name__}")
    return TokenSeq(tuple(_clean(text).split()), source_id)


def _seq(seq) -> TokenSeq:
    """``seq`` as a :class:`TokenSeq`, with id ``""`` unless it is one."""
    return seq if isinstance(seq, TokenSeq) else TokenSeq(seq)


def _tokens(seq) -> tuple[str, ...]:
    """The tokens of ``seq``, checked by :class:`TokenSeq` unless it is one."""
    return _seq(seq).tokens


def lcs_len(a, b) -> int:
    """Token-level longest common subsequence length.

    Bit-parallel over the shorter sequence (Allison & Dix 1986; Hyyrö 2004):
    bit j of ``v`` is 0 where column j of the DP row steps up, and each token
    of the longer sequence advances the whole row with one add on a Python
    int, O(|a| * |b| / word size).
    """
    ta, tb = _tokens(a), _tokens(b)
    if len(ta) < len(tb):
        ta, tb = tb, ta
    if not tb:
        return 0
    masks: dict[str, int] = {}
    for j, tok in enumerate(tb):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(tb)) - 1
    v = full
    for tok in ta:
        m = masks.get(tok)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(tb) - v.bit_count()


def _overlap(ca: Counter, cb: Counter) -> int:
    """Multiset overlap, the sum over tokens t of min(ca[t], cb[t]). Each
    token of a common subsequence takes its own occurrence on both sides,
    so this bounds the LCS from above."""
    shared = ca.keys() & cb.keys()
    return sum(map(min, map(ca.__getitem__, shared), map(cb.__getitem__, shared)))


def _lcs_hit(ta, ca: Counter, tb, cb: Counter, min_len: int, min_frac: float) -> int | None:
    """LCS(ta, tb) when it meets both thresholds, else None; ``ca`` and
    ``cb`` count the tokens of ``ta`` and ``tb``.

    Three upper bounds on the LCS skip the DP, cheapest first: the shorter
    length, the positions of the shorter sequence whose token occurs in the
    longer one, and the multiset overlap. Each is compared with the same
    threshold as the LCS itself, so no pair is skipped that the DP would flag.
    """
    short = min(len(ta), len(tb))
    if not short or short < min_len:
        return None
    need = max(min_len, min_frac * short)
    if len(ta) > len(tb):
        ta, ca, tb, cb = tb, cb, ta, ca
    if sum(map(cb.__contains__, ta)) < need or _overlap(ca, cb) < need:
        return None
    n = lcs_len(ta, tb)
    return n if n >= need else None


def lcs_contaminated(train, test, min_len: int = 13, min_frac: float = 0.6) -> bool:
    """True iff both sequences are nonempty and LCS(train, test) >= min_len
    and >= min_frac * min(|train|, |test|).

    ``min_len`` must be an int >= 0 and ``min_frac`` a finite real in
    [0, 1], else :class:`ParameterError`. Upper bounds on the LCS skip it
    for clearly clean pairs; :func:`filter_corpus` applies the same test
    with each count taken once per corpus.
    """
    _check_int("min_len", min_len, 0)
    _check_fraction("min_frac", min_frac)
    ta, tb = _tokens(train), _tokens(test)
    return _lcs_hit(ta, Counter(ta), tb, Counter(tb), min_len, min_frac) is not None


class NgramIndex:
    """The set of all length-n token windows of a training corpus, each
    looked up as itself, and every token position keyed by its token."""

    def __init__(self, docs, n: int = 13):
        _check_int("n", n, 1)
        try:
            docs = list(docs)
        except TypeError:
            raise InputError(f"docs must be an iterable of token sequences, got {docs!r}") from None
        self.n = n
        self._docs = [_tokens(d) for d in docs]
        self._windows: set[tuple[str, ...]] = set()
        self._starts: dict[str, list[tuple[int, int]]] = {}
        for di, toks in enumerate(self._docs):
            self._windows.update(toks[start : start + n] for start in range(len(toks) - n + 1))
            for start, tok in enumerate(toks):
                self._starts.setdefault(tok, []).append((di, start))

    def contains_run(self, tokens) -> bool:
        """Exact contiguous containment, for sequences shorter than n.

        The run is anchored at its token with the fewest recorded positions:
        a token never recorded rules the run out at once, and otherwise only
        the starts ``pos - j`` implied by the anchor at offset j are compared.
        """
        tokens = _tokens(tokens)
        k = len(tokens)
        if k == 0:
            return False
        starts = self._starts
        anchor = None
        for j, tok in enumerate(tokens):
            positions = starts.get(tok)
            if positions is None:
                return False
            if anchor is None or len(positions) < len(anchor):
                offset, anchor = j, positions
        docs = self._docs
        for di, pos in anchor:
            start = pos - offset
            if start >= 0 and docs[di][start : start + k] == tokens:
                return True
        return False


def find_ngram_match(test, index: NgramIndex) -> int | None:
    """Start offset of the first contaminated window of ``test``, else None.

    Windows are ``index.n`` tokens long. Samples shorter than that count as
    contaminated only when the whole sample appears as a contiguous run in
    some training document (offset 0).
    """
    n = index.n
    toks = _tokens(test)
    if len(toks) < n:
        return 0 if index.contains_run(toks) else None
    windows = index._windows
    for start in range(len(toks) - n + 1):
        if toks[start : start + n] in windows:
            return start
    return None


@dataclass(frozen=True)
class SampleVerdict:
    doc_id: str
    rule: str  # "lcs" or "13-gram"
    test_set: str
    counterpart: str
    detail: int  # LCS length, or matched window start


@dataclass(frozen=True)
class SetReport:
    name: str
    total: int
    removed: int

    @property
    def percent(self) -> str:
        return f"{100.0 * self.removed / self.total:.1f}%"


@dataclass
class ContaminationReport:
    mode: str
    sets: list[SetReport]
    verdicts: list[SampleVerdict] = field(default_factory=list)


def filter_corpus(
    train_docs,
    test_sets: dict[str, list[TokenSeq]],
    mode: str,
    *,
    ngram_n: int = 13,
    lcs_min_len: int = 13,
    lcs_min_frac: float = 0.6,
) -> tuple[list[TokenSeq], list[TokenSeq], ContaminationReport]:
    """Remove contaminated documents and report per-test-set statistics.

    train-side-lcs removes training documents (a document matching any test
    sample of any set is removed; per-set rows count training documents
    flagged by that set). test-side-13gram removes test samples matching the
    training n-gram index; kept/removed then hold the flattened samples.
    A document or sample given as a raw token sequence becomes a
    :class:`TokenSeq` with id ``""``, so kept/removed hold only those.

    ``ngram_n`` must be an int >= 1, the LCS thresholds as for
    :func:`lcs_contaminated`, in either mode, and ``test_sets`` a mapping,
    else :class:`ParameterError`.
    """
    train_docs = [_seq(doc) for doc in _iter_input(train_docs, "train_docs")]
    if not isinstance(test_sets, Mapping):
        raise ParameterError(f"test sets must map names to samples, got {type(test_sets).__name__}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    _check_int("ngram_n", ngram_n, 1)
    _check_int("lcs_min_len", lcs_min_len, 0)
    _check_fraction("lcs_min_frac", lcs_min_frac)
    if not train_docs or not test_sets or all(not s for s in test_sets.values()):
        raise ParameterError("train corpus and test sets must be nonempty")
    test_sets = {name: [_seq(sample) for sample in _iter_input(samples, f"test set {name!r}")]
                 for name, samples in test_sets.items()}

    verdicts: list[SampleVerdict] = []
    if mode == MODE_TRAIN_LCS:
        # A sample shorter than lcs_min_len (or empty) can match no document,
        # so it is dropped here; the rest keep their order, and so the first
        # matching sample of each set is the same one.
        candidates = {
            name: [(sample, sample.tokens, Counter(sample.tokens)) for sample in samples
                   if sample.tokens and len(sample) >= lcs_min_len]
            for name, samples in test_sets.items()}
        per_set_hits = {name: 0 for name in test_sets}
        kept, removed = [], []
        for doc in train_docs:
            doc_removed = False
            toks = doc.tokens
            counts = Counter(toks)
            for set_name, samples in candidates.items():
                for sample, s_toks, s_counts in samples:
                    n = _lcs_hit(toks, counts, s_toks, s_counts, lcs_min_len, lcs_min_frac)
                    if n is not None:
                        per_set_hits[set_name] += 1
                        verdicts.append(SampleVerdict(
                            doc.source_id, "lcs", set_name, sample.source_id, n))
                        doc_removed = True
                        break  # one verdict per (doc, set)
            (removed if doc_removed else kept).append(doc)
        sets = [SetReport(name, len(train_docs), per_set_hits[name])
                for name in test_sets]
        return kept, removed, ContaminationReport(mode, sets, verdicts)

    index = NgramIndex(train_docs, ngram_n)
    kept, removed = [], []
    sets = []
    for set_name, samples in test_sets.items():
        hit = 0
        for sample in samples:
            start = find_ngram_match(sample, index)
            if start is None:
                kept.append(sample)
            else:
                hit += 1
                removed.append(sample)
                verdicts.append(SampleVerdict(
                    sample.source_id, "13-gram", set_name, "train-corpus", start))
        sets.append(SetReport(set_name, len(samples), hit))
    return kept, removed, ContaminationReport(mode, sets, verdicts)


def format_report(report: ContaminationReport, fmt: str = "tsv") -> str:
    """Render the per-set table as tab-separated or aligned text."""
    if fmt == "tsv":
        lines = ["test_set\ttotal\tremoved\tpercent"]
        for s in report.sets:
            lines.append(f"{s.name}\t{s.total}\t{s.removed}\t{s.percent}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        width = max([len("test_set")] + [len(s.name) for s in report.sets])
        lines = [f"{'test_set':<{width}}  {'total':>7}  {'removed':>7}  percent"]
        for s in report.sets:
            lines.append(f"{s.name:<{width}}  {s.total:>7}  {s.removed:>7}  {s.percent}")
        return "\n".join(lines) + "\n"
    raise ParameterError(f"format must be 'tsv' or 'text', got {fmt!r}")


def format_verdicts(report: ContaminationReport) -> str:
    lines = ["doc_id\trule\ttest_set\tcounterpart\tdetail"]
    for v in report.verdicts:
        lines.append(f"{v.doc_id}\t{v.rule}\t{v.test_set}\t{v.counterpart}\t{v.detail}")
    return "\n".join(lines) + "\n"


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: invalid UTF-8 at byte {exc.start}") from exc


def _load_lines(path: Path) -> list[TokenSeq]:
    """One :class:`TokenSeq` per nonempty line of a file, with id
    ``name:lineno``, each as :func:`normalize` gives it.

    Lines are cleaned a batch at a time: consecutive lines, joined with
    ``"\\n"`` until they reach ``_BATCH_CHARS`` characters, are cleaned at
    once and split back. Cleaning keeps every ``"\\n"``, and lowercasing a
    final sigma looks no further than one, so each line comes out as it
    would alone.
    """
    lines = [(lineno, line) for lineno, line in enumerate(_read_text(path).splitlines(), 1)
             if line.strip()]
    name = path.name
    seqs = []
    start = 0
    while start < len(lines):
        stop, size = start, 0
        while stop < len(lines) and size < _BATCH_CHARS:
            size += len(lines[stop][1]) + 1
            stop += 1
        batch = lines[start:stop]
        cleaned = _clean("\n".join(line for _, line in batch)).split("\n")
        seqs += [TokenSeq(tuple(text.split()), f"{name}:{lineno}")
                 for (lineno, _), text in zip(batch, cleaned)]
        start = stop
    return seqs


def load_docs(path) -> list[TokenSeq]:
    """Load one document per nonempty line of a file, or one per file in a
    directory, each normalized (and so lowercased) as by :func:`normalize`."""
    p = Path(path)
    try:
        if not p.is_dir():
            return _load_lines(p)
        return [normalize(_read_text(child), source_id=child.name)
                for child in sorted(p.iterdir()) if child.is_file()]
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc


def load_test_sets(path) -> dict[str, list[TokenSeq]]:
    """Each file in the directory is one test set, one sample per line,
    normalized (and so lowercased) as by :func:`load_docs`."""
    p = Path(path)
    try:
        if not p.is_dir():
            raise InputError(f"test sets path {p} must be a directory of text files")
        return {child.stem: _load_lines(child)
                for child in sorted(p.iterdir()) if child.is_file()}
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc
