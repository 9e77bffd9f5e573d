import itertools
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decontam_oracles as oracle
from decontam_oracles import oracle_lcs
from qwenkit import decontam
from qwenkit.decontam import (
    MODE_TEST_NGRAM,
    MODE_TRAIN_LCS,
    MODES,
    ContaminationReport,
    NgramIndex,
    TokenSeq,
    _overlap,
    filter_corpus,
    find_ngram_match,
    format_report,
    format_verdicts,
    lcs_contaminated,
    lcs_len,
    load_docs,
    load_test_sets,
    normalize,
)
from qwenkit.errors import FormatError, InputError, ParameterError
from qwenkit.ops import Rng


class TestNormalize:
    def test_hello_world(self):
        assert normalize("Hello, world!").tokens == ("hello", "world")

    def test_punctuation_only(self):
        assert normalize("…!?,").tokens == ()

    def test_symbols_dropped(self):
        assert normalize("a+b=c $5 ©x").tokens == ("abc", "5", "x")

    def test_idempotent(self):
        seq = normalize("Mixed CASE, with-punct and  spaces!")
        again = normalize(" ".join(seq.tokens))
        assert again.tokens == seq.tokens

    def test_source_id_carried(self):
        assert normalize("x", source_id="doc9").source_id == "doc9"

    def test_every_ascii_character_matches_oracle(self):
        # The ASCII punctuation and symbols are deleted from a fixed class,
        # the other characters classified one by one.
        text = " ".join(f"a{chr(c)}b" for c in range(128))
        assert normalize(text, "s") == oracle.normalize(text, "s")


class TestLcsLen:
    def test_identical(self):
        toks = tuple("abcde")
        assert lcs_len(toks, toks) == 5

    def test_disjoint(self):
        assert lcs_len(("a", "b"), ("c", "d")) == 0

    def test_textbook_case(self):
        assert lcs_len(("a", "b", "c", "d", "e"), ("a", "c", "e")) == 3

    def test_exhaustive_small_against_oracle(self):
        alphabet = ("x", "y", "z")
        seqs = [seq for n in range(5)
                for seq in itertools.product(alphabet, repeat=n)]
        for a in seqs:
            for b in seqs:
                assert lcs_len(a, b) == oracle_lcs(a, b)

    def test_random_longer_against_oracle(self):
        alphabet = ("x", "y", "z")
        rng = Rng(0)
        for _ in range(500):
            la = int(rng.uint64s(1)[0] % 13)
            lb = int(rng.uint64s(1)[0] % 13)
            a = tuple(alphabet[int(v % 3)] for v in rng.uint64s(la))
            b = tuple(alphabet[int(v % 3)] for v in rng.uint64s(lb))
            assert lcs_len(a, b) == oracle_lcs(a, b)

    @given(st.lists(st.sampled_from("pqr"), max_size=10),
           st.lists(st.sampled_from("pqr"), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, a, b):
        assert lcs_len(a, b) == lcs_len(b, a)

    def test_accepts_token_seqs(self):
        assert lcs_len(TokenSeq(("a", "b")), TokenSeq(("b",))) == 1


class TestTokenSeq:
    """A token sequence is checked once, where it becomes a ``TokenSeq``."""

    @given(st.lists(st.one_of(st.text(max_size=3), st.integers(), st.tuples(st.integers())),
                    max_size=8))
    @example(["a", "b"])
    @settings(max_examples=200, deadline=None)
    def test_any_iterable_of_hashable_tokens_is_one_sequence(self, toks):
        seqs = [TokenSeq(toks, "s"), TokenSeq(tuple(toks), "s"), TokenSeq(iter(toks), "s")]
        assert all(type(seq.tokens) is tuple for seq in seqs)
        assert seqs[0] == seqs[1] == seqs[2]
        assert hash(seqs[0]) == hash(seqs[1]) == hash(seqs[2])

    def test_tokens_of_a_token_seq_are_not_copied(self):
        seq = normalize("the quick brown fox")
        assert decontam._tokens(seq) is seq.tokens

    def test_a_tuple_is_kept_as_it_is(self):
        toks = ("the", "quick", "fox")
        assert TokenSeq(toks).tokens is toks

    # A str is a row of tests/test_typed_errors.py.
    @pytest.mark.parametrize("text", [b"abc", bytearray(b"abc")], ids=["bytes", "bytearray"])
    def test_bytes_are_refused(self, text):
        with pytest.raises(InputError, match="tokens must be an iterable of hashable tokens"):
            TokenSeq(text)


class TestLcsContaminated:
    def test_identical_thirteen_tokens(self):
        seq = tuple(f"w{i}" for i in range(13))
        assert lcs_contaminated(TokenSeq(seq), TokenSeq(seq))

    def test_min_length_constraint(self):
        # LCS exactly 13 but 0.6 * min(30, 30) = 18 exceeds it.
        shared = tuple(f"s{i}" for i in range(13))
        train = TokenSeq(shared + tuple(f"t{i}" for i in range(17)))
        test = TokenSeq(shared + tuple(f"e{i}" for i in range(17)))
        assert lcs_len(train, test) == 13
        assert not lcs_contaminated(train, test)

    def test_twelve_is_never_enough(self):
        seq = tuple(f"w{i}" for i in range(12))
        assert not lcs_contaminated(TokenSeq(seq), TokenSeq(seq))

    def test_thresholds_configurable(self):
        seq = tuple(f"w{i}" for i in range(5))
        assert lcs_contaminated(TokenSeq(seq), TokenSeq(seq), min_len=5, min_frac=0.6)

    def test_prefilter_soundness_with_repeats(self):
        # 20 copies of one token share a single distinct type; the
        # shared-token bound counts positions, so it must still allow the
        # detection.
        seq = tuple("x" for _ in range(20))
        assert lcs_contaminated(TokenSeq(seq), TokenSeq(seq))


class TestNgram:
    def _train(self):
        return [TokenSeq(tuple(f"w{i}" for i in range(30)), "train0")]

    def test_shared_thirteen_gram(self):
        idx = NgramIndex(self._train(), 13)
        test = TokenSeq(("pre",) + tuple(f"w{i}" for i in range(5, 18)) + ("post",))
        assert find_ngram_match(test, idx) == 1

    def test_twelve_gram_is_clean(self):
        # 13 tokens whose longest contiguous run shared with training is 12.
        idx = NgramIndex(self._train(), 13)
        test = TokenSeq(("novel",) + tuple(f"w{i}" for i in range(5, 17)))
        assert len(test) == 13
        assert find_ngram_match(test, idx) is None

    def test_single_window_suffices(self):
        # 14 tokens whose first 13 match training but whose last breaks the
        # second window.
        idx = NgramIndex(self._train(), 13)
        test = TokenSeq(tuple(f"w{i}" for i in range(13)) + ("novel",))
        assert find_ngram_match(test, idx) == 0

    def test_short_sample_whole_run_rule(self):
        idx = NgramIndex(self._train(), 13)
        inside = TokenSeq(tuple(f"w{i}" for i in range(3, 9)))
        scattered = TokenSeq(("w3", "w5", "w7"))
        assert find_ngram_match(inside, idx) == 0
        assert find_ngram_match(scattered, idx) is None

    def test_short_run_anchored_at_its_last_token(self):
        # "b" is the rarest token of the run and its last: one start at
        # pos - 1 is compared per position, and pos 0 gives no start.
        idx = NgramIndex([TokenSeq(("b", "a", "a", "a", "b"))], 13)
        assert idx.contains_run(("a", "b"))
        assert not idx.contains_run(("b", "b"))
        assert not idx.contains_run(("a", "a", "a", "a"))

    def test_short_run_anchored_at_a_repeated_token(self):
        # "c" is both the rarest token and repeated in the run.
        idx = NgramIndex([TokenSeq(("a", "a", "c", "a", "c", "a", "a"))], 13)
        assert idx.contains_run(("c", "a", "c"))
        assert idx.contains_run(("a", "c", "a", "c", "a"))
        assert not idx.contains_run(("c", "a", "a", "c"))

    def test_short_run_with_an_unseen_token_is_clean(self):
        idx = NgramIndex([TokenSeq(("a", "b", "c"))], 13)
        assert not idx.contains_run(("a", "b", "z"))

    @pytest.mark.parametrize("kind", [tuple, list, TokenSeq], ids=["tuple", "list", "token-seq"])
    def test_run_and_window_of_any_sequence_kind(self, kind):
        # A tuple slice never equals a list, so a list run once read as clean.
        idx = NgramIndex([TokenSeq(("a", "b", "c"))], 3)
        assert idx.contains_run(kind(("a", "b")))
        assert not idx.contains_run(kind(("b", "a")))
        assert find_ngram_match(kind(("x", "a", "b", "c")), idx) == 1
        assert find_ngram_match(kind(("b", "a", "c")), idx) is None

    def test_monotone_under_more_training_docs(self):
        rng = Rng(1)
        docs = [TokenSeq(tuple(f"d{int(v % 50)}" for v in rng.uint64s(20)), f"t{i}")
                for i in range(12)]
        tests = [TokenSeq(tuple(f"d{int(v % 50)}" for v in rng.uint64s(15)), f"e{i}")
                 for i in range(20)]
        small = NgramIndex(docs[:6], 5)
        big = NgramIndex(docs, 5)
        for t in tests:
            if find_ngram_match(t, small) is not None:
                assert find_ngram_match(t, big) is not None
        # Windows are index.n tokens long: a 5-token run of a training doc
        # inside a 15-token sample is a hit at its offset for n = 5 only.
        planted = TokenSeq(("x",) * 4 + docs[0].tokens[2:7] + ("y",) * 6)
        assert find_ngram_match(planted, small) == 4
        assert find_ngram_match(planted, NgramIndex(docs[:6], 13)) is None


def _planted_fixture():
    """100 train docs over one word pool, 7 carrying verbatim test excerpts
    from a disjoint pool, so only the planted docs can ever match."""
    rng = Rng(99)
    train_pool = [f"alpha{i}" for i in range(150)]
    test_pool = [f"beta{i}" for i in range(150)]

    def pick(pool, n):
        return tuple(pool[int(v % len(pool))] for v in rng.uint64s(n))

    samples_a = [TokenSeq(pick(test_pool, 20), f"a{i}") for i in range(3)]
    samples_b = [TokenSeq(pick(test_pool, 20), f"b{i}") for i in range(2)]
    all_samples = samples_a + samples_b
    planted = {3, 17, 31, 44, 58, 72, 91}
    train = []
    for i in range(100):
        words = list(pick(train_pool, 60))
        if i in planted:
            excerpt = all_samples[i % len(all_samples)].tokens
            words[10 : 10 + len(excerpt)] = excerpt
        train.append(TokenSeq(tuple(words), f"train{i}"))
    return train, {"setA": samples_a, "setB": samples_b}, planted


class TestFilterCorpus:
    def test_planted_contamination_train_side(self):
        train, tests, planted = _planted_fixture()
        kept, removed, report = filter_corpus(train, tests, MODE_TRAIN_LCS)
        assert {d.source_id for d in removed} == {f"train{i}" for i in planted}
        assert len(kept) == 100 - len(planted)
        assert all(r.total == 100 for r in report.sets)
        assert sum(r.removed for r in report.sets) == len(planted)

    def test_planted_contamination_test_side(self):
        train, tests, planted = _planted_fixture()
        kept, removed, report = filter_corpus(train, tests, MODE_TEST_NGRAM)
        # every planted excerpt came verbatim from one sample
        contaminated_samples = {
            (f"a{i % 5}" if i % 5 < 3 else f"b{i % 5 - 3}") for i in planted
        }
        assert {s.source_id for s in removed} == contaminated_samples
        assert len(kept) + len(removed) == 5

    def test_disjoint_vocabularies_remove_nothing(self):
        train = [TokenSeq(("alpha", "gamma") * 10, "t0")]
        tests = {"s": [TokenSeq(("beta", "delta") * 10, "e0")]}
        for mode in (MODE_TRAIN_LCS, MODE_TEST_NGRAM):
            kept, removed, report = filter_corpus(train, tests, mode)
            assert removed == []
            assert report.sets[0].percent == "0.0%"

    def test_order_independence_train_side(self):
        train, tests, _ = _planted_fixture()
        _, removed_fwd, _ = filter_corpus(train, tests, MODE_TRAIN_LCS)
        reordered = {"setB": tests["setB"][::-1], "setA": tests["setA"][::-1]}
        _, removed_rev, _ = filter_corpus(train, reordered, MODE_TRAIN_LCS)
        assert {d.source_id for d in removed_fwd} == {d.source_id for d in removed_rev}

    def test_percent_formatting(self):
        report = ContaminationReport("m", [])
        from qwenkit.decontam import SetReport

        assert SetReport("x", 1000, 112).percent == "11.2%"
        assert SetReport("x", 4, 3).percent == "75.0%"

    def test_report_formats(self):
        train, tests, _ = _planted_fixture()
        _, _, report = filter_corpus(train, tests, MODE_TRAIN_LCS)
        tsv = format_report(report, "tsv")
        header, *rows = tsv.strip().splitlines()
        assert header.split("\t") == ["test_set", "total", "removed", "percent"]
        assert len(rows) == 2
        text = format_report(report, "text")
        assert "test_set" in text
        with pytest.raises(ParameterError):
            format_report(report, "json")

    def test_verdict_lines(self):
        train, tests, planted = _planted_fixture()
        _, _, report = filter_corpus(train, tests, MODE_TRAIN_LCS)
        lines = format_verdicts(report).strip().splitlines()
        assert lines[0].split("\t") == ["doc_id", "rule", "test_set", "counterpart", "detail"]
        assert len(lines) - 1 == len(planted)  # one verdict per planted doc here
        assert all("lcs" in line for line in lines[1:])

    def test_unknown_mode_rejected(self):
        train, tests, _ = _planted_fixture()
        with pytest.raises(ParameterError):
            filter_corpus(train, tests, "fuzzy")

    @pytest.mark.parametrize("mode", MODES)
    def test_raw_sequences_become_token_seqs(self, mode):
        # A raw document or sample is read as a TokenSeq with id "", in
        # kept, removed and the verdicts alike.
        kept, removed, report = filter_corpus(
            [("a", "b"), ["c", "d"]], {"s": [TokenSeq(("a", "b"), "e"), ("x", "y")]}, mode,
            lcs_min_len=1, ngram_n=2)
        assert all(type(seq) is TokenSeq for seq in kept + removed)
        if mode == MODE_TRAIN_LCS:
            assert (kept, removed) == ([TokenSeq(("c", "d"))], [TokenSeq(("a", "b"))])
            assert [(v.doc_id, v.counterpart) for v in report.verdicts] == [("", "e")]
        else:
            assert (kept, removed) == ([TokenSeq(("x", "y"))], [TokenSeq(("a", "b"), "e")])
            assert [v.doc_id for v in report.verdicts] == ["e"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParameterError):
            filter_corpus([], {"s": [TokenSeq(("a",))]}, MODE_TRAIN_LCS)
        with pytest.raises(ParameterError):
            filter_corpus([TokenSeq(("a",))], {"s": []}, MODE_TRAIN_LCS)


_DOCS = [TokenSeq(("a", "b"), "t0")]
_SETS = {"s": [TokenSeq(("a", "b"), "e0")]}


class TestHostileArguments:
    """Thresholds are checked once, at each public entry, with typed errors;
    NaN would otherwise fail every comparison and flag nothing."""

    @pytest.mark.parametrize("min_len", [-1, 2.5, True, "13", None])
    def test_min_len(self, min_len):
        with pytest.raises(ParameterError, match="min_len"):
            lcs_contaminated(("a",), ("a",), min_len=min_len)
        for mode in MODES:
            with pytest.raises(ParameterError, match="lcs_min_len"):
                filter_corpus(_DOCS, _SETS, mode, lcs_min_len=min_len)

    @pytest.mark.parametrize("min_frac", [math.nan, math.inf, -math.inf, -0.1, 1.5,
                                          True, "0.6", None, 10**400])
    def test_min_frac(self, min_frac):
        with pytest.raises(ParameterError, match="min_frac"):
            lcs_contaminated(("a",), ("a",), min_frac=min_frac)
        for mode in MODES:
            with pytest.raises(ParameterError, match="lcs_min_frac"):
                filter_corpus(_DOCS, _SETS, mode, lcs_min_frac=min_frac)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "13", None])
    def test_ngram_n(self, n):
        with pytest.raises(ParameterError, match="n must be"):
            NgramIndex(_DOCS, n)
        for mode in MODES:
            with pytest.raises(ParameterError, match="ngram_n"):
                filter_corpus(_DOCS, _SETS, mode, ngram_n=n)

    def test_threshold_edges_accepted(self):
        assert lcs_contaminated(("a",), ("a",), min_len=0, min_frac=1)
        assert lcs_contaminated(("a",), ("b",), min_len=np.int64(0), min_frac=np.float32(0))
        assert NgramIndex(_DOCS, np.int32(1)).n == 1

    @pytest.mark.parametrize("a, b", [(None, ("a",)), (("a",), None), (5, 6)])
    def test_lcs_len_non_sequences(self, a, b):
        with pytest.raises(InputError):
            lcs_len(a, b)

    # A token that is not hashable fails every count and lookup.
    @pytest.mark.parametrize("call", [
        lambda: lcs_len([[1]], [[1]]),
        lambda: lcs_len(("a",), ("a", {})),
        lambda: lcs_contaminated([[1]], [[1]]),
        lambda: NgramIndex([[["a"]]]),
        lambda: TokenSeq((["a"],)),
        lambda: NgramIndex(_DOCS).contains_run(["a", ["b"]]),
        lambda: find_ngram_match([["a"]], NgramIndex(_DOCS)),
        lambda: filter_corpus([[["a"]]], _SETS, MODE_TRAIN_LCS),
        lambda: filter_corpus(_DOCS, {"s": [TokenSeq((["a"],))]}, MODE_TEST_NGRAM),
    ], ids=["lcs-len", "lcs-len-dict", "lcs-contaminated", "index", "token-seq", "run",
            "find-ngram", "filter-train-side", "filter-test-side"])
    def test_unhashable_tokens(self, call):
        with pytest.raises(InputError, match="hashable tokens"):
            call()

    def test_ngram_index_without_documents(self):
        with pytest.raises(InputError):
            NgramIndex(None)

    @pytest.mark.parametrize("text", [None, b"abc", 5])
    def test_normalize_non_text(self, text):
        with pytest.raises(InputError, match="text must be str, got "):
            normalize(text)


class TestLoaders:
    def test_file_one_doc_per_line(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_text("First doc here\n\nSecond doc here\n")
        docs = load_docs(p)
        assert [d.source_id for d in docs] == ["train.txt:1", "train.txt:3"]
        assert docs[0].tokens == ("first", "doc", "here")

    def test_directory_one_doc_per_file(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_text("alpha beta")
        (d / "b.txt").write_text("gamma delta")
        docs = load_docs(d)
        assert [doc.source_id for doc in docs] == ["a.txt", "b.txt"]

    def test_test_sets_directory(self, tmp_path):
        d = tmp_path / "tests"
        d.mkdir()
        (d / "mmlu.txt").write_text("sample one\nsample two\n")
        (d / "gsm.txt").write_text("other sample\n")
        sets = load_test_sets(d)
        assert set(sets) == {"mmlu", "gsm"}
        assert len(sets["mmlu"]) == 2

    def test_missing_test_dir_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_test_sets(tmp_path / "nope")

    def test_non_utf8_file_is_format_error(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_bytes(b"fine line\nbad \xff line\n")
        with pytest.raises(FormatError, match=r"train\.txt.*byte 14"):
            load_docs(p)

    def test_non_utf8_file_in_directory_is_format_error(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_text("alpha beta")
        (d / "b.txt").write_bytes(b"\xc3(")
        with pytest.raises(FormatError, match=r"b\.txt.*byte 0"):
            load_docs(d)

    def test_non_utf8_test_set_is_format_error(self, tmp_path):
        d = tmp_path / "tests"
        d.mkdir()
        (d / "mmlu.txt").write_bytes(b"sample\x80 one\n")
        with pytest.raises(FormatError, match=r"mmlu\.txt.*byte 6"):
            load_test_sets(d)


# Differential tests: normalize and contains_run against the reference forms
# in decontam_oracles, the bit-parallel lcs_len against oracle_lcs.
_tricky = st.sampled_from("]\\^-[ ,.!?$+©…—“”İΣẞ \x1c\xa0")


@given(st.text(st.one_of(st.characters(blacklist_categories=()), _tricky), max_size=80))
@settings(max_examples=400, deadline=None)
def test_normalize_matches_oracle(text):
    assert normalize(text, "s") == oracle.normalize(text, "s")


# The loaders clean a batch of lines at once; each line must come out as
# the per-line reference normalizes it. Lines mix final-sigma contexts,
# dotted capital I, combining and case-ignorable marks, P*/S* characters
# and non-BMP ones; some hold only punctuation or only whitespace.
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
_PIECES = ["ΟΔΟΣ", "Σ", "ΑΣ'", "Σα", "ς", "İ", "e\u0301", "Ä\u0345Σ", "𝔘𝔫", "😀", "Word",
           "x", "—", "!", "…", "©", "$", "'", " ", "\t", "\xa0"]
_line = st.one_of(
    st.lists(st.one_of(st.sampled_from(_PIECES), st.characters(blacklist_categories=("Cs",))),
             max_size=12).map("".join),
    st.text(st.sampled_from("!?.,…—©$+"), min_size=1, max_size=4),
    st.text(st.sampled_from(" \t\xa0\u3000"), max_size=3),
)
_file_text = st.builds(
    lambda lines, seps, tail: "".join(line + sep for line, sep in zip(lines, seps)) + tail,
    st.lists(_line, max_size=12), st.lists(st.sampled_from(_SEPARATORS), min_size=12,
                                           max_size=12), _line)


def _per_line(name: str, text: str) -> list[TokenSeq]:
    return [oracle.normalize(line, f"{name}:{lineno}")
            for lineno, line in enumerate(text.splitlines(), 1) if line.strip()]


@given(st.lists(_file_text, min_size=1, max_size=3), st.sampled_from([1, 5, 40, None]))
@settings(max_examples=200, deadline=None)
def test_loaders_match_per_line_normalize(texts, budget):
    # Small budgets cut the files into many batches, and many lines are
    # longer than the budget; None keeps the module's budget.
    budget = budget or decontam._BATCH_CHARS
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(decontam, "_BATCH_CHARS", budget):
        d = Path(tmp)
        for i, text in enumerate(texts):
            (d / f"s{i}.txt").write_bytes(text.encode("utf-8"))
        assert load_docs(d / "s0.txt") == _per_line("s0.txt", texts[0])
        assert load_test_sets(d) == {f"s{i}": _per_line(f"s{i}.txt", text)
                                     for i, text in enumerate(texts)}


def test_loader_batches_at_module_budget_match_per_line_normalize(tmp_path):
    # Several batches of the module's budget, and one line longer than it.
    budget = decontam._BATCH_CHARS
    pieces = itertools.cycle(_PIECES)
    lines = [" ".join(next(pieces) for _ in range(1 + i % 17)) for i in range(3 * budget // 40)]
    lines.insert(len(lines) // 2, "ΟΔΟΣ İ e\u0301! " * (budget // 8))
    text = "".join(line + sep for line, sep in zip(lines, itertools.cycle(_SEPARATORS)))
    assert len(text) > 3 * budget
    p = tmp_path / "train.txt"
    p.write_bytes(text.encode("utf-8"))
    assert load_docs(p) == _per_line("train.txt", text)


# Cleaning deletes on the UTF-8 bytes: removing ASCII bytes must never cut
# a character, lone surrogates must pass through, and the non-ASCII P*/S*
# characters (those of a batch's last line too) still go.
_PAIR = chr(0xD83D) + chr(0xDE00)  # the UTF-16 pair of "😀", as two code points


@pytest.mark.parametrize("text", [
    f"Grin{_PAIR}! ({_PAIR}){_PAIR}, Éa😀.",
    "“Quoted”—and… ‘so’ on",
    "你好，世界。東京，大阪。",
], ids=["surrogate-pair", "only-dropped-non-ascii", "cjk"])
def test_byte_path_matches_oracle(text):
    assert normalize(text, "s") == oracle.normalize(text, "s")


@pytest.mark.parametrize("lines", [
    ["Short, first.", "ΟΔΟΣ É—x, 你好。" * (decontam._BATCH_CHARS // 8), "Énd…"],
    ["All ASCII, here!", "Still ASCII: yes.", "Only here — a dash…"],
], ids=["line-longer-than-batch", "dropped-only-in-last-line"])
def test_loader_byte_path_matches_per_line_normalize(tmp_path, lines):
    text = "\n".join(lines) + "\n"
    p = tmp_path / "train.txt"
    p.write_bytes(text.encode("utf-8"))
    assert load_docs(p) == _per_line("train.txt", text)


_tokens = st.sampled_from(["a", "b", "c", "d", "e"])


@given(st.lists(_tokens, min_size=60, max_size=150), st.lists(_tokens, max_size=150))
@settings(max_examples=60, deadline=None)
def test_lcs_len_long_sequences_match_oracle(a, b):
    a, b = tuple(a), tuple(b)
    assert lcs_len(a, b) == oracle_lcs(a, b)
    assert lcs_len(b, a) == oracle_lcs(a, b)


@given(st.lists(_tokens, max_size=30), st.lists(_tokens, max_size=30),
       st.integers(0, 8), st.sampled_from([0.0, 0.3, 0.6, 1.0]))
@settings(max_examples=300, deadline=None)
def test_lcs_contaminated_matches_definition(a, b, min_len, min_frac):
    a, b = tuple(a), tuple(b)
    n = oracle_lcs(a, b)
    expected = bool(a and b) and n >= min_len and n >= min_frac * min(len(a), len(b))
    assert lcs_contaminated(a, b, min_len, min_frac) == expected


@given(st.lists(st.lists(_tokens, max_size=20).map(tuple), max_size=5),
       st.lists(_tokens, max_size=6).map(tuple), st.data())
@settings(max_examples=300, deadline=None)
def test_contains_run_matches_oracle(docs, run, data):
    if docs and data.draw(st.booleans()):  # also a run cut from a document
        doc = data.draw(st.sampled_from(docs))
        start = data.draw(st.integers(0, len(doc)))
        run = doc[start : start + data.draw(st.integers(0, 6))]
    index = NgramIndex([TokenSeq(d) for d in docs], 7)
    assert index.contains_run(run) == oracle.contains_run(docs, run)


@given(st.lists(st.lists(_tokens, max_size=12).map(tuple), max_size=5),
       st.lists(_tokens, min_size=3, max_size=3).map(tuple), st.data())
@settings(max_examples=300, deadline=None)
def test_find_ngram_match_window_matches_oracle(docs, window, data):
    n = 3
    if docs and data.draw(st.booleans()):  # also a window cut from a document
        doc = data.draw(st.sampled_from(docs))
        if len(doc) >= n:
            start = data.draw(st.integers(0, len(doc) - n))
            window = doc[start : start + n]
    index = NgramIndex([TokenSeq(d) for d in docs], n)
    assert find_ngram_match(window, index) == (0 if oracle.contains_run(docs, window) else None)


@given(st.lists(_tokens, max_size=30), st.lists(_tokens, max_size=30))
@settings(max_examples=300, deadline=None)
def test_overlap_bounds_lcs(a, b):
    # Both prefilter bounds sit at or above the LCS, so skipping a pair whose
    # bound misses a threshold never drops a flag.
    a, b = tuple(a), tuple(b)
    n = oracle_lcs(a, b)
    ca, cb = Counter(a), Counter(b)
    assert _overlap(ca, cb) == _overlap(cb, ca) >= n
    assert sum(map(cb.__contains__, a)) >= _overlap(ca, cb)


# Small corpora over a four-token alphabet: repeated tokens, documents
# shorter than samples, and empty and sub-threshold samples all occur.
_seqs = st.lists(st.lists(st.sampled_from("abcd"), max_size=14).map(tuple), max_size=5)


@given(st.lists(_seqs.filter(bool), min_size=1, max_size=3), _seqs.filter(bool),
       st.sampled_from(MODES), st.integers(0, 8), st.sampled_from([0.0, 0.3, 0.6, 1.0]),
       st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_filter_corpus_matches_oracle(sets, docs, mode, min_len, min_frac, n):
    train = [TokenSeq(toks, f"t{i}") for i, toks in enumerate(docs)]
    test_sets = {f"set{k}": [TokenSeq(toks, f"set{k}:{j}") for j, toks in enumerate(samples)]
                 for k, samples in enumerate(sets)}
    kwargs = dict(ngram_n=n, lcs_min_len=min_len, lcs_min_frac=min_frac)
    got = filter_corpus(train, test_sets, mode, **kwargs)
    assert got == oracle.filter_corpus(train, test_sets, mode, **kwargs)
