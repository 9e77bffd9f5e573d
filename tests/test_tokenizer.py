import re
from heapq import heapify

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokenizer_oracles as oracle
from qwenkit.errors import FormatError, InputError, ParameterError
from qwenkit.ops import Rng
from qwenkit.tokenizer import (
    DEFAULT_CONTROL_TOKENS,
    base_vocab,
    bpe_train,
    compression_rate,
    decode,
    encode,
    load_vocab,
    save_vocab,
    split_words,
)
from qwenkit.tokenizer import _build_vocab, _pop_best

MULTILINGUAL = [
    "The quick brown fox jumps over the lazy dog.",
    "你好，世界。今天天气很好。",
    "Привет, мир! Сегодня хорошая погода.",
    "مرحبا بالعالم، الطقس جميل اليوم.",
    "안녕하세요 세계, 오늘 날씨가 좋네요.",
    "สวัสดีชาวโลก วันนี้อากาศดี",
    "こんにちは世界、カタカナとひらがな。",
    "नमस्ते दुनिया, आज मौसम अच्छा है।",
]


class TestSplitWords:
    def test_whitespace_attaches_forward(self):
        assert split_words(b"ab cd") == [b"ab", b" cd"]

    def test_leading_whitespace(self):
        assert split_words(b"  ab") == [b"  ab"]

    def test_trailing_whitespace_run(self):
        assert split_words(b"ab  cd ") == [b"ab", b"  cd", b" "]

    def test_empty(self):
        assert split_words(b"") == []

    def test_reassembles(self):
        data = b" spaces\tand\nnewlines mixed  up "
        assert b"".join(split_words(data)) == data


class TestTrain:
    def test_first_merge_on_repeated_byte(self):
        vocab = bpe_train([b"aaaa"], 260)
        assert vocab.merges[0] == (ord("a"), ord("a"))
        assert vocab.token_bytes[256] == b"aa"

    def test_empty_corpus_rejected(self):
        for corpus in ([], [b""], ["", bytearray()]):
            with pytest.raises(InputError, match="at least one nonempty document"):
                bpe_train(corpus, 300)

    def test_corpus_without_repeated_pairs_gives_base_plus_controls(self):
        vocab = bpe_train([b"ab"], 300)
        assert vocab.merges == []
        assert vocab.n_regular == 256
        assert vocab.vocab_size == 259
        assert vocab.control_names == DEFAULT_CONTROL_TOKENS

    def test_training_is_deterministic(self):
        corpus = [b"the cat sat on the mat", b"the dog sat on the log"]
        a = bpe_train(corpus, 300)
        b = bpe_train(corpus, 300)
        assert a.merges == b.merges

    def test_tie_prefers_smaller_merged_bytes(self):
        # "bc" and "xy" both occur twice; "bc" < "xy" lexicographically.
        vocab = bpe_train([b"bc", b"bc", b"xy", b"xy"], 260)
        assert vocab.token_bytes[256] == b"bc"

    def test_stops_when_no_pair_repeats(self):
        vocab = bpe_train([b"abcdef"], 10_000)
        assert vocab.n_regular == 256  # every pair unique

    def test_target_too_small_rejected(self):
        with pytest.raises(ParameterError):
            bpe_train([b"x"], 258)

    # A float would pass the range check and train; a str fails only in a comparison.
    @pytest.mark.parametrize("bad", [300.5, 300.0, np.float64(300), "300", True, None],
                             ids=["float", "whole-float", "np-float64", "str", "bool", "none"])
    def test_non_integer_target_rejected(self, bad):
        with pytest.raises(ParameterError, match="target_vocab must be an integer"):
            bpe_train([b"aaaa bbbb"], bad)

    def test_numpy_integer_target_accepted(self):
        corpus = [b"the cat sat on the mat"]
        assert bpe_train(corpus, np.int64(300)).merges == bpe_train(corpus, 300).merges

    def test_merges_never_cross_word_boundaries(self):
        # " a" repeats but the space belongs to the next word, so the pair
        # ("a", " ") never forms; (" ", "a") does.
        vocab = bpe_train([b"a a a a"], 280)
        for left, right in vocab.merges:
            assert vocab.token_bytes[left] + vocab.token_bytes[right] != b"a "

    def test_vocab_arithmetic_accepts_published_inventory(self):
        # 151,643 regular + 3 control is a valid target arithmetic even
        # though training that far needs a real corpus.
        assert 151_646 >= 256 + len(DEFAULT_CONTROL_TOKENS)


class TestEncodeDecode:
    def test_empty_string(self):
        assert encode(base_vocab(), b"") == []

    def test_aaaa_two_tokens(self):
        vocab = bpe_train([b"aaaa"], 260)
        assert encode(vocab, b"aaaa") == [256, 256]

    def test_every_id_in_vocab(self):
        vocab = bpe_train([b"hello hello world"], 300)
        data = bytes(range(256)) + b" hello world "
        for t in encode(vocab, data):
            assert 0 <= t < vocab.n_regular

    def test_roundtrip_all_bytes(self):
        vocab = bpe_train([b"some corpus text", b"more text"], 300)
        data = bytes(range(256))
        assert decode(vocab, encode(vocab, data)) == data

    def test_roundtrip_invalid_utf8(self):
        vocab = base_vocab()
        data = b"\xff\xfe\x80 garbage \xc3("
        assert decode(vocab, encode(vocab, data)) == data

    def test_roundtrip_multilingual(self):
        vocab = bpe_train([t.encode("utf-8") for t in MULTILINGUAL], 400)
        for text in MULTILINGUAL:
            raw = text.encode("utf-8")
            assert decode(vocab, encode(vocab, raw)) == raw

    def test_never_more_tokens_than_bytes(self):
        vocab = bpe_train([b"banana bandana"], 300)
        rng = Rng(0)
        for _ in range(100):
            n = int(rng.uint64s(1)[0] % 64)
            data = bytes(int(b % 256) for b in rng.uint64s(n))
            assert len(encode(vocab, data)) <= len(data)

    def test_decode_empty(self):
        assert decode(base_vocab(), []) == b""

    def test_control_ids_decode_to_nothing(self):
        vocab = base_vocab()
        eot = vocab.n_regular + vocab.control_names.index("<|endoftext|>")
        assert decode(vocab, [ord("h"), eot, ord("i")]) == b"hi"

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError):
            decode(base_vocab(), [999])

    @pytest.mark.parametrize("bad", [None, 5, np.int64(5), 2.5], ids=["none", "int", "np-int", "float"])
    def test_non_iterable_ids_rejected(self, bad):
        with pytest.raises(InputError, match="ids must be an iterable of token ids"):
            decode(base_vocab(), bad)

    # int() would read 1.5 as 1 and "7" as 7; bool is an int subclass.
    @pytest.mark.parametrize("bad", [1.5, "x", "7", True, np.float32(2.0)],
                             ids=["float", "str", "digit-str", "bool", "np-float32"])
    def test_non_integer_id_rejected(self, bad):
        with pytest.raises(InputError, match="is not an integer"):
            decode(base_vocab(), [ord("a"), bad])

    # Each iterates as ints or keys, so it would decode to a plausible
    # wrong answer: decode(v, b"hi") gave b"hi".
    @pytest.mark.parametrize("bad", [b"hi", bytearray(b"hi"), memoryview(b"hi"), "hi",
                                     {104: "x", 105: "y"}],
                             ids=["bytes", "bytearray", "memoryview", "str", "dict"])
    def test_text_and_mappings_are_not_ids(self, bad):
        with pytest.raises(InputError, match="ids must be an iterable of token ids"):
            decode(base_vocab(), bad)

    def test_numpy_integer_ids_accepted(self):
        vocab = base_vocab()
        assert decode(vocab, np.array([ord("h"), ord("i")], dtype=np.int64)) == b"hi"

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint8])
    def test_numpy_integer_ids_of_other_widths_accepted(self, dtype):
        vocab = base_vocab()
        assert decode(vocab, np.array([ord("h"), ord("i")], dtype=dtype)) == b"hi"

    def test_str_input_is_utf8(self):
        vocab = base_vocab()
        assert decode(vocab, encode(vocab, "héllo")) == "héllo".encode("utf-8")

    def test_bytearray_input_is_its_bytes(self):
        vocab = base_vocab()
        assert encode(vocab, bytearray(b"hi there")) == encode(vocab, b"hi there")

    # bytes(5) is five zero bytes and bytes([104, 105]) is b"hi": neither is text.
    @pytest.mark.parametrize("bad", [5, 2.5, [104, 105], None, "lone \udc80 surrogate"],
                             ids=["int", "float", "int-list", "none", "surrogate"])
    def test_non_text_rejected(self, bad):
        vocab = base_vocab()
        with pytest.raises(InputError):
            encode(vocab, bad)
        with pytest.raises(InputError):
            compression_rate(vocab, [bad])
        with pytest.raises(InputError):
            bpe_train(["a doc", bad], 300)


class TestCompressionRate:
    def test_byte_only_vocab_is_one(self):
        assert compression_rate(base_vocab(), [b"hello world"]) == 1.0

    def test_aaaa_after_one_merge(self):
        vocab = bpe_train([b"aaaa"], 260)
        assert compression_rate(vocab, [b"aaaa"]) == 2.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            compression_rate(base_vocab(), [])
        with pytest.raises(InputError):
            compression_rate(base_vocab(), [b""])

    def test_monotone_in_merges(self):
        corpus = [b"the cat sat on the mat", b"the dog sat on the log bog"]
        full = bpe_train(corpus, 320)
        rates = []
        for k in range(len(full.merges) + 1):
            partial = _build_vocab(full.merges[:k], full.control_names)
            rates.append(compression_rate(partial, corpus))
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


class TestVocabFile:
    def test_roundtrip(self, tmp_path):
        vocab = bpe_train([b"the cat sat on the mat"], 300)
        path = tmp_path / "v.bpe"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.merges == vocab.merges
        assert loaded.token_bytes == vocab.token_bytes
        assert loaded.control_names == vocab.control_names

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "v.bpe"
        path.write_text("merge 61 62\n")
        with pytest.raises(FormatError):
            load_vocab(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "v.bpe"
        path.write_text("qwenkit-bpe v1\nfrob 1 2\n")
        with pytest.raises(FormatError):
            load_vocab(path)

    def test_merge_after_control_rejected(self, tmp_path):
        path = tmp_path / "v.bpe"
        path.write_text("qwenkit-bpe v1\ncontrol <x>\nmerge 61 62\n")
        with pytest.raises(FormatError):
            load_vocab(path)

    @pytest.mark.parametrize("body, message", [
        ("control <|a|> x\n", "line 2: control token name '<|a|> x'"),
        ("control <|a|>\ncontrol <|b|>\ncontrol <|a|>\n",
         "line 4: duplicate control token name '<|a|>'"),
        ("control \n", "line 2: control token name ''"),
    ], ids=["name-with-space", "repeated-name", "empty-name"])
    def test_bad_control_name_is_format_error(self, tmp_path, body, message):
        path = tmp_path / "v.bpe"
        path.write_text("qwenkit-bpe v1\n" + body)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_vocab(path)

    def test_undefined_merge_reference_rejected(self, tmp_path):
        path = tmp_path / "v.bpe"
        path.write_text("qwenkit-bpe v1\nmerge 616263 64\n")
        with pytest.raises(FormatError):
            load_vocab(path)


@given(st.binary(max_size=256))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(data):
    vocab = _ROUND_VOCAB
    assert decode(vocab, encode(vocab, data)) == data


_ROUND_VOCAB = bpe_train([b"roundtrip fixture corpus for merges merges", bytes(range(256))], 300)


class TestVocabFileEncoding:
    def test_non_utf8_vocab_is_format_error(self, tmp_path):
        path = tmp_path / "v.bpe"
        path.write_bytes(b"qwenkit-bpe v1\ncontrol <x\xff>\n")
        with pytest.raises(FormatError, match=r"v\.bpe.*byte 25"):
            load_vocab(path)


# Differential tests against the reference trainer and encoder in
# tokenizer_oracles. Small alphabets make pairs repeat, merged byte strings
# collide ("ab" + "c" against "a" + "bc") and words recur, so the cache and
# the incremental counts are exercised.
_ALPHABET = b"ab c\t\n\xff\xc3"
_docs = st.lists(
    st.one_of(
        st.lists(st.sampled_from(_ALPHABET), max_size=40).map(bytes),
        st.sampled_from([b"aaaa", b"aaaaaaa", b"   ", b" \t\n ", b"\xff\xfe\x80",
                         b"abcabc abc", b"ab ab ab"]),
        st.binary(max_size=24),
    ),
    max_size=8,
).filter(any)  # bpe_train refuses a corpus with no nonempty document


@given(_docs, st.integers(259, 320))
@settings(max_examples=300, deadline=None)
def test_train_matches_oracle(corpus, target):
    vocab = bpe_train(corpus, target)
    expected = oracle.bpe_train(corpus, target)
    assert vocab.merges == expected.merges
    assert vocab == expected


@given(st.binary(max_size=64))
@settings(max_examples=300, deadline=None)
def test_split_words_matches_oracle(data):
    assert split_words(data) == oracle.split_words(data)


def test_split_words_every_byte_matches_oracle():
    for b in range(256):
        data = bytes([b]) + b"x" + bytes([b, b]) + b"y" + bytes([b])
        assert split_words(data) == oracle.split_words(data)


@given(_docs, st.lists(st.one_of(st.lists(st.sampled_from(_ALPHABET), max_size=40).map(bytes),
                                 st.binary(max_size=40)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_encode_matches_oracle_cold_and_warm(corpus, texts):
    vocab = bpe_train(corpus, 300)
    expected = [oracle.encode(vocab, t) for t in texts]
    assert [encode(vocab, t) for t in texts] == expected  # cold, then filling
    assert [encode(vocab, t) for t in texts] == expected  # warm


@given(_docs, st.lists(st.binary(max_size=40), max_size=4))
@settings(max_examples=100, deadline=None)
def test_encode_matches_oracle_after_load(tmp_path_factory, corpus, texts):
    path = tmp_path_factory.mktemp("vocab") / "v.bpe"
    save_vocab(bpe_train(corpus, 300), path)
    vocab = load_vocab(path)
    expected = [oracle.encode(vocab, t) for t in texts]
    assert [encode(vocab, t) for t in texts] == expected
    assert [encode(vocab, t) for t in texts] == expected


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_encode_matches_oracle_on_any_valid_merge_list(data):
    # Merge lists a trainer would never produce (rare pairs first, merges of
    # merged tokens in any order) still encode as the in-order oracle does.
    letters = st.sampled_from(list(b"ab \xff"))
    token_bytes = [bytes([b]) for b in range(256)]
    merges = []
    for _ in range(data.draw(st.integers(0, 24))):
        ids = st.one_of(letters, st.integers(256, len(token_bytes) - 1)) if merges else letters
        left, right = data.draw(ids), data.draw(ids)
        merged = token_bytes[left] + token_bytes[right]
        if merged not in token_bytes:
            token_bytes.append(merged)
            merges.append((left, right))
    vocab = _build_vocab(merges, ())
    text = bytes(data.draw(st.lists(letters, max_size=48)))
    assert encode(vocab, text) == oracle.encode(vocab, text)
    assert encode(vocab, text) == oracle.encode(vocab, text)


# The trainer's lazy heap and local rewrite, case by case against the oracle.
def _assert_train_matches_oracle(corpus, target):
    vocab = bpe_train(corpus, target)
    expected = oracle.bpe_train(corpus, target)
    assert vocab.merges == expected.merges
    assert vocab.token_bytes == expected.token_bytes
    return vocab


class TestTrainHeap:
    @pytest.mark.parametrize("corpus", [
        [b"aaaa"] * 3,
        [b"aaa"] * 3,
        [b"abab"] * 2 + [b"ab"],
        [b"aaaaa", b"aaaaaaa", b"aa"],
        [b"ababab", b"abababa", b"babab"],
        [b"aabaab", b"aab aab aab"],
    ], ids=["aaaa", "aaa", "abab", "odd-runs", "alternating", "aab"])
    @pytest.mark.parametrize("target", [260, 262, 10_000])
    def test_overlapping_and_adjacent_occurrences(self, corpus, target):
        _assert_train_matches_oracle(corpus, target)

    def test_adjacent_occurrences_update_their_shared_pair(self):
        # "abab" -> (n, n): the (b, a) between the two occurrences becomes
        # (n, a) for the first and then (n, n) for the second.
        vocab = _assert_train_matches_oracle([b"abab"] * 2, 261)
        assert [vocab.token_bytes[t] for t in vocab.merges[1]] == [b"ab", b"ab"]

    def test_count_ties_break_by_merged_bytes(self):
        # Every pair but (a, b) occurs twice, so the merged bytes decide, and
        # " ba" (born in the first merge) still goes before "yz".
        vocab = _assert_train_matches_oracle([b"yz ba", b"yz ba", b"ab"], 262)
        assert vocab.token_bytes[256:] == [b" b", b" ba", b"yz"]

    def test_fallen_count_loses_to_a_pair_it_used_to_beat(self):
        # (x, a) starts at 5 but falls to 2 once "ab" merges, so "qr" (4)
        # must win the second merge over the heap's stale entry for (x, a).
        corpus = [b"ab"] * 3 + [b"xab"] * 3 + [b"xa"] * 2 + [b"qr"] * 4
        vocab = _assert_train_matches_oracle(corpus, 262)
        assert vocab.token_bytes[256:] == [b"ab", b"qr", b"xab"]

    def test_stops_early_when_no_pair_repeats(self):
        # After "aa" the only pair is (aa, aa), once per word.
        vocab = _assert_train_matches_oracle([b"aaaa", b"xy"], 10_000)
        assert vocab.token_bytes[256:] == [b"aa"]

    def test_pop_best_skips_stale_and_colliding_entries(self):
        # bpe_train never meets a colliding pair (see the cache property
        # below), so the skip is checked on a heap built by hand.
        pair_counts = {(97, 98): 3, (98, 99): 4, (120, 121): 4, (300, 99): 5}
        heap = [(-5, b"abc", b"ab", (300, 99)),   # merged bytes already a token
                (-6, b"ab", b"a", (97, 98)),      # stale: the count fell to 3
                (-4, b"bc", b"b", (98, 99)),
                (-4, b"xy", b"x", (120, 121))]
        heapify(heap)
        existing = {b"abc"}
        assert _pop_best(heap, pair_counts, existing) == ((98, 99), b"bc")
        assert _pop_best(heap, pair_counts, existing) == ((120, 121), b"xy")
        assert _pop_best(heap, pair_counts, existing) is None
        assert heap == []

    def test_pop_best_breaks_equal_merged_bytes_by_left_bytes(self):
        # Unreachable in training for the same reason as a collision.
        pair_counts = {(300, 99): 2, (97, 301): 2}  # "ab" + "c" against "a" + "bc"
        heap = [(-2, b"abc", b"ab", (300, 99)), (-2, b"abc", b"a", (97, 301))]
        heapify(heap)
        assert _pop_best(heap, pair_counts, set()) == ((97, 301), b"abc")


@given(_docs, st.integers(259, 320))
@settings(max_examples=200, deadline=None)
def test_trained_cache_is_the_encoding_of_every_training_word(corpus, target):
    vocab = bpe_train(corpus, target)
    assert set(vocab._words) == {w for doc in corpus for w in split_words(bytes(doc))}
    for word, ids in vocab._words.items():
        assert list(ids) == oracle.encode(vocab, word)
        # No run of two or more adjacent ids spells a token: a run's ids
        # are the encoding of its bytes, and a token's bytes encode to that
        # one token. So no candidate pair of the trainer collides.
        spelled = [vocab.token_bytes[t] for t in ids]
        assert not any(b"".join(spelled[i:j]) in vocab.token_bytes
                       for i in range(len(ids)) for j in range(i + 2, len(ids) + 1))
    for doc in corpus:
        assert encode(vocab, doc) == oracle.encode(vocab, doc)


def _zipf_corpus(seed: int, n_words: int = 3_600) -> list[bytes]:
    """Documents of 60 words drawn with weight 1/rank from 400 random words."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"etaoinshrdlucmfwypvbgkqjxz", dtype=np.uint8)
    lexicon = [letters[rng.integers(0, 26, size=n)].tobytes()
               for n in rng.integers(1, 9, size=400)]
    weights = 1.0 / np.arange(1, len(lexicon) + 1)
    words = [lexicon[i] for i in rng.choice(len(lexicon), size=n_words, p=weights / weights.sum())]
    return [b" ".join(words[i:i + 60]) for i in range(0, n_words, 60)]


def test_train_matches_oracle_on_zipfian_corpus():
    corpus = _zipf_corpus(17)
    assert 15_000 < sum(map(len, corpus)) < 25_000
    vocab = _assert_train_matches_oracle(corpus, 259 + 200)
    assert len(vocab.merges) == 200
    assert {w: list(ids) for w, ids in vocab._words.items()} == {
        w: oracle.encode(vocab, w) for w in vocab._words}
    assert [encode(vocab, doc) for doc in corpus] == [oracle.encode(vocab, doc) for doc in corpus]
