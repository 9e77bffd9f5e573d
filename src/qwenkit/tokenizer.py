"""Byte-level byte-pair encoding: trainer, encoder, decoder, metrics.

The base alphabet is the 256 bytes, so any byte string encodes losslessly
and decodes back bit-exactly, invalid UTF-8 included. Training greedily
merges the most frequent adjacent token pair inside word boundaries; ties
prefer the lexicographically smaller merged byte string, which makes
training deterministic without a seed.

Words are maximal runs of non-whitespace bytes with any preceding ASCII
whitespace run attached (a trailing whitespace run forms a final word of its
own). Merges never cross word boundaries.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import repeat

import numpy as np

from .errors import FormatError, InputError
from .ops import _check_int, _check_type, _file_errors, _items, _read_utf8

DEFAULT_CONTROL_TOKENS = ("<|im_start|>", "<|im_end|>", "<|endoftext|>")

# For a bytes pattern \s is exactly the ASCII whitespace " \t\n\r\v\f".
_WORD = re.compile(rb"\s*\S+|\s+")


@dataclass
class BpeVocab:
    """Merge list plus derived token tables.

    Regular ids are 0..255 for the single bytes followed by one id per merge,
    in training order. Control ids come after all regular ids and decode to
    empty byte strings. Byte strings and regular ids are in bijection.
    Treat it as read-only: the merge ranks and the encoder's word cache are
    derived from ``merges`` when it is built.
    """

    merges: list[tuple[int, int]]
    token_bytes: list[bytes]
    control_names: tuple[str, ...]
    # Merge rank of each pair, and the ids of every word trained on or
    # encoded so far.
    _ranks: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    _words: dict[bytes, tuple[int, ...]] = field(
        init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ranks = {pair: k for k, pair in enumerate(self.merges)}

    @property
    def n_regular(self) -> int:
        return len(self.token_bytes)

    @property
    def vocab_size(self) -> int:
        return self.n_regular + len(self.control_names)


def _build_vocab(merges: list[tuple[int, int]], control_names) -> BpeVocab:
    """The vocabulary of ``merges`` and ``control_names``, which must be
    valid: :func:`load_vocab` checks a file's merges and control names, and
    :func:`bpe_train` makes only valid merges, with the default names."""
    control_names = tuple(control_names)
    token_bytes = [bytes([b]) for b in range(256)]
    for left, right in merges:
        token_bytes.append(token_bytes[left] + token_bytes[right])
    return BpeVocab(list(merges), token_bytes, control_names)


def base_vocab() -> BpeVocab:
    """Merge-free vocabulary: the 256 bytes plus :data:`DEFAULT_CONTROL_TOKENS`."""
    return _build_vocab([], DEFAULT_CONTROL_TOKENS)


def _as_bytes(text) -> bytes:
    if isinstance(text, (bytes, bytearray)):
        return bytes(text)
    if not isinstance(text, str):
        raise InputError(f"text must be str, bytes or bytearray, got {type(text).__name__}")
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"text is not valid UTF-8 at index {exc.start}") from None


def _corpus_bytes(corpus) -> list[bytes]:
    docs = [_as_bytes(doc) for doc in _items(corpus, "corpus", "documents")]
    if not any(docs):
        raise InputError("corpus must contain at least one nonempty document")
    return docs


def split_words(data: bytes) -> list[bytes]:
    """Split at non-whitespace to whitespace transitions; whitespace runs attach
    to the following word."""
    return _WORD.findall(data)


def _merge_once(word: tuple[int, ...], pair: tuple[int, int], new_id: int) -> tuple[int, ...]:
    """Replace every occurrence of ``pair``, scanning left to right."""
    left, right = pair
    out = []
    i = 0
    n = len(word)
    while i < n:
        if word[i] == left and i + 1 < n and word[i + 1] == right:
            out.append(new_id)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def _pop_best(heap, pair_counts, existing):
    """Pop entries off ``heap`` until one is live: its count is the pair's
    current one and its merged bytes are no token yet. Returns that
    ``(pair, merged)``, or None once the heap is empty. The rest are dropped
    for good, since ``existing`` only grows and each count change pushes an
    entry of its own."""
    while heap:
        neg_count, merged, _, pair = heappop(heap)
        if pair_counts.get(pair) == -neg_count and merged not in existing:
            return pair, merged
    return None


def bpe_train(corpus, target_vocab: int) -> BpeVocab:
    """Train a vocabulary of up to ``target_vocab`` ids on a list of byte
    strings; it holds the three :data:`DEFAULT_CONTROL_TOKENS`.

    Documents are ``str`` (as UTF-8), ``bytes`` or ``bytearray``, else
    :class:`InputError`; a ``str`` with a lone surrogate too, a corpus
    given as one text, a mapping or a set rather than a collection of
    documents (``ops._items``), and a corpus with no nonempty document.
    ``target_vocab`` must be a Python or numpy integer (not bool) of at
    least 256 plus the control tokens, else :class:`ParameterError`.

    Each step merges the pair with the most occurrences inside words, ties
    broken by the smaller merged byte string, then the smaller left byte
    string. Stops early when no adjacent pair occurs at least twice. A
    candidate pair whose concatenation collides with an existing token's byte
    string is skipped so byte strings stay unique.

    Pair counts are kept across steps. A merge of ``(a, b)`` into ``n``
    rewrites only the distinct words holding the pair, and in them only the
    pairs next to each occurrence: ``(p, a)`` becomes ``(p, n)`` and
    ``(b, q)`` becomes ``(n, q)``. The best pair comes from a lazy heap keyed
    by the tie order above: each change of a pair's count pushes an entry,
    and an entry is live while its count is the pair's current one.

    The vocabulary's encoder cache starts out holding the ids of every
    distinct training word, which are exactly what :func:`encode` gives.
    """
    n_control = len(DEFAULT_CONTROL_TOKENS)
    _check_int("target_vocab", target_vocab, 256 + n_control)
    word_counts: dict[bytes, int] = {}
    for doc in _corpus_bytes(corpus):
        for word in split_words(doc):
            word_counts[word] = word_counts.get(word, 0) + 1
    words = [tuple(word) for word in word_counts]
    counts = list(word_counts.values())
    pair_counts: defaultdict[tuple[int, int], int] = defaultdict(int)
    # Indices of the words holding each pair; may also list words that no
    # longer do, which a rewrite then leaves unchanged.
    holders: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    for wi, (word, count) in enumerate(zip(words, counts)):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += count
            holders[pair].add(wi)

    token_bytes = [bytes([b]) for b in range(256)]
    existing = set(token_bytes)
    merges: list[tuple[int, int]] = []
    # (-count, merged bytes, left bytes, pair): a pair's (merged, left)
    # bytes are unique to it, so the heap order is the tie order above.
    heap = [(-count, token_bytes[a] + token_bytes[b], token_bytes[a], (a, b))
            for (a, b), count in pair_counts.items() if count >= 2]
    heapify(heap)
    while len(token_bytes) + n_control < target_vocab:
        top = _pop_best(heap, pair_counts, existing)
        if top is None:
            break
        best, merged = top
        a, b = best
        new_id = len(token_bytes)
        token_bytes.append(merged)
        existing.add(merged)
        merges.append(best)
        changed = set()
        for wi in holders.pop(best):
            word = words[wi]
            n = len(word)
            count = counts[wi]
            out = []
            i = 0
            while i < n:
                if word[i] == a and i + 1 < n and word[i + 1] == b:
                    if out:
                        # out[-1] may be the new id of an occurrence just before.
                        old, pair = (out[-1], a), (out[-1], new_id)
                        pair_counts[old] -= count
                        pair_counts[pair] += count
                        holders[pair].add(wi)
                        changed.add(old)
                        changed.add(pair)
                    if i + 2 < n:
                        old, pair = (b, word[i + 2]), (new_id, word[i + 2])
                        pair_counts[old] -= count
                        pair_counts[pair] += count
                        holders[pair].add(wi)
                        changed.add(old)
                        changed.add(pair)
                    out.append(new_id)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            words[wi] = tuple(out)
        # Every occurrence is gone, and merges only form pairs holding their
        # new id, so neither the merged pair nor a pair at count 0 returns.
        del pair_counts[best]
        changed.discard(best)
        for pair in changed:
            count = pair_counts[pair]
            if count == 0:
                del pair_counts[pair]
                holders.pop(pair, None)
            elif count >= 2:
                left = token_bytes[pair[0]]
                heappush(heap, (-count, left + token_bytes[pair[1]], left, pair))
    vocab = _build_vocab(merges, DEFAULT_CONTROL_TOKENS)
    # Merge k joins only ids below 256 + k and was applied to every word
    # holding its pair, so each trained word is the encoder's fixpoint.
    vocab._words.update(zip(word_counts, words))
    return vocab


def _encode_word(vocab: BpeVocab, word: bytes) -> tuple[int, ...]:
    ranks = vocab._ranks
    no_merge = len(vocab.merges)
    ids = tuple(word)
    while len(ids) > 1:
        rank = min(map(ranks.get, zip(ids, ids[1:]), repeat(no_merge)))
        if rank == no_merge:
            break
        ids = _merge_once(ids, vocab.merges[rank], 256 + rank)
    return ids


def encode(vocab: BpeVocab, text) -> list[int]:
    """Token ids for any byte string, as if the merges applied in training
    order, each to a fixpoint. ``text`` is taken as by :func:`bpe_train`.

    Each word instead merges all occurrences of its lowest-rank adjacent pair
    until no pair of it is a merge. The result is the same because merge k
    only joins ids below 256 + k, so no merge can bring back a pair of lower
    rank. The ids of each distinct word are cached on the vocabulary, which
    so grows by one entry per distinct word it has encoded. A vocabulary
    from :func:`bpe_train` starts out holding every distinct training word,
    so the training documents encode by lookups alone. A ``vocab`` that is
    not a :class:`BpeVocab` is a :class:`ParameterError`, here and in
    :func:`decode`, :func:`compression_rate` and :func:`save_vocab`.
    """
    _check_type("vocab", vocab, BpeVocab)
    cache = vocab._words
    out: list[int] = []
    for word in split_words(_as_bytes(text)):
        ids = cache.get(word)
        if ids is None:
            ids = cache[word] = _encode_word(vocab, word)
        out.extend(ids)
    return out


def decode(vocab: BpeVocab, ids) -> bytes:
    """Concatenated token byte strings; control ids contribute nothing.

    ``ids`` must be an iterable of Python or numpy integers (not bool)
    inside the vocabulary, else :class:`InputError`. Text, mappings and
    sets are refused although they iterate as ints, keys or in their own
    order (``ops._items``): ``b"hi"`` is not a list of ids.
    """
    _check_type("vocab", vocab, BpeVocab)
    ids = _items(ids, "ids", "token ids")
    n_regular, vocab_size, token_bytes = vocab.n_regular, vocab.vocab_size, vocab.token_bytes
    parts = []
    for t in ids:
        # int() would turn "7" into 7 and 1.5 into 1; bool is an int subclass.
        if type(t) is not int and (isinstance(t, bool)
                                   or not isinstance(t, (int, np.integer))):
            raise InputError(f"token id {t!r} is not an integer")
        if 0 <= t < n_regular:
            parts.append(token_bytes[t])
        elif not n_regular <= t < vocab_size:
            raise InputError(f"token id {t} outside vocabulary of {vocab_size}")
    return b"".join(parts)


def compression_rate(vocab: BpeVocab, corpus) -> float:
    """Corpus bytes per token; 1.0 for a merge-free vocabulary. Documents are
    taken, and an empty corpus refused, as by :func:`bpe_train`."""
    docs = _corpus_bytes(corpus)
    total_bytes = sum(len(d) for d in docs)
    total_tokens = sum(len(encode(vocab, d)) for d in docs)
    return total_bytes / total_tokens


def save_vocab(vocab: BpeVocab, path) -> None:
    """Serialize as UTF-8 lines: a version header, one merge per line as hex
    byte strings, then control token names. A path that cannot be written
    is an :class:`InputError`."""
    _check_type("vocab", vocab, BpeVocab)
    lines = ["qwenkit-bpe v1"]
    for left, right in vocab.merges:
        lines.append(
            f"merge {vocab.token_bytes[left].hex()} {vocab.token_bytes[right].hex()}"
        )
    for name in vocab.control_names:
        lines.append(f"control {name}")
    with _file_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_vocab(path) -> BpeVocab:
    """Read a vocabulary file back. A fault of the file is a
    :class:`FormatError` naming its line; a path that cannot be read is an
    :class:`InputError`."""
    lines = _read_utf8(path).splitlines()
    if not lines or lines[0] != "qwenkit-bpe v1":
        raise FormatError("vocab file must start with 'qwenkit-bpe v1'")
    token_to_id = {bytes([b]): b for b in range(256)}
    merges: list[tuple[int, int]] = []
    controls: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        if kind == "merge":
            if controls:
                raise FormatError(f"line {lineno}: merge after control section")
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected two hex byte strings")
            try:
                left_b, right_b = bytes.fromhex(parts[0]), bytes.fromhex(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: invalid hex") from None
            if left_b not in token_to_id or right_b not in token_to_id:
                raise FormatError(
                    f"line {lineno}: merge references unknown token byte strings"
                )
            left, right = token_to_id[left_b], token_to_id[right_b]
            merged = left_b + right_b
            if merged in token_to_id:
                raise FormatError(f"line {lineno}: duplicate token byte string")
            token_to_id[merged] = 256 + len(merges)
            merges.append((left, right))
        elif kind == "control":
            if not rest or any(c.isspace() for c in rest):
                raise FormatError(f"line {lineno}: control token name {rest!r} must be "
                                  "nonempty and contain no whitespace")
            if rest in controls:
                raise FormatError(f"line {lineno}: duplicate control token name {rest!r}")
            controls.append(rest)
        else:
            raise FormatError(f"line {lineno}: unknown record {kind!r}")
    return _build_vocab(merges, controls)
