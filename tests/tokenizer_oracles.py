"""Reference BPE trainer and encoder.

The straightforward forms: training recounts every adjacent pair of every
word after each merge, and encoding applies the merges to each word one at a
time in training order, each to a fixpoint. Kept as oracles for the
rank-based encoder and the incremental trainer in ``qwenkit.tokenizer``.
"""

from qwenkit.errors import ParameterError
from qwenkit.tokenizer import DEFAULT_CONTROL_TOKENS, BpeVocab, _as_bytes, _build_vocab

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


def split_words(data: bytes) -> list[bytes]:
    """Split at non-whitespace to whitespace transitions; whitespace runs attach
    to the following word."""
    words = []
    start = 0
    for i in range(1, len(data)):
        if data[i] in _WHITESPACE and data[i - 1] not in _WHITESPACE:
            words.append(data[start:i])
            start = i
    if len(data) > start:
        words.append(data[start:])
    return words


def _merge_once(word: tuple[int, ...], pair: tuple[int, int], new_id: int) -> tuple[int, ...]:
    out = []
    i = 0
    n = len(word)
    while i < n:
        if i + 1 < n and word[i] == pair[0] and word[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def bpe_train(corpus, target_vocab: int, control_names=DEFAULT_CONTROL_TOKENS) -> BpeVocab:
    """Greedy BPE training that recounts all pairs after every merge."""
    control_names = tuple(control_names)
    if target_vocab < 256 + len(control_names):
        raise ParameterError(
            f"target_vocab must be at least 256 + {len(control_names)} control "
            f"tokens, got {target_vocab}"
        )
    word_counts: dict[tuple[int, ...], int] = {}
    for doc in corpus:
        for word in split_words(_as_bytes(doc)):
            key = tuple(word)
            word_counts[key] = word_counts.get(key, 0) + 1

    token_bytes = [bytes([b]) for b in range(256)]
    existing = set(token_bytes)
    merges: list[tuple[int, int]] = []
    while len(token_bytes) + len(control_names) < target_vocab:
        pair_counts: dict[tuple[int, int], int] = {}
        for word, count in word_counts.items():
            for a, b in zip(word, word[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + count
        best = None
        best_key = None
        for pair, count in pair_counts.items():
            if count < 2:
                continue
            merged = token_bytes[pair[0]] + token_bytes[pair[1]]
            if merged in existing:
                continue
            key = (-count, merged, token_bytes[pair[0]])
            if best_key is None or key < best_key:
                best_key = key
                best = pair
        if best is None:
            break
        new_id = len(token_bytes)
        merged = token_bytes[best[0]] + token_bytes[best[1]]
        token_bytes.append(merged)
        existing.add(merged)
        merges.append(best)
        rewritten: dict[tuple[int, ...], int] = {}
        for word, count in word_counts.items():
            new_word = _merge_once(word, best, new_id)
            rewritten[new_word] = rewritten.get(new_word, 0) + count
        word_counts = rewritten
    return _build_vocab(merges, control_names)


def encode(vocab: BpeVocab, text) -> list[int]:
    """Token ids with the merges applied in training order, each to fixpoint."""
    data = _as_bytes(text)
    out: list[int] = []
    for word in split_words(data):
        ids: tuple[int, ...] = tuple(word)
        for k, pair in enumerate(vocab.merges):
            new_id = 256 + k
            while True:
                merged = _merge_once(ids, pair, new_id)
                if merged == ids:
                    break
                ids = merged
        out.extend(ids)
    return out
