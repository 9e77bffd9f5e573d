"""Speculative greedy decoding: drafts copied from the text, verified in one
block call, and the KV cache rolled back to the accepted tokens.

The oracle is the argmax loop over :func:`forward`, ties within 1e-5. Most
tests run a *successor model*: a small model whose greedy next token after
t is ``successor[t]`` whatever came before, so a test can say which drafts
are accepted and which are not, while every logit still depends on the
cached history through attention.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwenkit import model
from qwenkit.layers import KvCache
from qwenkit.longctx import DcaParams, YarnParams
from qwenkit.model import _blocks, _logits, _rotary, forward, greedy_decode
from qwenkit.ops import Rng
from test_model import _small_model

CONFIG_KINDS = ["vanilla", "dca", "dca-yarn"]


def _configured(cfg, kind: str, chunk: int, window: int):
    if kind == "vanilla":
        return cfg
    yarn = YarnParams(4.0, chunk) if kind == "dca-yarn" else None
    return replace(cfg, dca=DcaParams(chunk, window), yarn=yarn)


def _successor_model(variant: str, successor: np.ndarray):
    """A copy of ``_small_model(variant)`` whose argmax after token t is
    ``successor[t]``, a permutation of the vocabulary.

    The embedding is scaled 30x, so the residual stream points along the
    current token's embedding, and row successor[t] of the output
    projection is that embedding. Attention and the FFN still add to every
    row (their inputs are normalized), so the logits depend on the cached
    history, but by too little to move the argmax.
    """
    w, cfg = _small_model(variant)
    embedding = w.embedding * np.float32(30.0)
    lm_head = np.empty_like(embedding)
    lm_head[successor] = embedding
    return replace(w, embedding=embedding, lm_head=lm_head), cfg


def _cycles(cfg, order: np.ndarray, length: int) -> np.ndarray:
    """The successor permutation that walks ``order``, a sequence of regular
    tokens, in cycles of ``length``; every other token maps to itself."""
    successor = np.arange(cfg.vocab_size)
    for a in range(0, len(order), length):
        cycle = order[a:a + length]
        successor[cycle] = np.roll(cycle, -1)
    return successor


def _decode_counting_rows(w, cfg, prompt, max_new):
    """``greedy_decode`` and, per block call, the cache length before the
    call, the rows fed and the cache after it."""
    calls = []

    def counting(weights, cfg, ids, cache, rotary):
        start = cache.length()
        x = _blocks(weights, cfg, ids, cache, rotary)
        calls.append((start, len(ids), cache))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_blocks", counting)
        out = greedy_decode(w, cfg, prompt, max_new)
    return out, calls


def _assert_argmax_chain(w, cfg, prompt, out, max_new):
    """``out`` is ``prompt`` extended by the argmax loop over forward, ties
    within 1e-5, stopping at max_new tokens or after end-of-text."""
    assert out[:len(prompt)] == list(prompt)
    assert len(out) == len(prompt) + max_new or out[-1] == cfg.effective_eot_id
    assert cfg.effective_eot_id not in out[len(prompt):-1]
    # forward is causal: row t - 1 of one pass is the logits after out[:t].
    logits = forward(w, cfg, out[:-1])
    for t in range(len(prompt), len(out)):
        assert logits[t - 1][out[t]] >= logits[t - 1].max() - 1e-5


@given(st.data(), st.sampled_from(["dense", "moe"]), st.sampled_from(CONFIG_KINDS))
@settings(max_examples=50, deadline=None)
def test_repetitive_prompts_reach_full_drafts_and_match_forward_property(data, variant, kind):
    seed = data.draw(st.integers(0, 2**32))
    _, cfg = _small_model(variant)
    order = Rng(seed).permutation(cfg.regular_tokens)
    successor = _cycles(cfg, order, data.draw(st.integers(1, 4)))
    w, cfg = _successor_model(variant, successor)
    chunk = data.draw(st.integers(2, 24))
    cfg = _configured(cfg, kind, chunk, data.draw(st.integers(1, chunk)))
    # A prompt that repeats a short cycle of its own: its drafts are
    # rejected until the output's own cycle takes over.
    period = Rng(seed + 1).uint64s(data.draw(st.integers(1, 6))) % cfg.regular_tokens
    prompt = [int(t) for t in period] * 60
    prompt = prompt[:data.draw(st.integers(1, 60))]
    max_new = data.draw(st.integers(30, 48))
    out, calls = _decode_counting_rows(w, cfg, prompt, max_new)
    _assert_argmax_chain(w, cfg, prompt, out, max_new)
    assert all(b == successor[a] for a, b in zip(out[len(prompt) - 1:], out[len(prompt):]))
    assert max(rows for _, rows, _ in calls[1:]) == 1 + model.MAX_DRAFT


@pytest.mark.parametrize("kind", ["dca", "dca-yarn"])
@pytest.mark.parametrize("variant", ["dense", "moe"])
def test_rollback_across_a_dca_chunk_boundary(variant, kind):
    # The model walks the cycle o0 -> o1 -> o2 -> o0; the prompt repeats it
    # in another order, o1 o0 o2, 5 times (positions 0-14). The first decode
    # call feeds o0 at 15 and the draft o2 (what followed o0 in the prompt)
    # at 16, the first position of the third chunk of 8. The model says o1,
    # so the cache rolls back across the chunk boundary to 16 positions.
    _, cfg = _small_model(variant)
    o = [int(t) for t in Rng(5).permutation(cfg.regular_tokens)]
    w, cfg = _successor_model(variant, _cycles(cfg, np.array(o), 3))
    cfg = _configured(cfg, kind, chunk=8, window=3)
    prompt = [o[1], o[0], o[2]] * 5
    out, calls = _decode_counting_rows(w, cfg, prompt, 20)
    assert out[15:18] == [o[0], o[1], o[2]]
    assert [(start, rows) for start, rows, _ in calls[1:3]] == [(15, 2), (16, 2)]
    _assert_argmax_chain(w, cfg, prompt, out, 20)


def test_end_of_text_inside_an_accepted_draft_stops_there():
    # Earlier documents "a b c d e <eot>" in the prompt, then "a". The
    # prefill emits b; the call [b, c] accepts c and emits d; the call
    # [d, e, <eot>] accepts e and end-of-text, and decoding stops there
    # without projecting the row after end-of-text.
    _, cfg = _small_model("dense")
    eot = cfg.effective_eot_id
    doc = [10, 20, 30, 40, 50, eot]
    successor = np.arange(cfg.vocab_size)
    successor[doc] = np.roll(doc, -1)
    w, cfg = _successor_model("dense", successor)
    prompt = doc * 2 + [10]
    out, calls = _decode_counting_rows(w, cfg, prompt, 10)
    assert out == prompt + doc[1:]
    assert [rows for _, rows, _ in calls] == [len(prompt), 2, 3]
    _assert_argmax_chain(w, cfg, prompt, out, 10)


def test_draft_follows_the_latest_bigram_and_adapts_its_length():
    # The model walks a..h in a cycle; the prompt is that cycle, then
    # "z d q a". Calls, as (rows fed: accepted draft | rejected draft):
    #   [b, c]             c accepted, draft length 1 -> 2;
    #   [d, e, f]          bigram "c d" gives e f (unigram d would give q a);
    #                      both accepted, 2 -> 4;
    #   [g, h, z, d, q]    h accepted, z rejected: the model emits a, 4 -> 2;
    #   [a, b, c]          from the "a" that ended the prompt, 2 -> 4;
    #   [d, e, f, g]       capped by max_new.
    _, cfg = _small_model("dense")
    a, b, c, d, e, f, g, h, z, q = range(10, 20)
    cycle = [a, b, c, d, e, f, g, h]
    successor = np.arange(cfg.vocab_size)
    successor[cycle] = np.roll(cycle, -1)
    w, cfg = _successor_model("dense", successor)
    prompt = cycle + [z, d, q, a]
    out, calls = _decode_counting_rows(w, cfg, prompt, 14)
    assert out == prompt + (cycle * 2)[1:15]
    assert [rows for _, rows, _ in calls] == [len(prompt), 2, 3, 5, 3, 4]


@pytest.mark.parametrize("max_new", range(1, 12))
def test_max_new_ending_inside_a_draft(max_new):
    # The model repeats the prompt's 2-cycle, so every draft is accepted and
    # drafts run 1, 2, 4, 8 tokens, each cut to what max_new leaves: the
    # last token falls inside a draft, on a bonus row, or on the prefill.
    _, cfg = _small_model("moe")
    order = Rng(9).permutation(cfg.regular_tokens)
    w, cfg = _successor_model("moe", _cycles(cfg, order, 2))
    prompt = [int(order[0]), int(order[1])] * 4
    total = len(prompt) + max_new
    out, calls = _decode_counting_rows(w, cfg, prompt, max_new)
    assert out == (prompt * 4)[:total]
    _assert_argmax_chain(w, cfg, prompt, out, max_new)
    cache = calls[-1][2]
    assert cache.capacity == total
    assert all(start + rows <= total for start, rows, _ in calls)


@pytest.mark.parametrize("kind", CONFIG_KINDS)
def test_cache_after_rollback_and_append_is_bit_identical(kind):
    # Two caches take the same calls, but their rejected rows hold other
    # tokens; after the rollback and the next append, nothing of those rows
    # is left. The block at positions 6-11 crosses the DCA chunk boundary
    # at 8, and the rollback to 8 drops exactly the rows past it.
    w, cfg = _small_model("dense")
    cfg = _configured(cfg, kind, chunk=8, window=3)
    prompt, accepted, after = [3, 1, 4, 1, 5, 9], [2, 6], [5, 3, 5]
    rotary = _rotary(cfg, 20)
    caches, logits = [], []
    for rejected in ([8, 9, 7, 9], [100, 200, 7, 12]):
        cache = KvCache(cfg.n_layers, capacity=20)
        _blocks(w, cfg, prompt, cache, rotary)
        _blocks(w, cfg, accepted + rejected, cache, rotary)
        cache._truncate(len(prompt) + len(accepted))
        logits.append(_logits(w, cfg, _blocks(w, cfg, after, cache, rotary)))
        caches.append(cache)
    n = len(prompt) + len(accepted) + len(after)
    for cache in caches:
        assert [cache.length(i) for i in range(cfg.n_layers)] == [n] * cfg.n_layers
    for i in range(cfg.n_layers):
        assert np.array_equal(caches[0].keys(i), caches[1].keys(i))
        assert np.array_equal(caches[0].values(i), caches[1].values(i))
    assert np.array_equal(logits[0], logits[1])
    full = forward(w, cfg, prompt + accepted + after)
    assert np.abs(logits[0] - full[-len(after):]).max() <= 1e-5


def test_continuation_without_repeats_feeds_one_row_per_token():
    # One cycle through every regular token, and a prompt taken from it:
    # no token repeats, so there is never a draft.
    _, cfg = _small_model("dense")
    order = Rng(4).permutation(cfg.regular_tokens)
    w, cfg = _successor_model("dense", _cycles(cfg, order, len(order)))
    prompt = [int(t) for t in order[:5]]
    out, calls = _decode_counting_rows(w, cfg, prompt, 12)
    assert out == [int(t) for t in order[:17]]
    assert [rows for _, rows, _ in calls] == [5] + [1] * 11
