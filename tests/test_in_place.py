"""The in-place block loop against its allocating oracle, and the inputs
it must leave alone.

The kernels of ``layers``, ``ops`` and ``model`` scale, mask and softmax
attention scores in one buffer per call, and normalise, gate and add the
residuals in place. ``block_oracles`` keeps the forms that allocate a
fresh array for every step; the two must agree bit for bit over dense,
dual-chunk and MoE models, lengths that straddle query blocks and chunks,
cached prefixes and one-row calls. No public function may write to an
array it was given.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_oracles as ref
from helpers import rand_f32
from test_attention_blocks import HEAD_DIM, RATIOS, _qkv
from test_model import _seeded_ids, _small_model, _with_dca
from qwenkit.layers import (
    ATTN_BLOCK,
    AttentionParams,
    KvCache,
    RopeParams,
    _cached_attention,
    cached_attention,
    gqa_attention,
    rms_norm,
    swiglu_ffn,
)
from qwenkit.longctx import DcaParams, YarnParams, _rotary_table
from qwenkit.model import _blocks, _rotary, _tensors, forward, greedy_decode
from qwenkit.moe import moe_forward
from qwenkit.ops import Rng, softmax_rows


@st.composite
def _model(draw):
    """A small dense, MoE or dual-chunk model (chunk 1-160, YaRN on or off)."""
    variant = draw(st.sampled_from(["dense", "moe", "dca"]))
    w, cfg = _small_model("dense" if variant == "dca" else variant)
    if variant == "dca":
        cfg = draw(_with_dca(cfg))
    return w, cfg


def _held(cache, layers):
    return [(cache.keys(li).copy(), cache.values(li).copy()) for li in range(layers)]


def _same_cache(a, b, layers):
    return all(np.array_equal(ka, kb) and np.array_equal(va, vb)
               for (ka, va), (kb, vb) in zip(_held(a, layers), _held(b, layers)))


@given(st.data(), _model(), st.integers(1, 2 * ATTN_BLOCK + 40))
@settings(max_examples=40, deadline=None)
def test_forward_matches_allocating_oracle(data, model, n):
    w, cfg = model
    ids = _seeded_ids(data, cfg, n)
    assert np.array_equal(forward(w, cfg, ids), ref.forward(w, cfg, ids))


@given(st.data(), _model())
@settings(max_examples=40, deadline=None)
def test_blocks_after_cached_prefix_match_oracle(data, model):
    # A prefill, a second multi-row call that puts the query blocks off the
    # multiples of ATTN_BLOCK, then one-row calls, as greedy_decode feeds them.
    w, cfg = model
    prefix = data.draw(st.integers(1, ATTN_BLOCK + 40))
    rows = data.draw(st.integers(1, ATTN_BLOCK + 40))
    steps = data.draw(st.integers(0, 4))
    ids = _seeded_ids(data, cfg, prefix + rows + steps)
    calls = [ids[:prefix], ids[prefix:prefix + rows]] + [[t] for t in ids[prefix + rows:]]
    rotary = _rotary(cfg, len(ids))
    got_cache, want_cache = KvCache(cfg.n_layers), KvCache(cfg.n_layers)
    for call in calls:
        got = _blocks(w, cfg, call, got_cache, rotary)
        want = ref.blocks(w, cfg, call, want_cache, rotary)
        assert np.array_equal(got, want)
    assert _same_cache(got_cache, want_cache, cfg.n_layers)


@given(st.data(), st.sampled_from(RATIOS), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cached_attention_matches_oracle(data, ratio, use_dca, seed):
    params = AttentionParams(*ratio, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    dca = yarn = None
    if use_dca:
        chunk = data.draw(st.integers(1, 160))
        dca = DcaParams(chunk, data.draw(st.integers(1, chunk)))
        yarn = YarnParams(4.0, chunk) if data.draw(st.booleans()) else None
    prefix = data.draw(st.integers(0, 200))
    rows = data.draw(st.sampled_from([1, data.draw(st.integers(1, 300))]))
    seq = prefix + rows
    q, k, v = _qkv(seed, params, seq)
    cos, sin, scale_mult = _rotary_table(rope, yarn, dca, seq)
    caches = KvCache(1), KvCache(1)
    for a, b in ((0, prefix), (prefix, seq)):
        if a == b:
            continue
        got, want = (attend(cache, q[:, a:b], k[:, a:b], v[:, a:b], params, cos, sin, 0,
                            scale_mult, dca)
                     for attend, cache in zip((_cached_attention, ref.cached_attention), caches))
        assert np.array_equal(got, want)
    assert _same_cache(*caches, 1)


def _arrays(args):
    return [a for a in args if isinstance(a, np.ndarray)]


def _assert_untouched(call, *args, weights=None):
    """Run ``call(*args)`` and check that every array among ``args``, and
    every tensor of ``weights``, still holds its bytes."""
    held = [a.copy() for a in _arrays(args)]
    tensors = {} if weights is None else {n: t.copy() for n, t in _tensors(weights).items()}
    call(*args)
    for before, after in zip(held, _arrays(args)):
        assert np.array_equal(before, after)
    if weights is not None:
        after = _tensors(weights)
        assert after.keys() == tensors.keys()
        for name, t in tensors.items():
            assert np.array_equal(t, after[name]), name


@pytest.mark.parametrize("rows", [1, 5])
def test_public_kernels_leave_inputs_untouched(rows):
    rng = Rng(7)
    x = rand_f32(rng, rows, 16)
    _assert_untouched(rms_norm, x, rand_f32(rng, 16))
    _assert_untouched(rms_norm, x[0], rand_f32(rng, 16))
    _assert_untouched(softmax_rows, x)
    _assert_untouched(swiglu_ffn, x, rand_f32(rng, 24, 16), rand_f32(rng, 24, 16),
                      rand_f32(rng, 16, 24))


@pytest.mark.parametrize("rows", [1, 5, ATTN_BLOCK + 3])
def test_attention_leaves_inputs_untouched(rows):
    params = AttentionParams(4, 2, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    q, k, v = _qkv(8, params, rows)
    _assert_untouched(lambda *a: gqa_attention(*a, list(range(rows)), rope), q, k, v, params)
    _assert_untouched(lambda *a: cached_attention(KvCache(1), *a, rope),
                      q, k, v, params)


@pytest.mark.parametrize("rows", [1, 5])
def test_moe_forward_leaves_inputs_untouched(rows):
    w, cfg = _small_model("moe")
    bank = w.layers[0].moe_bank
    x = rand_f32(Rng(9), rows, cfg.hidden)
    _assert_untouched(lambda x: moe_forward(x, cfg.moe, bank), x, weights=w)
    _assert_untouched(lambda x: moe_forward(x, cfg.moe, bank), x[0], weights=w)


@pytest.mark.parametrize("variant", ["dense", "moe", "dca"])
def test_model_calls_leave_weights_untouched(variant):
    w, cfg = _small_model("dense" if variant == "dca" else variant)
    if variant == "dca":
        cfg = replace(cfg, dca=DcaParams(32, 8))
    ids = [int(t) % cfg.regular_tokens for t in Rng(10).uint64s(ATTN_BLOCK + 20)]
    held = list(ids)
    _assert_untouched(lambda: forward(w, cfg, ids), weights=w)
    _assert_untouched(lambda: forward(w, cfg, ids[:1]), weights=w)
    _assert_untouched(lambda: greedy_decode(w, cfg, ids[:40], 12), weights=w)
    assert ids == held
