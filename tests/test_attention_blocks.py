"""Blockwise causal attention against the dense oracles.

Sequences up to 400 rows span several ATTN_BLOCK-row query blocks with a
ragged last block, and chunk sizes from 1 to 160 put chunk boundaries
inside, at and across block boundaries. A cached call after a held prefix
puts the block boundaries off the multiples of ATTN_BLOCK, and so does
dual-chunk attention fed to the cache in pieces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attention_oracles import dense_dca, dense_gqa
from helpers import max_abs_diff, rand_f32
from qwenkit.errors import DimensionError
from qwenkit.layers import (
    ATTN_BLOCK,
    AttentionParams,
    KvCache,
    RopeParams,
    _cached_attention,
    cached_attention,
    gqa_attention,
)
from qwenkit.longctx import DcaParams, YarnParams, _rotary_table, dca_attention
from qwenkit.model import _split_heads
from qwenkit.ops import Rng

HEAD_DIM = 8
# (n_q_heads, n_kv_heads): group sizes 1, 2 and 4.
RATIOS = ((2, 2), (4, 2), (4, 1))


def _qkv(seed, params, seq):
    rng = Rng(seed)
    q = rand_f32(rng, params.n_q_heads, seq, params.head_dim)
    k = rand_f32(rng, params.n_kv_heads, seq, params.head_dim)
    v = rand_f32(rng, params.n_kv_heads, seq, params.head_dim)
    return q, k, v


@given(seq=st.integers(1, 400), ratio=st.sampled_from(RATIOS),
       offset=st.integers(0, 1000), scale_mult=st.sampled_from([1.0, 1.7]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gqa_matches_dense_oracle(seq, ratio, offset, scale_mult, seed):
    params = AttentionParams(*ratio, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    q, k, v = _qkv(seed, params, seq)
    positions = list(range(offset, offset + seq))
    got = gqa_attention(q, k, v, params, positions, rope, scale_mult=scale_mult)
    want = dense_gqa(q, k, v, params, positions, rope, scale_mult=scale_mult)
    assert max_abs_diff(got, want) <= 1e-5


@given(prefix=st.integers(0, 200), rows=st.integers(1, 300), ratio=st.sampled_from(RATIOS),
       scale_mult=st.sampled_from([1.0, 1.7]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cached_call_after_held_prefix_matches_dense_oracle(prefix, rows, ratio, scale_mult,
                                                            seed):
    params = AttentionParams(*ratio, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    seq = prefix + rows
    q, k, v = _qkv(seed, params, seq)
    cache = KvCache(1)
    if prefix:
        cached_attention(cache, q[:, :prefix], k[:, :prefix], v[:, :prefix], params, rope,
                         scale_mult=scale_mult)
    got = cached_attention(cache, q[:, prefix:], k[:, prefix:], v[:, prefix:], params, rope,
                           scale_mult=scale_mult)
    want = dense_gqa(q, k, v, params, list(range(seq)), rope, scale_mult=scale_mult)
    assert max_abs_diff(got, want[prefix:]) <= 1e-5


@st.composite
def _dca_params(draw):
    chunk = draw(st.integers(1, 160))
    return DcaParams(chunk, draw(st.integers(1, chunk)))


@given(seq=st.integers(1, 400), ratio=st.sampled_from(RATIOS), dca=_dca_params(),
       use_yarn=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dca_matches_dense_oracle(seq, ratio, dca, use_yarn, seed):
    params = AttentionParams(*ratio, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    yarn = YarnParams(4.0, dca.chunk_size) if use_yarn else None
    q, k, v = _qkv(seed, params, seq)
    got = dca_attention(q, k, v, params, dca, rope, yarn)
    want = dense_dca(q, k, v, params, dca, rope, yarn)
    assert max_abs_diff(got, want) <= 1e-5


@given(data=st.data(), seq=st.integers(1, 400), ratio=st.sampled_from(RATIOS),
       dca=_dca_params(), use_yarn=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dca_kernel_fed_in_pieces_matches_dense_oracle(data, seq, ratio, dca, use_yarn, seed):
    # Pieces may straddle chunks; the last few rows come one at a time, as
    # in decoding.
    params = AttentionParams(*ratio, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    yarn = YarnParams(4.0, dca.chunk_size) if use_yarn else None
    q, k, v = _qkv(seed, params, seq)
    one_rows = data.draw(st.integers(0, min(seq - 1, 20)))
    cuts = data.draw(st.sets(st.integers(1, seq), max_size=5)) | set(range(seq - one_rows, seq))
    bounds = [0, *sorted(cuts - {0, seq}), seq]
    cos, sin, scale_mult = _rotary_table(rope, yarn, dca, seq)
    cache = KvCache(1)
    got = np.concatenate([
        _cached_attention(cache, q[:, a:b], k[:, a:b], v[:, a:b], params, cos, sin, 0,
                          scale_mult, dca)
        for a, b in zip(bounds, bounds[1:])])
    want = dense_dca(q, k, v, params, dca, rope, yarn)
    assert max_abs_diff(got, want) <= 1e-5


def _cached_after_prefix(q, k, v, params, rope, prefix=5):
    """Rows 0 .. prefix - 1 held in a cache, then the rest in one cached call."""
    cache = KvCache(1)
    head = cached_attention(cache, q[:, :prefix], k[:, :prefix], v[:, :prefix], params, rope)
    tail = cached_attention(cache, q[:, prefix:], k[:, prefix:], v[:, prefix:], params, rope)
    return np.concatenate([head, tail])


@pytest.mark.parametrize("attend", [
    lambda q, k, v, params, rope: gqa_attention(q, k, v, params, list(range(q.shape[1])), rope),
    lambda q, k, v, params, rope: dca_attention(q, k, v, params, DcaParams(160, 48), rope),
    _cached_after_prefix,
], ids=["gqa", "dca", "cached"])
def test_second_block_row_leaves_earlier_rows_bit_exact(attend):
    # Blocks are [0, 128), [128, ...) for gqa and dca (the DCA chunk ends at
    # 160); row t sits in the second block, so rows 128 .. t - 1 share its
    # block. After the 5 held rows the cached call's blocks are [5, 133),
    # [133, 261), ...; row t shares the second with rows 133 .. t - 1.
    params = AttentionParams(4, 2, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)
    seq, t = 300, ATTN_BLOCK + 12
    q, k, v = _qkv(7, params, seq)
    base = attend(q, k, v, params, rope)
    q[:, t] *= -2.0
    k[:, t] += 5.0
    v[:, t] -= 3.0
    out = attend(q, k, v, params, rope)
    assert np.array_equal(out[:t], base[:t])
    assert not np.array_equal(out[t], base[t])


@pytest.mark.parametrize("dca", [None, DcaParams(64, 16)], ids=["vanilla", "dca"])
@pytest.mark.parametrize("rows", [1, 5, 200])
def test_strided_head_views_match_contiguous_copies(dca, rows):
    # The block loop hands the kernel [heads, rows, head_dim] views of
    # [rows, heads * head_dim] projections. After 70 held rows (past the
    # first DCA chunk) the call's rows score against an earlier chunk, and
    # 200 rows cross three more chunk boundaries.
    params = AttentionParams(4, 2, HEAD_DIM)
    prefix, total = 70, 70 + rows
    rng = Rng(11)
    proj = [rand_f32(rng, total, n * HEAD_DIM)
            for n in (params.n_q_heads, params.n_kv_heads, params.n_kv_heads)]
    cos, sin, _ = _rotary_table(RopeParams(10_000.0, HEAD_DIM), None, dca, total)

    def run(contiguous):
        cache = KvCache(1, capacity=total)
        outs = []
        for a, b in ((0, prefix), (prefix, total)):
            q, k, v = (_split_heads(x[a:b], x.shape[1] // HEAD_DIM, HEAD_DIM) for x in proj)
            assert q.flags.c_contiguous == (b - a == 1)
            if contiguous:
                q, k, v = map(np.ascontiguousarray, (q, k, v))
            outs.append(_cached_attention(cache, q, k, v, params, cos, sin, 0, 1.0, dca))
        return outs, cache.keys(), cache.values()

    (views_out, *views_cache), (copies_out, *copies_cache) = run(False), run(True)
    for got, want in zip([*views_out, *views_cache], [*copies_out, *copies_cache]):
        assert np.array_equal(got, want)


class TestEmptySequence:
    params = AttentionParams(4, 2, HEAD_DIM)
    rope = RopeParams(10_000.0, HEAD_DIM)

    def test_gqa_attention(self):
        q, k, v = _qkv(1, self.params, 0)
        with pytest.raises(DimensionError, match="empty sequence"):
            gqa_attention(q, k, v, self.params, [], self.rope)

    def test_dca_attention(self):
        q, k, v = _qkv(1, self.params, 0)
        with pytest.raises(DimensionError, match="empty sequence"):
            dca_attention(q, k, v, self.params, DcaParams(8), self.rope)

    def test_cached_attention(self):
        q, k, v = _qkv(1, self.params, 0)
        cache = KvCache(1)
        with pytest.raises(DimensionError, match="empty sequence"):
            cached_attention(cache, q, k, v, self.params, self.rope)
        assert cache.length() == 0
