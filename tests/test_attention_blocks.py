"""Blockwise causal attention against the dense oracles.

Sequences up to 400 rows span several ATTN_BLOCK-row query blocks with a
ragged last block, and chunk sizes from 1 to 160 put chunk boundaries
inside, at and across block boundaries.
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
    cached_attention,
    gqa_attention,
)
from qwenkit.longctx import DcaParams, YarnParams, dca_attention
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


@pytest.mark.parametrize("attend", [
    lambda q, k, v, params, rope: gqa_attention(q, k, v, params, list(range(q.shape[1])), rope),
    lambda q, k, v, params, rope: dca_attention(q, k, v, params, DcaParams(160, 48), rope),
], ids=["gqa", "dca"])
def test_second_block_row_leaves_earlier_rows_bit_exact(attend):
    # Blocks are [0, 128), [128, ...) for both (the DCA chunk ends at 160);
    # row t sits in the second block, so rows 128 .. t - 1 share its block.
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
            cached_attention(cache, q, k, v, self.params, self.rope, position=0)
        assert cache.length() == 0
