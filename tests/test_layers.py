import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff, rand_f32
from qwenkit.errors import DimensionError, ParameterError, StateError
from qwenkit.layers import (
    AttentionParams,
    KvCache,
    RopeParams,
    apply_rope,
    cached_attention,
    decode_step,
    gqa_attention,
    rms_norm,
    rope_freqs,
    swiglu_ffn,
)
from qwenkit.ops import Rng


# --- independent reference implementations ------------------------------------


def ref_rotate(vec, position, base):
    """Rotate one head vector pairwise with scalar math; no shared code path."""
    out = np.zeros_like(vec, dtype=np.float64)
    half = len(vec) // 2
    for i in range(half):
        angle = position * base ** (-2.0 * i / len(vec))
        c, s = math.cos(angle), math.sin(angle)
        out[2 * i] = vec[2 * i] * c - vec[2 * i + 1] * s
        out[2 * i + 1] = vec[2 * i] * s + vec[2 * i + 1] * c
    return out


def ref_mha(q, k, v, base, positions):
    """Head-by-head causal attention written as plain loops."""
    n_heads, seq, hd = q.shape
    out = np.zeros((seq, n_heads * hd))
    for h in range(n_heads):
        qr = np.stack([ref_rotate(q[h, t], positions[t], base) for t in range(seq)])
        kr = np.stack([ref_rotate(k[h, t], positions[t], base) for t in range(seq)])
        for i in range(seq):
            logits = np.array([qr[i] @ kr[j] / math.sqrt(hd) for j in range(i + 1)])
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            acc = np.zeros(hd)
            for j in range(i + 1):
                acc += p[j] * v[h, j].astype(np.float64)
            out[i, h * hd : (h + 1) * hd] = acc
    return out


class TestRmsNorm:
    def test_three_four(self):
        out = rms_norm(np.array([3.0, 4.0]), np.ones(2), eps=0.0)
        assert np.allclose(out, [0.84853, 1.13137], atol=1e-5)

    def test_zero_gamma(self):
        out = rms_norm(rand_f32(Rng(0), 4, 8), np.zeros(8), eps=0.0)
        assert np.array_equal(out, np.zeros((4, 8), dtype=np.float32))

    def test_constant_vector_normalizes_to_ones(self):
        out = rms_norm(np.full(16, 2.5), np.ones(16), eps=0.0)
        assert np.allclose(out, 1.0, atol=1e-6)

    def test_gamma_length_mismatch(self):
        with pytest.raises(DimensionError):
            rms_norm(np.zeros(4), np.ones(3), eps=1e-6)

    def test_batched_rows_match_single(self):
        x = rand_f32(Rng(2), 3, 8)
        gamma = rand_f32(Rng(3), 8)
        batched = rms_norm(x, gamma)
        for t in range(3):
            assert np.allclose(batched[t], rms_norm(x[t], gamma), atol=1e-7)


class TestSwiglu:
    def test_zero_input(self):
        rng = Rng(1)
        out = swiglu_ffn(np.zeros(4), rand_f32(rng, 8, 4), rand_f32(rng, 8, 4),
                         rand_f32(rng, 4, 8))
        assert np.array_equal(out, np.zeros(4, dtype=np.float32))

    def test_zero_down_projection(self):
        rng = Rng(2)
        out = swiglu_ffn(rand_f32(rng, 4), rand_f32(rng, 8, 4), rand_f32(rng, 8, 4),
                         np.zeros((4, 8)))
        assert np.array_equal(out, np.zeros(4, dtype=np.float32))

    def test_scalar_closed_form(self):
        out = swiglu_ffn(np.ones(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-1)), abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            swiglu_ffn(np.zeros(4), np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((4, 7)))

    def test_one_dimensional_weights_rejected(self):
        with pytest.raises(DimensionError):
            swiglu_ffn(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))


class TestRope:
    def test_freqs_base_10000_dim4(self):
        assert np.allclose(rope_freqs(RopeParams(10_000.0, 4)), [1.0, 0.01], atol=1e-9)

    def test_freqs_base_one(self):
        assert np.array_equal(rope_freqs(RopeParams(1.0, 8)),
                              np.ones(4, dtype=np.float32))

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ParameterError):
            RopeParams(10_000.0, 5)

    def test_position_zero_is_identity(self):
        x = rand_f32(Rng(4), 2, 3, 8)
        out = apply_rope(x, [0, 5, 9], rope_freqs(RopeParams(10_000.0, 8)))
        assert np.array_equal(out[:, 0, :], x[:, 0, :])

    def test_norm_preserved(self):
        x = rand_f32(Rng(5), 3, 7, 16)
        out = apply_rope(x, list(range(7)), rope_freqs(RopeParams(10_000.0, 16)))
        assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1),
                           atol=1e-5)

    def test_relative_position_oracle(self):
        rng = Rng(6)
        inv = rope_freqs(RopeParams(10_000.0, 16))
        for _ in range(100):
            q = rand_f32(rng, 1, 1, 16)
            k = rand_f32(rng, 1, 1, 16)
            m = int(rng.uint64s(1)[0] % 32)
            n = int(rng.uint64s(1)[0] % (m + 1))
            base_dot = float(apply_rope(q, [m], inv)[0, 0] @ apply_rope(k, [n], inv)[0, 0])
            for t in (1, 5, 17):
                shifted = float(apply_rope(q, [m + t], inv)[0, 0]
                                @ apply_rope(k, [n + t], inv)[0, 0])
                assert abs(base_dot - shifted) <= 1e-4

    def test_positions_length_mismatch(self):
        with pytest.raises(DimensionError):
            apply_rope(np.zeros((1, 3, 4)), [0, 1], rope_freqs(RopeParams(10.0, 4)))

    def test_negative_position_rejected(self):
        with pytest.raises(ParameterError):
            apply_rope(np.zeros((1, 1, 4)), [-1], rope_freqs(RopeParams(10.0, 4)))


class TestGqaAttention:
    def test_matches_mha_reference(self):
        rng = Rng(10)
        for trial in range(50):
            heads = (1, 2, 4)[trial % 3]
            hd = (4, 8, 16)[trial % 3]
            seq = 1 + trial % 12
            params = AttentionParams(heads, heads, hd)
            q = rand_f32(rng, heads, seq, hd)
            k = rand_f32(rng, heads, seq, hd)
            v = rand_f32(rng, heads, seq, hd)
            got = gqa_attention(q, k, v, params, list(range(seq)), RopeParams(10_000.0, hd))
            want = ref_mha(q, k, v, 10_000.0, list(range(seq)))
            assert max_abs_diff(got, want) <= 1e-5

    def test_single_token_returns_values(self):
        rng = Rng(11)
        params = AttentionParams(4, 2, 8)
        q = rand_f32(rng, 4, 1, 8)
        k = rand_f32(rng, 2, 1, 8)
        v = rand_f32(rng, 2, 1, 8)
        out = gqa_attention(q, k, v, params, [0], RopeParams(10_000.0, 8))
        # softmax over one logit is 1: each query head returns its kv head's value row
        for h in range(4):
            assert np.allclose(out[0, h * 8 : (h + 1) * 8], v[h // 2, 0], atol=1e-6)

    def test_published_7b_grouping(self):
        params = AttentionParams(28, 4, 128)
        assert params.group_size == 7

    def test_kv_memory_footprint(self):
        # 7B layout: 4 KV heads of width 128 cache 512 values per token per
        # tensor, versus 3584 had all 28 query heads carried their own.
        params = AttentionParams(28, 4, 128)
        assert params.kv_values_per_token == 512
        assert params.q_values_per_token == 3584

    def test_head_indivisibility_rejected(self):
        with pytest.raises(ParameterError):
            AttentionParams(6, 4, 8)

    def test_causality_exact(self):
        rng = Rng(12)
        params = AttentionParams(4, 2, 8)
        seq = 10
        q = rand_f32(rng, 4, seq, 8)
        k = rand_f32(rng, 2, seq, 8)
        v = rand_f32(rng, 2, seq, 8)
        rope = RopeParams(10_000.0, 8)
        base = gqa_attention(q, k, v, params, list(range(seq)), rope)
        for t in (3, 7, 9):
            k2, v2, q2 = k.copy(), v.copy(), q.copy()
            k2[:, t] += 11.0
            v2[:, t] -= 5.0
            q2[:, t] *= -3.0
            out = gqa_attention(q2, k2, v2, params, list(range(seq)), rope)
            assert np.array_equal(out[:t], base[:t])

    def test_scale_mult_scales_logits(self):
        rng = Rng(13)
        params = AttentionParams(2, 2, 8)
        q = rand_f32(rng, 2, 4, 8)
        k = rand_f32(rng, 2, 4, 8)
        v = rand_f32(rng, 2, 4, 8)
        rope = RopeParams(10_000.0, 8)
        a = gqa_attention(q, k, v, params, list(range(4)), rope, scale_mult=2.0)
        b = gqa_attention(2.0 * q, k, v, params, list(range(4)), rope)
        assert max_abs_diff(a, b) <= 1e-5


class TestKvCache:
    def _setup(self, seed=20, seq=16, nq=4, nkv=2, hd=16):
        rng = Rng(seed)
        params = AttentionParams(nq, nkv, hd)
        rope = RopeParams(10_000.0, hd)
        q = rand_f32(rng, nq, seq, hd)
        k = rand_f32(rng, nkv, seq, hd)
        v = rand_f32(rng, nkv, seq, hd)
        return params, rope, q, k, v

    def test_incremental_equals_full(self):
        for nq, nkv in ((14, 2), (12, 2), (28, 4), (64, 8)):
            params, rope, q, k, v = self._setup(seed=nq, seq=32, nq=nq, nkv=nkv, hd=16)
            full = gqa_attention(q, k, v, params, list(range(32)), rope)
            cache = KvCache(1)
            for t in range(32):
                out, cache = decode_step(cache, q[:, t], k[:, t], v[:, t], params,
                                         rope, position=t)
                assert max_abs_diff(out, full[t]) <= 1e-5

    def test_cache_grows_by_one(self):
        params, rope, q, k, v = self._setup()
        cache = KvCache(1)
        for t in range(5):
            assert cache.length() == t
            _, cache = decode_step(cache, q[:, t], k[:, t], v[:, t], params, rope,
                                   position=t)
            assert cache.length() == t + 1

    def test_first_step_equals_length_one_attention(self):
        params, rope, q, k, v = self._setup()
        out, _ = decode_step(KvCache(1), q[:, 0], k[:, 0], v[:, 0], params, rope,
                             position=0)
        full = gqa_attention(q[:, :1], k[:, :1], v[:, :1], params, [0], rope)
        assert max_abs_diff(out, full[0]) <= 1e-6

    def test_non_contiguous_position_rejected(self):
        params, rope, q, k, v = self._setup()
        cache = KvCache(1)
        with pytest.raises(StateError):
            decode_step(cache, q[:, 0], k[:, 0], v[:, 0], params, rope, position=3)

    def test_cache_stores_kv_head_count(self):
        params, rope, q, k, v = self._setup()
        cache = KvCache(1)
        _, cache = decode_step(cache, q[:, 0], k[:, 0], v[:, 0], params, rope,
                               position=0)
        assert cache.keys().shape == (2, 1, 16)
        assert cache.keys().size == params.kv_values_per_token

    def test_layers_are_independent(self):
        params, rope, q, k, v = self._setup()
        cache = KvCache(2)
        _, cache = decode_step(cache, q[:, 0], k[:, 0], v[:, 0], params, rope,
                               position=0, layer=0)
        assert cache.length(0) == 1
        assert cache.length(1) == 0

    @pytest.mark.parametrize("bounds", [(0, 32), (0, 1, 32), (0, 5, 6, 19, 32), (0, 31, 32)])
    def test_chunked_equals_full(self, bounds):
        params, rope, q, k, v = self._setup(seq=32, nq=6, nkv=2)
        full = gqa_attention(q, k, v, params, list(range(32)), rope)
        cache = KvCache(1)
        for a, b in zip(bounds, bounds[1:]):
            out = cached_attention(cache, q[:, a:b], k[:, a:b], v[:, a:b], params, rope,
                                   position=a)
            assert max_abs_diff(out, full[a:b]) <= 1e-5
        assert cache.length() == 32

    def test_growth_keeps_contents(self):
        rng = Rng(21)
        blocks = [rand_f32(rng, 2, rows, 8) for rows in (3, 1, 6)]
        cache = KvCache(2, capacity=2)
        for t in blocks:
            cache._append(t, -t, layer=1)
        assert cache.capacity == 12  # 2 -> 3 (first block) -> 6 -> 12
        held = np.concatenate(blocks, axis=1)
        assert cache.keys(1).shape == (2, 10, 8)
        assert np.array_equal(cache.keys(1), held)
        assert np.array_equal(cache.values(1), -held)
        assert cache.length(0) == 0
        assert not cache.keys(1).flags.writeable

    def _held_cache(self):
        """A cache holding 3 positions of 2 KV heads of width 8."""
        params, rope, q, k, v = self._setup(nq=2, nkv=2, hd=8)
        cache = KvCache(1)
        cached_attention(cache, q[:, :3], k[:, :3], v[:, :3], params, rope, position=0)
        return cache

    # Entries of 1 KV head, and of 2 KV heads of width 4, against a cache
    # of 2 heads of width 8, through both entry points.
    @pytest.mark.parametrize("nkv, hd", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("one_row", [False, True], ids=["cached_attention", "decode_step"])
    def test_mismatched_cache_left_unchanged(self, nkv, hd, one_row):
        cache = self._held_cache()
        params, rope, q, k, v = self._setup(seq=1, nq=2, nkv=nkv, hd=hd)
        with pytest.raises(DimensionError, match="cache holds 2 heads of width 8"):
            if one_row:
                decode_step(cache, q[:, 0], k[:, 0], v[:, 0], params, rope, position=3)
            else:
                cached_attention(cache, q, k, v, params, rope, position=3)
        assert cache.length() == 3

    # One-row entries of another rank, head count or width, as (entry,
    # shape); the others keep [heads, head_dim] of the held cache's layout.
    @pytest.mark.parametrize("entry, shape", [
        ("q", ()), ("q", (2,)), ("q", (2, 1, 8)), ("k", ()), ("k", (2,)),
        ("v", (2, 1, 8)), ("q", (3, 8)), ("q", (2, 4)), ("v", (2, 4)),
    ], ids=["q-0d", "q-1d", "q-3d", "k-0d", "k-1d", "v-3d", "q-heads", "q-width", "v-width"])
    def test_malformed_one_row_entries_rejected(self, entry, shape):
        cache = self._held_cache()
        params, rope, q, k, v = self._setup(seq=1, nq=2, nkv=2, hd=8)
        entries = {"q": q[:, 0], "k": k[:, 0], "v": v[:, 0]}
        entries[entry] = np.ones(shape, np.float32)
        with pytest.raises(DimensionError):
            decode_step(cache, entries["q"], entries["k"], entries["v"], params, rope,
                        position=3)
        assert cache.length() == 3

    @pytest.mark.parametrize("layer", [3, 1, -1])
    def test_out_of_range_layer_rejected(self, layer):
        params, rope, q, k, v = self._setup()
        cache = KvCache(1)
        with pytest.raises(ParameterError):
            decode_step(cache, q[:, 0], k[:, 0], v[:, 0], params, rope, position=0,
                        layer=layer)
        assert cache.length(0) == 0


@given(st.integers(0, 500), st.integers(2, 64))
@settings(max_examples=40, deadline=None)
def test_rope_rotation_preserves_norm_property(position, half_dim):
    hd = 2 * half_dim
    x = rand_f32(Rng(position + hd), 1, 1, hd)
    out = apply_rope(x, [position], rope_freqs(RopeParams(10_000.0, hd)))
    assert np.linalg.norm(out) == pytest.approx(float(np.linalg.norm(x)), abs=1e-4)
