import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff, rand_f32
from qwenkit.errors import DimensionError, ParameterError
from qwenkit.layers import AttentionParams, RopeParams, apply_rope, gqa_attention, rope_freqs
from qwenkit.longctx import DcaParams, YarnParams, dca_attention, dca_relpos, yarn_adjust
from qwenkit.ops import Rng

HEAD_RATIOS = ((14, 2), (12, 2), (28, 4), (64, 8))


class TestYarn:
    def test_scale_one_is_identity(self):
        rope = RopeParams(10_000.0, 64)
        inv, mult = yarn_adjust(rope, YarnParams(1.0, 4096))
        assert np.array_equal(inv, rope_freqs(rope))
        assert mult == 1.0

    def test_scale_four_multiplier(self):
        _, mult = yarn_adjust(RopeParams(10_000.0, 64),
                              YarnParams(4.0, 32_768))
        assert math.sqrt(mult) == pytest.approx(0.1 * math.log(4.0) + 1.0, abs=1e-9)
        assert math.sqrt(mult) == pytest.approx(1.13863, abs=1e-4)

    def test_fast_dimensions_unchanged(self):
        rope = RopeParams(10_000.0, 64)
        yarn = YarnParams(4.0, 4096)
        base = rope_freqs(rope)
        inv, _ = yarn_adjust(rope, yarn)
        wavelengths = 2.0 * np.pi / base.astype(np.float64)
        rho = yarn.native_ctx / wavelengths
        fast = rho >= yarn.beta_fast
        assert fast.any(), "fixture must include at least one fast dimension"
        assert np.array_equal(inv[fast], base[fast])

    def test_slow_dimensions_divided_by_scale(self):
        rope = RopeParams(1_000_000.0, 64)
        yarn = YarnParams(4.0, 1024)
        base = rope_freqs(rope)
        inv, _ = yarn_adjust(rope, yarn)
        wavelengths = 2.0 * np.pi / base.astype(np.float64)
        rho = yarn.native_ctx / wavelengths
        slow = rho <= yarn.beta_slow
        assert slow.any(), "fixture must include at least one slow dimension"
        assert np.allclose(inv[slow], base[slow] / yarn.scale, rtol=1e-6)

    def test_scale_below_one_rejected(self):
        with pytest.raises(ParameterError):
            YarnParams(0.5, 4096)

    def test_beta_ordering_rejected(self):
        with pytest.raises(ParameterError):
            YarnParams(2.0, 4096, beta_fast=1.0, beta_slow=2.0)


class TestDcaRelpos:
    def test_same_chunk(self):
        assert dca_relpos(5, 2, DcaParams(8)) == 3

    def test_previous_chunk_within_window(self):
        assert dca_relpos(8, 7, DcaParams(8, 4)) == 1

    def test_inter_chunk_collapses(self):
        assert dca_relpos(10, 2, DcaParams(8, 4)) == 5

    def test_ordering_violation(self):
        with pytest.raises(ParameterError):
            dca_relpos(2, 5, DcaParams(8))

    def test_default_window_is_half_chunk(self):
        assert DcaParams(8).local_window == 4
        assert DcaParams(1).local_window == 1

    def test_window_bounds_validated(self):
        with pytest.raises(ParameterError):
            DcaParams(8, 9)
        with pytest.raises(ParameterError):
            DcaParams(8, 0)

    @given(st.integers(0, 400), st.integers(0, 400), st.integers(1, 40),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_locality(self, i, j, s_c, data):
        if j > i:
            i, j = j, i
        w = data.draw(st.integers(1, s_c))
        dca = DcaParams(s_c, w)
        m = dca_relpos(i, j, dca)
        assert 0 <= m <= 2 * s_c - 1
        if i - j <= w:
            assert m == i - j


def _qkv(rng, params, seq):
    q = rand_f32(rng, params.n_q_heads, seq, params.head_dim)
    k = rand_f32(rng, params.n_kv_heads, seq, params.head_dim)
    v = rand_f32(rng, params.n_kv_heads, seq, params.head_dim)
    return q, k, v


class TestDcaAttention:
    def test_single_chunk_equals_vanilla(self):
        rope = RopeParams(10_000.0, 16)
        for nq, nkv in HEAD_RATIOS:
            params = AttentionParams(nq, nkv, 16)
            rng = Rng(nq * 100 + nkv)
            for seq in (1, 8, 64):
                q, k, v = _qkv(rng, params, seq)
                vanilla = gqa_attention(q, k, v, params, list(range(seq)), rope)
                chunked = dca_attention(q, k, v, params, DcaParams(64), rope)
                assert max_abs_diff(vanilla, chunked) <= 1e-5

    def test_causality_across_chunks(self):
        params = AttentionParams(4, 2, 16)
        rope = RopeParams(10_000.0, 16)
        dca = DcaParams(8, 4)
        rng = Rng(31)
        seq = 24
        q, k, v = _qkv(rng, params, seq)
        base = dca_attention(q, k, v, params, dca, rope)
        for t in (5, 11, 20):
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[:, t] *= -2.0
            k2[:, t] += 7.0
            v2[:, t] -= 3.0
            out = dca_attention(q2, k2, v2, params, dca, rope)
            assert np.array_equal(out[:t], base[:t])

    def test_long_sequence_rows_are_distributions(self):
        # With v = all ones, each output entry equals its softmax row sum.
        params = AttentionParams(4, 2, 16)
        rope = RopeParams(10_000.0, 16)
        s_c = 8
        seq = 4 * s_c
        rng = Rng(32)
        q = rand_f32(rng, 4, seq, 16)
        k = rand_f32(rng, 2, seq, 16)
        v = np.ones((2, seq, 16), dtype=np.float32)
        out = dca_attention(q, k, v, params, DcaParams(s_c), rope)
        assert np.isfinite(out).all()
        assert np.allclose(out, 1.0, atol=1e-5)

    def test_matches_relpos_oracle(self):
        # Per-pair logits rebuilt from dca_relpos alone must reproduce the
        # three-branch masked implementation.
        params = AttentionParams(2, 1, 16)
        rope = RopeParams(10_000.0, 16)
        dca = DcaParams(8, 4)
        seq = 27
        rng = Rng(33)
        q, k, v = _qkv(rng, params, seq)
        got = dca_attention(q, k, v, params, dca, rope)
        inv = rope_freqs(rope)
        want = np.zeros((seq, params.n_q_heads * params.head_dim))
        for h in range(params.n_q_heads):
            kv = h // params.group_size
            for i in range(seq):
                logits = []
                for j in range(i + 1):
                    m = dca_relpos(i, j, dca)
                    qr = apply_rope(q[h : h + 1, i : i + 1], [m], inv)[0, 0]
                    logits.append(float(qr @ k[kv, j]) / math.sqrt(params.head_dim))
                logits = np.array(logits)
                e = np.exp(logits - logits.max())
                p = e / e.sum()
                acc = np.zeros(params.head_dim)
                for j in range(i + 1):
                    acc += p[j] * v[kv, j].astype(np.float64)
                want[i, h * params.head_dim : (h + 1) * params.head_dim] = acc
        assert max_abs_diff(got, want) <= 1e-4

    def test_yarn_scale_one_composition_is_identity(self):
        params = AttentionParams(4, 2, 16)
        rope = RopeParams(10_000.0, 16)
        dca = DcaParams(8)
        rng = Rng(34)
        q, k, v = _qkv(rng, params, 24)
        plain = dca_attention(q, k, v, params, dca, rope)
        composed = dca_attention(q, k, v, params, dca, rope,
                                 yarn=YarnParams(1.0, 4096))
        assert np.array_equal(plain, composed)

    def test_yarn_range_too_small_rejected(self):
        params = AttentionParams(2, 2, 16)
        rope = RopeParams(10_000.0, 16)
        rng = Rng(35)
        q, k, v = _qkv(rng, params, 4)
        with pytest.raises(ParameterError):
            dca_attention(q, k, v, params, DcaParams(1024), rope,
                          yarn=YarnParams(2.0, 512))

    def test_rope_width_must_match_heads(self):
        params = AttentionParams(2, 2, 16)
        q, k, v = _qkv(Rng(35), params, 4)
        with pytest.raises(DimensionError, match="rope head_dim 8"):
            dca_attention(q, k, v, params, DcaParams(4), RopeParams(10_000.0, 8))

    def test_yarn_multiplier_applied_beyond_one_chunk(self):
        params = AttentionParams(2, 2, 16)
        rope = RopeParams(10_000.0, 16)
        dca = DcaParams(8)
        rng = Rng(36)
        q, k, v = _qkv(rng, params, 20)
        plain = dca_attention(q, k, v, params, dca, rope)
        scaled = dca_attention(q, k, v, params, dca, rope,
                               yarn=YarnParams(8.0, 64))
        assert max_abs_diff(plain, scaled) > 1e-6
