import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_f32
from qwenkit.errors import DimensionError, ParameterError
from qwenkit.ops import Rng, matmul, sample_normal, silu, softmax_rows


class TestMatmul:
    def test_identity(self):
        x = np.array([[2.0, -1.0], [0.5, 3.0]], dtype=np.float32)
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), x), x)

    def test_hand_arithmetic(self):
        out = matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert np.array_equal(out, np.array([[19, 22], [43, 50]], dtype=np.float32))

    def test_zero_matrix(self):
        x = rand_f32(Rng(1), 3, 3)
        assert np.array_equal(matmul(np.zeros((3, 3)), x), np.zeros((3, 3), dtype=np.float32))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_associativity_within_tolerance(self):
        rng = Rng(7)
        a = rand_f32(rng, 8, 8).clip(-1, 1)
        b = rand_f32(rng, 8, 8).clip(-1, 1)
        c = rand_f32(rng, 8, 8).clip(-1, 1)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) <= 1e-4

    def test_float32_output(self):
        assert matmul([[1.0]], [[1.0]]).dtype == np.float32


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = softmax_rows([[4.2, 4.2, 4.2]])
        assert np.allclose(out, 1.0 / 3.0, atol=1e-7)

    def test_closed_form_ln2(self):
        out = softmax_rows([[0.0, math.log(2.0)]])
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-6)

    def test_shift_invariance(self):
        x = rand_f32(Rng(3), 4, 6)
        assert np.allclose(softmax_rows(x), softmax_rows(x + 5.0), atol=1e-6)

    def test_large_magnitude_stability(self):
        x = np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]], dtype=np.float32)
        out = softmax_rows(x)
        assert np.isfinite(out).all()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_empty_row_is_error(self):
        with pytest.raises(DimensionError):
            softmax_rows(np.zeros((2, 0), dtype=np.float32))

    @given(st.lists(st.lists(st.floats(-1e4, 1e4, width=32), min_size=1, max_size=8),
                    min_size=1, max_size=8).filter(lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows, dtype=np.float32))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestSilu:
    def test_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_one(self):
        assert silu(np.array([1.0]))[0] == pytest.approx(1.0 / (1.0 + math.exp(-1)), abs=1e-6)

    def test_asymptote(self):
        assert silu(np.array([30.0]))[0] == pytest.approx(30.0, rel=1e-6)

    def test_large_negative_is_finite(self):
        assert np.isfinite(silu(np.array([-200.0, -30.0]))).all()


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(123).uint64s(64), Rng(123).uint64s(64))

    def test_known_splitmix64_vector(self):
        # Reference stream for seed 0 (splitmix64 test vector).
        assert Rng(0).next_uint64() == 0xE220A8397B1DCDAF

    def test_chunked_draws_match_bulk(self):
        bulk = Rng(9).uint64s(10)
        rng = Rng(9)
        parts = np.concatenate([rng.uint64s(3), rng.uint64s(1), rng.uint64s(6)])
        assert np.array_equal(bulk, parts)

    def test_normals_chunking_consistent(self):
        # Pair structure: draws in even-sized chunks tile the same stream.
        bulk = Rng(4).normals(8)
        rng = Rng(4)
        parts = np.concatenate([rng.normals(4), rng.normals(4)])
        assert np.array_equal(bulk, parts)

    def test_permutation_is_permutation(self):
        perm = Rng(11).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))
        assert np.array_equal(perm, Rng(11).permutation(50))

    @pytest.mark.parametrize("n, want", [(0, []), (1, [0]), (2, [0, 1]), (3, [2, 0, 1])])
    def test_permutation_pinned_small(self, n, want):
        perm = Rng(2024).permutation(n)
        assert perm.dtype == np.int64
        assert perm.tolist() == want

    def test_permutation_pinned_stream(self):
        # The draw order is part of the seeding contract: this digest was
        # recorded from the original numpy-scalar Fisher-Yates loop.
        rng = Rng(2024)
        perm = rng.permutation(513)
        assert perm.dtype == np.int64
        assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == (
            "fb4549f9673c7a2ebbde8ad9719a0f6567f6e4552bac9eba9ed4c675f06fcfb4"
        )
        after = Rng(2024)
        after.uint64s(512)  # one raw draw per swap
        assert rng.next_uint64() == after.next_uint64()

    def test_uniforms_in_unit_interval(self):
        u = Rng(2).uniforms(1000)
        assert (u >= 0).all() and (u < 1).all()


class TestSampleNormal:
    def test_deterministic(self):
        a = sample_normal(Rng(5), 100, 0.0, 0.02)
        b = sample_normal(Rng(5), 100, 0.0, 0.02)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_law_of_large_numbers(self):
        n, std = 100_000, 0.02
        x = sample_normal(Rng(0), n, 0.0, std)
        assert abs(float(x.mean())) <= 3.0 * std / math.sqrt(n)
        assert abs(float(x.std()) - std) <= 0.02 * std

    def test_zero_std_is_constant(self):
        x = sample_normal(Rng(1), 10, 1.5, 0.0)
        assert np.array_equal(x, np.full(10, 1.5, dtype=np.float32))

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            sample_normal(Rng(0), 4, 0.0, -1.0)

    def test_nonzero_mean(self):
        x = sample_normal(Rng(3), 50_000, 2.0, 0.1)
        assert abs(float(x.mean()) - 2.0) < 0.01
