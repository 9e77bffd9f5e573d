import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ops_oracles
from helpers import rand_f32
from qwenkit import ModelConfig, build_model
from qwenkit.errors import DimensionError, ParameterError
from qwenkit.model import _tensors
from qwenkit.ops import _NORMAL_SLICE, Rng, _items, sample_normal, silu, softmax_rows


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
        assert int(Rng(0).uint64s(1)[0]) == 0xE220A8397B1DCDAF

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
        assert rng.uint64s(1)[0] == after.uint64s(1)[0]

    def test_uniforms_in_unit_interval(self):
        # The uniforms of the Box-Muller oracle, from the raw draws of Rng.
        u = ops_oracles.RefRng(2).uniforms(1000)
        assert np.array_equal(u, (Rng(2).uint64s(1000) >> np.uint64(11)) * 2.0**-53)
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


# Differential tests against the one-shot draws and the swap loop in
# ops_oracles: same values, bit for bit, and the stream left at the same
# position (the next raw draw agrees).

def _same_next_draw(rng: Rng, ref: ops_oracles.RefRng) -> bool:
    return rng.uint64s(1)[0] == ref.uint64s(1)[0]


SEEDS = st.integers(0, 2**64 - 1)


class TestRngMatchesOracle:
    @given(st.integers(0, 3000), SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_permutation_matches_swap_loop(self, n, seed):
        rng, ref = Rng(seed), ops_oracles.RefRng(seed)
        perm = rng.permutation(n)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, ref.permutation(n))
        assert _same_next_draw(rng, ref)

    @pytest.mark.parametrize("n", [24_576, 100_003])
    @pytest.mark.parametrize("seed", [0, 20240711, 2**64 - 1])
    def test_permutation_matches_swap_loop_large(self, n, seed):
        rng, ref = Rng(seed), ops_oracles.RefRng(seed)
        assert np.array_equal(rng.permutation(n), ref.permutation(n))
        assert _same_next_draw(rng, ref)

    @given(st.integers(0, 5000), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_raw_draws_match(self, n, seed):
        rng, ref = Rng(seed), ops_oracles.RefRng(seed)
        assert np.array_equal(rng.uint64s(n), ref.uint64s(n))
        assert _same_next_draw(rng, ref)

    COUNTS = [0, 1, 2, 7, _NORMAL_SLICE - 1, _NORMAL_SLICE, _NORMAL_SLICE + 1,
              3 * _NORMAL_SLICE + 5, 4 * _NORMAL_SLICE]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("mean, std", [(0.0, 0.02), (1.5, 0.0), (-2.0, 3.0)])
    def test_sample_normal_matches_one_shot(self, count, mean, std):
        rng, ref = Rng(77), ops_oracles.RefRng(77)
        got = sample_normal(rng, count, mean, std)
        want = ops_oracles.sample_normal(ref, count, mean, std)
        assert got.dtype == np.float32 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert _same_next_draw(rng, ref)

    @pytest.mark.parametrize("count", COUNTS)
    def test_normals_match_one_shot(self, count):
        rng, ref = Rng(2**63 + 3), ops_oracles.RefRng(2**63 + 3)
        assert rng.normals(count).tobytes() == ref.normals(count).tobytes()
        assert _same_next_draw(rng, ref)


# The benchmark's mid-size model (perfbench/inputs.py MODEL).
BENCH_MODEL = dict(hidden=256, n_layers=4, n_q_heads=8, n_kv_heads=2, head_dim=32,
                   ffn_intermediate=512, vocab_size=2048, regular_tokens=2000,
                   rope_base=10_000.0, max_ctx=2048, eot_id=2047)
# Bytes the sliced normal draws may hold beyond their output, per value of
# one slice: the ramp, raw bits and uniforms (8 bytes each) and r, cos and
# sin (half a slice of 8 bytes each), with room to spare.
SLICE_BYTES = 48 * _NORMAL_SLICE


def _traced_peak(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestDrawMemory:
    def test_sample_normal_temporaries_are_bounded(self):
        out, peak = _traced_peak(lambda: sample_normal(Rng(1), 524_288, 0.0, 0.02))
        assert peak <= out.nbytes + SLICE_BYTES

    def test_build_model_peak_is_model_plus_one_tensor(self):
        cfg = ModelConfig(**BENCH_MODEL)
        weights, peak = _traced_peak(lambda: build_model(cfg, 20240710))
        sizes = [t.nbytes for t in _tensors(weights).values()]
        assert peak <= sum(sizes) + max(sizes) + SLICE_BYTES


# Collections that are not text, a mapping or a set, each made from a list.
_COLLECTIONS = [list, tuple, iter, collections.deque, np.array,
                lambda v: (x for x in v), lambda v: dict(enumerate(v)).values()]


@given(st.lists(st.integers(-2**62, 2**62), max_size=8), st.sampled_from(_COLLECTIONS))
@settings(max_examples=200, deadline=None)
def test_items_of_a_collection_are_its_items_in_order(values, make):
    assert [int(x) for x in _items(make(values), "ids", "token ids")] == values


def test_items_keeps_a_tuple_or_list_as_it_is():
    for value in ((1, 2), [1, 2]):
        assert _items(value, "ids", "token ids") is value
