"""Models are built and upcycled on two threads, byte for byte as on one.

``build_model`` draws two groups of whole tensors, and ``upcycle_model``
two halves of its layers, each from the seeded stream advanced to its
offset (``Rng._ahead``); ``ops._draw_halves`` makes the cut. The offsets
are sums of what each draw consumes, so the counts must match the draws
exactly, and the split path must equal the inline path that a one-CPU
process takes.
"""

import contextlib
import functools
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_weight_layout import BENCH_CFG, BENCH_MOE
from qwenkit import model, ops
from qwenkit.config import ModelConfig, preset
from qwenkit.errors import ConfigError
from qwenkit.model import (
    INIT_STD,
    ModelWeights,
    _tensor_shapes,
    _tensors,
    build_model,
    upcycle_model,
)
from qwenkit.moe import MoeConfig, _upcycle_draws, upcycle_from_dense
from qwenkit.ops import Rng, _normal_draws, sample_normal


@contextlib.contextmanager
def _split():
    """Run as if the process may use two CPUs and any draw were long
    enough to split."""
    with mock.patch.object(ops, "_CPUS", 2), mock.patch.object(ops, "_MIN_HALF_DRAWS", 1):
        yield


@contextlib.contextmanager
def _inline():
    with mock.patch.object(ops, "_CPUS", 1):
        yield


def _cfg(hidden=8, n_layers=2, tie=True, moe=None, vocab=40):
    return ModelConfig(hidden=hidden, n_layers=n_layers, n_q_heads=2, n_kv_heads=1,
                       head_dim=4, ffn_intermediate=moe.expert_dim if moe else 12,
                       vocab_size=vocab, regular_tokens=vocab - 3, tie_embeddings=tie,
                       rope_base=10_000.0, max_ctx=64, moe=moe)


def _assert_same_bytes(got: ModelWeights, want: ModelWeights) -> None:
    got, want = _tensors(got), _tensors(want)
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].flags.f_contiguous == arr.flags.f_contiguous, name
        assert got[name].tobytes(order="A") == arr.tobytes(order="A"), name


def _splits(draws) -> bool:
    with _split():
        return len(ops._draw_halves(draws)) == 2


# Stream bookkeeping.

def test_ahead_is_that_many_draws_later():
    rng = Rng(2**64 - 5)
    ahead = rng._ahead(37)
    assert rng._state == Rng(2**64 - 5)._state  # the source does not move
    rng.uint64s(37)
    assert ahead._state == rng._state
    assert np.array_equal(ahead.uint64s(9), rng.uint64s(9))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, ops._NORMAL_SLICE + 1])
def test_normal_and_permutation_counts_match_their_draws(n):
    rng = Rng(3)
    sample_normal(rng, n, 0.0, 1.0)
    assert rng._state == Rng(3)._ahead(_normal_draws(n))._state
    rng = Rng(3)
    rng.permutation(n)
    assert rng._state == Rng(3)._ahead(ops._permutation_draws(n))._state


def _moe_draw_count_holds(n_routed, n_shared, expert_dim, hidden, h_ffn):
    moe = MoeConfig(n_routed=n_routed, k_active=1, n_shared=n_shared,
                    expert_dim=expert_dim, hidden=hidden)
    gen = np.random.default_rng(h_ffn)
    gate, up = (gen.standard_normal((h_ffn, hidden), np.float32) for _ in range(2))
    down = gen.standard_normal((hidden, h_ffn), np.float32)
    rng = Rng(11)
    upcycle_from_dense(gate, up, down, moe, rng)
    assert rng._state == Rng(11)._ahead(_upcycle_draws(moe, h_ffn))._state


@pytest.mark.parametrize("n_routed, n_shared, expert_dim, hidden, h_ffn", [
    (4, 0, 16, 8, 24),  # three copies of the dense FFN, no shared expert
    (3, 2, 8, 5, 8),    # a router of 15 scalars, two shared experts
    (3, 2, 1, 3, 2),    # 9 scalars an expert: 4 of them redrawn
    (8, 1, 32, 256, 512),  # the benchmark's layer
])
def test_upcycle_count_is_what_upcycle_from_dense_draws(n_routed, n_shared, expert_dim,
                                                        hidden, h_ffn):
    _moe_draw_count_holds(n_routed, n_shared, expert_dim, hidden, h_ffn)


@given(st.integers(1, 5), st.integers(0, 2), st.integers(1, 6), st.integers(1, 7),
       st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_upcycle_count_holds_on_drawn_layouts(n_routed, n_shared, expert_dim, hidden, h_ffn):
    _moe_draw_count_holds(n_routed, n_shared, expert_dim, hidden, h_ffn)


@pytest.mark.parametrize("tie", [True, False])
def test_each_tensor_starts_at_its_offset(tie):
    # hidden 7: the norm gains hold 7 scalars, so each of their draws
    # discards one raw output.
    cfg = _cfg(hidden=7, tie=tie)
    shapes = _tensor_shapes(cfg)
    assert any(np.prod(shape) % 2 for shape in shapes.values())
    tensors = _tensors(build_model(cfg, 9))
    sequential, offset = Rng(9), 0
    for name, shape in shapes.items():
        assert sequential._state == Rng(9)._ahead(offset)._state, name
        size = int(np.prod(shape))
        want = sample_normal(Rng(9)._ahead(offset), size, 0.0, INIT_STD).reshape(shape)
        assert np.array_equal(sample_normal(sequential, size, 0.0, INIT_STD).reshape(shape),
                              want)
        assert tensors[name].tobytes(order="C") == want.tobytes(), name
        offset += _normal_draws(size)


# Split and inline paths.

def test_draw_halves_cut_between_items_evenly():
    draws = [5, 100, 7, 90, 3]
    with _split():
        (first, start), (second, offset) = ops._draw_halves(draws)
    assert (first, start) == (slice(0, 2), 0)
    assert (second, offset) == (slice(2, 5), 105)
    with _inline():
        assert ops._draw_halves(draws) == ((slice(0, 5), 0),)
    with _split(), mock.patch.object(ops, "_MIN_HALF_DRAWS", 101):
        assert len(ops._draw_halves(draws)) == 1
    assert not _splits([1000])  # one item cannot be cut


def test_nano_presets_draw_on_one_thread():
    for name in ("nano", "nano-moe"):
        draws = [_normal_draws(int(np.prod(s))) for s in _tensor_shapes(preset(name)).values()]
        with mock.patch.object(ops, "_CPUS", 2):
            assert len(ops._draw_halves(draws)) == 1, name


def test_benchmark_model_splits_by_default():
    draws = [_normal_draws(int(np.prod(s))) for s in _tensor_shapes(BENCH_CFG).values()]
    with mock.patch.object(ops, "_CPUS", 2):
        assert len(ops._draw_halves(draws)) == 2
        assert len(ops._draw_halves([_upcycle_draws(BENCH_MOE, 512)] * 4)) == 2


def _build_both(cfg, seed):
    with _split():
        got = build_model(cfg, seed)
    with _inline():
        want = build_model(cfg, seed)
    return got, want


def _upcycle_both(w, cfg, moe, seed):
    with _split():
        got, got_cfg = upcycle_model(w, cfg, moe, seed)
    with _inline():
        want, want_cfg = upcycle_model(w, cfg, moe, seed)
    assert got_cfg == want_cfg
    return got, want


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_split_build_of_preset_matches_inline(name):
    cfg = preset(name)
    assert _splits([_normal_draws(int(np.prod(s))) for s in _tensor_shapes(cfg).values()])
    _assert_same_bytes(*_build_both(cfg, 7))


def test_split_upcycle_of_preset_matches_inline():
    dense = build_model(preset("nano"), 7)
    _assert_same_bytes(*_upcycle_both(dense, preset("nano"), preset("nano-moe").moe, 8))


@st.composite
def _layouts(draw):
    """A small dense config, tied or untied, and an expert layout of 0 to 2
    shared experts for it."""
    hidden = draw(st.integers(3, 9))
    cfg = _cfg(hidden=hidden, n_layers=draw(st.integers(1, 4)), tie=draw(st.booleans()),
               vocab=draw(st.integers(8, 40)))
    n_routed = draw(st.integers(1, 5))
    moe = MoeConfig(n_routed=n_routed, k_active=draw(st.integers(1, n_routed)),
                    n_shared=draw(st.integers(0, 2)), expert_dim=draw(st.integers(1, 16)),
                    hidden=hidden)
    return cfg, moe


@given(_layouts(), st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_split_build_and_upcycle_match_inline(layout, seed):
    cfg, moe = layout
    dense, want = _build_both(cfg, seed)
    _assert_same_bytes(dense, want)
    _assert_same_bytes(*_build_both(replace(cfg, moe=moe, ffn_intermediate=moe.expert_dim),
                                    seed))
    _assert_same_bytes(*_upcycle_both(dense, cfg, moe, seed ^ 1))


def test_first_non_dense_layer_is_named_before_any_split():
    cfg = _cfg(n_layers=3)
    moe = MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=6, hidden=8)
    dense = build_model(cfg, 1)
    banked = upcycle_model(dense, cfg, moe, 2)[0]
    # Layer 0 dense, layers 1 and 2 not: the split would put layer 2 on the
    # worker.
    layers = [dense.layers[0], *banked.layers[1:]]
    mixed = ModelWeights(dense.embedding, layers, dense.final_gamma, dense.lm_head)
    with _split(), mock.patch.object(model, "_on_halves") as on_halves:
        with pytest.raises(ConfigError, match=r"missing \['layers\.1\.ffn\.w_down'"):
            upcycle_model(mixed, cfg, moe, 3)
    on_halves.assert_not_called()


def test_refused_layer_before_the_cut_raises_as_inline():
    cfg = _cfg(n_layers=4)
    moe = MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=6, hidden=8)
    dense = build_model(cfg, 1)
    layers = list(dense.layers)
    # Layer 1, before the cut, gets a 1-D gate; layer 3, after it, a gate
    # of another width. The entry check names layer 1 on either path.
    for li, gate in ((1, np.ones(5, np.float32)), (3, np.ones((12, 5), np.float32))):
        layers[li] = replace(layers[li], ffn=layers[li].ffn._replace(w_gate=gate))
    bad = ModelWeights(dense.embedding, layers, dense.final_gamma, dense.lm_head)
    errors = []
    for mode in (_split, _inline):
        with mode(), pytest.raises(Exception) as info:
            upcycle_model(bad, cfg, moe, 3)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "layers.1.ffn.w_gate" in errors[0][1]


@functools.lru_cache(maxsize=None)
def _stress_want(seed):
    cfg, moe = _cfg(n_layers=4), MoeConfig(n_routed=4, k_active=2, n_shared=1,
                                            expert_dim=6, hidden=8)
    with _inline():
        dense = build_model(cfg, seed)
        return dense, upcycle_model(dense, cfg, moe, seed)[0], cfg, moe


def test_concurrent_builders_share_one_worker():
    seeds = list(range(6))  # more callers than the two CPUs the split uses
    wants = [_stress_want(s) for s in seeds]
    got = [None] * len(seeds)

    def call(i):
        _, _, cfg, moe = wants[i]
        for _ in range(3):
            dense = build_model(cfg, seeds[i])
            got[i] = dense, upcycle_model(dense, cfg, moe, seeds[i])[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _split():
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(seeds))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    for (dense, moe_w), (want_dense, want_moe, _, _) in zip(got, wants):
        _assert_same_bytes(dense, want_dense)
        _assert_same_bytes(moe_w, want_moe)
    workers = [t for t in threading.enumerate() if t.name.startswith("qwenkit-half")]
    assert len(workers) <= 1
