"""Storage order of the weights: every matrix used as ``x @ w.T`` is held
column-major, the embedding row-major, whichever way the model was made;
row-major weights give the same results; and the conversions hold at most
one tensor twice."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff
from test_model import _seeded_ids, _small_model, _stepwise_logits, _with_dca
from qwenkit.config import ModelConfig, preset
from qwenkit.layers import SwigluWeights
from qwenkit.model import (
    ModelWeights,
    _from_tensors,
    _tensors,
    build_model,
    forward,
    greedy_decode,
    upcycle_model,
)
from qwenkit.moe import ExpertBank, MoeConfig, upcycle_from_dense
from qwenkit.ops import Rng
from qwenkit.serialize import load_weights, save_weights

# The size of the benchmark's model (perfbench/inputs.py), untied, and its
# upcycled expert bank.
BENCH_CFG = ModelConfig(hidden=256, n_layers=4, n_q_heads=8, n_kv_heads=2, head_dim=32,
                        ffn_intermediate=512, vocab_size=2048, regular_tokens=2000,
                        rope_base=10_000.0, max_ctx=2048, eot_id=2047)
BENCH_MOE = MoeConfig(n_routed=8, k_active=2, n_shared=1, expert_dim=32, hidden=256)


def _row_major(w: ModelWeights) -> ModelWeights:
    """A copy of ``w`` with every array row-major, built by hand as a caller
    of the dataclasses would; a tied model stays tied."""
    def copy(value):
        if isinstance(value, np.ndarray):
            return np.array(value, order="C")
        if isinstance(value, SwigluWeights):
            return SwigluWeights(*map(copy, value))
        if isinstance(value, ExpertBank):
            return ExpertBank(copy(value.routed), copy(value.shared), copy(value.router))
        return value

    layers = [replace(lw, **{f.name: copy(getattr(lw, f.name)) for f in fields(lw)})
              for lw in w.layers]
    return ModelWeights(copy(w.embedding), layers, copy(w.final_gamma), copy(w.lm_head))


def _assert_stored_layout(w: ModelWeights) -> None:
    for name, arr in _tensors(w).items():
        if name == "embedding":
            assert arr.flags.c_contiguous, name
        elif arr.ndim == 2:
            # an expert is a view into its stack, itself column-major
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous, name
    if w.lm_head is None:
        assert w.output_matrix() is w.embedding


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_build_model_stores_the_layout(name):
    _assert_stored_layout(build_model(preset(name), seed=3))


def test_untied_lm_head_is_column_major():
    w = build_model(replace(preset("nano"), tie_embeddings=False), seed=3)
    _assert_stored_layout(w)
    assert w.lm_head.flags.f_contiguous


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_load_weights_stores_the_layout(tmp_path, name):
    cfg = preset(name)
    save_weights(build_model(cfg, seed=3), cfg, tmp_path / "m.qw2t")
    _assert_stored_layout(load_weights(tmp_path / "m.qw2t")[0])


@pytest.mark.parametrize("row_major_source", [False, True])
def test_upcycle_model_stores_the_layout(row_major_source):
    cfg = preset("nano")
    dense = build_model(cfg, seed=3)
    source = _row_major(dense) if row_major_source else dense
    moe = preset("nano-moe").moe  # of the same hidden size as nano
    w, _ = upcycle_model(source, cfg, moe, seed=4)
    _assert_stored_layout(w)
    expected, _ = upcycle_model(dense, cfg, moe, seed=4)
    for name, arr in _tensors(expected).items():
        assert np.array_equal(arr, _tensors(w)[name]), name


def test_upcycle_from_dense_gives_a_column_major_bank():
    w = build_model(preset("nano"), seed=3)
    bank = upcycle_from_dense(*w.layers[0].ffn, preset("nano-moe").moe, Rng(4))
    assert bank.router.flags.f_contiguous
    for stack in (bank.routed, bank.shared):
        for w_stack in stack:
            assert all(w_stack[e].flags.f_contiguous for e in range(len(w_stack)))


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_from_tensors_converts_row_major_input_and_consumes_it(name):
    cfg = preset(name)
    w = build_model(cfg, seed=3)
    arrays = _tensors(_row_major(w))
    rebuilt = _from_tensors(arrays, cfg)
    assert arrays == {}
    _assert_stored_layout(rebuilt)
    for tensor, arr in _tensors(w).items():
        assert np.array_equal(arr, _tensors(rebuilt)[tensor]), tensor


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_save_of_a_row_major_copy_writes_the_same_bytes(tmp_path, name):
    cfg = preset(name)
    w = build_model(cfg, seed=3)
    save_weights(w, cfg, tmp_path / "column.qw2t")
    save_weights(_row_major(w), cfg, tmp_path / "row.qw2t")
    assert (tmp_path / "column.qw2t").read_bytes() == (tmp_path / "row.qw2t").read_bytes()


@given(st.data(), st.sampled_from(["dense", "moe"]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_row_major_weights_decode_the_same_property(data, variant, use_dca):
    w, cfg = _small_model(variant)
    if use_dca:
        cfg = data.draw(_with_dca(cfg))  # YaRN on or off
    rows = _row_major(w)
    prompt = _seeded_ids(data, cfg, data.draw(st.integers(1, 200)))
    max_new = data.draw(st.integers(1, 12))
    got = greedy_decode(w, cfg, prompt, max_new)
    other = greedy_decode(rows, cfg, prompt, max_new)
    # The two may part only at an argmax tie within 1e-5.
    same = next((t for t, (a, b) in enumerate(zip(got, other)) if a != b), None)
    if same is not None:
        logits = forward(w, cfg, got[:same])[-1]
        assert logits[other[same]] >= logits.max() - 1e-5
        assert logits[got[same]] >= logits.max() - 1e-5
    else:
        assert got == other
    assert max_abs_diff(_stepwise_logits(w, cfg, got, len(prompt)),
                        _stepwise_logits(rows, cfg, got, len(prompt))) <= 1e-5
    assert max_abs_diff(forward(w, cfg, got), forward(rows, cfg, got)) <= 1e-5


def _traced_peak(fn):
    """``fn()`` and the peak bytes numpy and Python allocated during it."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bench_model(moe: bool):
    w = build_model(BENCH_CFG, seed=3)
    if not moe:
        return w, BENCH_CFG
    return upcycle_model(w, BENCH_CFG, BENCH_MOE, seed=4)


# Headers, the manifest, the name dicts, one bool mask of np.isfinite:
# small against a tensor of this model (64 KiB to 2 MiB).
SLACK = 256 * 1024


@pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
def test_save_weights_holds_one_row_major_copy(tmp_path, moe):
    w, cfg = _bench_model(moe)
    largest = max(arr.nbytes for arr in _tensors(w).values())
    _, peak = _traced_peak(lambda: save_weights(w, cfg, tmp_path / "m.qw2t"))
    assert peak <= largest + SLACK


@pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
def test_load_weights_holds_the_model_plus_one_tensor(tmp_path, moe):
    w, cfg = _bench_model(moe)
    save_weights(w, cfg, tmp_path / "m.qw2t")
    tensors = _tensors(w)
    model_bytes = sum(arr.nbytes for arr in tensors.values())
    largest = max(arr.nbytes for arr in tensors.values())
    del w, tensors
    (back, _), peak = _traced_peak(lambda: load_weights(tmp_path / "m.qw2t"))
    _assert_stored_layout(back)
    assert peak <= model_bytes + largest + SLACK
