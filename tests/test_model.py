import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff
from qwenkit.config import ModelConfig, format_config, parse_config, preset, preset_names
from qwenkit.errors import ConfigError, FormatError, InputError, NumericError
from qwenkit import model
from qwenkit.layers import KvCache, rope_freqs, swiglu_ffn
from qwenkit.model import (
    PREFILL_CHUNK,
    LayerWeights,
    _cached_logits,
    build_model,
    forward,
    greedy_decode,
)
from qwenkit.moe import ExpertBank, MoeConfig, gate_probs, topk_select
from qwenkit.ops import Rng, sample_normal

# Published architecture table, kept separate from the preset registry on
# purpose so a typo there cannot silently self-validate.
TABLE = {
    "qwen2-0.5b": (896, 24, 14, 2, 64, 4864, None, True, 151_646, "12T"),
    "qwen2-1.5b": (1536, 28, 12, 2, 128, 8960, None, True, 151_646, "7T"),
    "qwen2-7b": (3584, 28, 28, 4, 128, 18_944, None, False, 151_646, "7T"),
    "qwen2-72b": (8192, 80, 64, 8, 128, 29_568, None, False, 151_646, "7T"),
    "qwen2-57b-a14b": (3584, 28, 28, 4, 128, 2560, (64, 8, 8), False, 151_646, "4.5T"),
}


class TestPresets:
    @pytest.mark.parametrize("name", list(TABLE))
    def test_published_rows(self, name):
        cfg = preset(name)
        cfg.validate()
        hidden, layers, nq, nkv, hd, inter, moe, tie, vocab, trained = TABLE[name]
        assert cfg.hidden == hidden
        assert cfg.n_layers == layers
        assert cfg.n_q_heads == nq
        assert cfg.n_kv_heads == nkv
        assert cfg.head_dim == hd
        assert cfg.ffn_intermediate == inter
        assert cfg.tie_embeddings == tie
        assert cfg.vocab_size == vocab
        assert cfg.trained_tokens == trained
        if moe is None:
            assert cfg.moe is None
        else:
            assert (cfg.moe.n_routed, cfg.moe.k_active, cfg.moe.n_shared) == moe
        # heads factor the hidden size exactly on every published row
        assert cfg.n_q_heads * cfg.head_dim == cfg.hidden

    def test_vocab_inventory(self):
        cfg = preset("qwen2-7b")
        assert cfg.regular_tokens == 151_643
        assert cfg.control_tokens == 3
        assert cfg.regular_tokens + cfg.control_tokens <= cfg.vocab_size
        assert cfg.effective_eot_id == 151_645

    def test_oversized_inventory_rejected(self):
        cfg = ModelConfig(hidden=64, n_layers=1, n_q_heads=2, n_kv_heads=2,
                          head_dim=32, ffn_intermediate=64, vocab_size=100,
                          regular_tokens=99, control_tokens=3)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("qwen3-9b")

    def test_nano_builds_fast(self):
        t0 = time.perf_counter()
        cfg = preset("nano")
        weights = build_model(cfg, seed=0)
        forward(weights, cfg, [1, 2, 3, 4])
        assert time.perf_counter() - t0 < 1.0
        assert cfg.hidden == 64 and cfg.n_layers == 2
        assert (cfg.n_q_heads, cfg.n_kv_heads, cfg.head_dim) == (4, 2, 16)
        assert cfg.vocab_size == 512

    def test_preset_names_cover_table(self):
        assert set(TABLE) <= set(preset_names())


class TestConfigFormat:
    @pytest.mark.parametrize("name", preset_names())
    def test_roundtrip(self, name):
        cfg = preset(name)
        assert parse_config(format_config(cfg)) == cfg

    def test_roundtrip_with_extensions(self):
        from qwenkit.longctx import DcaParams, YarnParams

        cfg = ModelConfig(hidden=64, n_layers=1, n_q_heads=2, n_kv_heads=2,
                          head_dim=32, ffn_intermediate=64, vocab_size=300,
                          regular_tokens=290, yarn=YarnParams(4.0, 4096),
                          dca=DcaParams(64, 16))
        assert parse_config(format_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        cfg = preset("nano")
        with pytest.raises(FormatError, match="unknown key"):
            parse_config(format_config(cfg) + "mystery_field = 3\n")

    def test_duplicate_key_rejected(self):
        cfg = preset("nano")
        with pytest.raises(FormatError, match="duplicate"):
            parse_config(format_config(cfg) + "hidden = 64\n")

    def test_missing_required_rejected(self):
        with pytest.raises(FormatError, match="missing required"):
            parse_config("hidden = 64\n")

    def test_incomplete_group_rejected(self):
        cfg = preset("nano")
        with pytest.raises(FormatError, match="incomplete nested group"):
            parse_config(format_config(cfg) + "yarn.scale = 2.0\n")

    def test_bad_bool_rejected(self):
        text = format_config(preset("nano")).replace(
            "tie_embeddings = true", "tie_embeddings = yes")
        with pytest.raises(FormatError):
            parse_config(text)


class TestForward:
    def test_output_shape(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        assert forward(w, cfg, [3, 1, 4, 1, 5]).shape == (5, cfg.vocab_size)

    def test_causality_probe(self):
        rng = Rng(100)
        for trial in range(5):
            seed = int(rng.uint64s(1)[0] % 1000)
            cfg = preset("nano")
            w = build_model(cfg, seed)
            ids = [int(x % cfg.vocab_size) for x in rng.uint64s(12)]
            base = forward(w, cfg, ids)
            t = 1 + int(rng.uint64s(1)[0] % 10)
            mutated = list(ids)
            mutated[t] = (mutated[t] + 1) % cfg.vocab_size
            out = forward(w, cfg, mutated)
            assert np.array_equal(out[:t], base[:t])
            assert not np.array_equal(out[t:], base[t:])

    def test_tied_embedding_is_output_projection(self):
        cfg = preset("nano")
        assert cfg.tie_embeddings
        w = build_model(cfg, 0)
        assert w.lm_head is None
        assert w.output_matrix() is w.embedding

    def test_untied_model_has_separate_head(self):
        cfg = ModelConfig(hidden=32, n_layers=1, n_q_heads=2, n_kv_heads=2,
                          head_dim=16, ffn_intermediate=64, vocab_size=64,
                          regular_tokens=61, tie_embeddings=False,
                          rope_base=10_000.0, max_ctx=64)
        w = build_model(cfg, 0)
        assert w.lm_head is not None
        assert w.output_matrix() is w.lm_head

    def test_id_out_of_range(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError):
            forward(w, cfg, [0, cfg.vocab_size])

    def test_sequence_longer_than_max_ctx(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError):
            forward(w, cfg, [0] * (cfg.max_ctx + 1))

    def test_moe_block_swap_matches_dense(self):
        # A 1-expert MoE layer sharing the dense weights must reproduce the
        # dense model's logits.
        dense_cfg = preset("nano")
        dense = build_model(dense_cfg, seed=7)
        moe_cfg = ModelConfig(
            hidden=64, n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=16,
            ffn_intermediate=128, vocab_size=512, regular_tokens=509,
            tie_embeddings=True, rope_base=10_000.0, max_ctx=128,
            moe=MoeConfig(n_routed=1, k_active=1, n_shared=0, expert_dim=128,
                          hidden=64))
        moe_layers = []
        for lw in dense.layers:
            bank = ExpertBank(routed=[lw.ffn], shared=[],
                              router=sample_normal(Rng(1), 64, 0.0, 0.02).reshape(1, 64))
            moe_layers.append(LayerWeights(
                lw.attn_gamma, lw.wq, lw.bq, lw.wk, lw.bk, lw.wv, lw.bv, lw.wo,
                lw.ffn_gamma, moe_bank=bank))
        moe_weights = type(dense)(dense.embedding, moe_layers, dense.final_gamma,
                                  dense.lm_head)
        ids = [9, 2, 47, 300, 11]
        assert max_abs_diff(forward(dense, dense_cfg, ids),
                            forward(moe_weights, moe_cfg, ids)) <= 1e-5

    def test_moe_batched_dispatch_matches_per_row_loop(self, monkeypatch):
        w, cfg = _small_model("moe")
        ids = [int(t) % cfg.vocab_size for t in Rng(21).uint64s(150)]
        got = forward(w, cfg, ids)
        monkeypatch.setattr(model, "moe_forward", _per_row_moe)
        want = forward(w, cfg, ids)
        assert max_abs_diff(got, want) <= 1e-5

    def test_build_is_deterministic(self):
        cfg = preset("nano")
        a = build_model(cfg, 42)
        b = build_model(cfg, 42)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.layers[1].wo, b.layers[1].wo)

    def test_layer_requires_exactly_one_ffn_kind(self):
        with pytest.raises(ConfigError):
            LayerWeights(np.ones(4), np.ones((4, 4)), None, np.ones((4, 4)), None,
                         np.ones((4, 4)), None, np.ones((4, 4)), np.ones(4))


class TestGreedyDecode:
    def test_matches_full_forward_loop(self):
        cfg = preset("nano")
        w = build_model(cfg, 3)
        prompt = [5, 17, 9]
        got = greedy_decode(w, cfg, prompt, max_new=6)
        ids = list(prompt)
        for _ in range(6):
            logits = forward(w, cfg, ids)
            ids.append(int(np.argmax(logits[-1])))
            if ids[-1] == cfg.effective_eot_id:
                break
        assert got == ids

    def test_max_new_zero_returns_prompt(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        assert greedy_decode(w, cfg, [1, 2, 3], 0) == [1, 2, 3]

    def test_empty_prompt_rejected(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError):
            greedy_decode(w, cfg, [], 4)

    def test_argmax_tie_breaks_low(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        # Duplicate embedding rows force a logit tie; the lower id must win.
        w.embedding[8] = w.embedding[7] * 50.0
        w.embedding[7] = w.embedding[8]
        out = greedy_decode(w, cfg, [1], 1)
        assert out[-1] == 7

    def test_stops_at_eot(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        logits = forward(w, cfg, [1, 2])
        # Point the end-of-text embedding along the final hidden state so the
        # next argmax lands on it.
        eot = cfg.effective_eot_id
        probe = forward(w, cfg, [1, 2])
        assert probe.shape[0] == 2
        h_dir = w.embedding[int(np.argmax(logits[-1]))]
        w.embedding[eot] = h_dir * 100.0
        out = greedy_decode(w, cfg, [1, 2], 10)
        assert out[-1] == eot
        assert len(out) < 2 + 10

    def test_moe_model_decodes(self):
        cfg = preset("nano-moe")
        w = build_model(cfg, 1)
        got = greedy_decode(w, cfg, [4, 8], max_new=4)
        ids = [4, 8]
        for _ in range(4):
            ids.append(int(np.argmax(forward(w, cfg, ids)[-1])))
            if ids[-1] == cfg.effective_eot_id:
                break
        assert got == ids

    def test_prompt_longer_than_a_chunk_matches_forward_loop(self):
        w, cfg = _small_model("dense")
        prompt = [int(t) % cfg.regular_tokens for t in Rng(7).uint64s(PREFILL_CHUNK + 70)]
        got = greedy_decode(w, cfg, prompt, max_new=5)
        ids = list(prompt)
        for _ in range(5):
            ids.append(int(np.argmax(forward(w, cfg, ids)[-1])))
            if ids[-1] == cfg.effective_eot_id:
                break
        assert got == ids

    def test_moe_prompt_longer_than_a_chunk_matches_forward_loop(self):
        w, cfg = _small_model("moe")
        prompt = [int(t) % cfg.regular_tokens for t in Rng(8).uint64s(PREFILL_CHUNK + 45)]
        got = greedy_decode(w, cfg, prompt, max_new=5)
        ids = list(prompt)
        for _ in range(5):
            ids.append(int(np.argmax(forward(w, cfg, ids)[-1])))
            if ids[-1] == cfg.effective_eot_id:
                break
        assert got == ids

    def test_overlong_prompt_rejected_without_new_tokens(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError):
            greedy_decode(w, cfg, [1] * (cfg.max_ctx + 5), 0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        w.layers[0].wq[0, 0] = bad
        with pytest.raises(NumericError):
            greedy_decode(w, cfg, [1, 2], 3)


def _per_row_moe(x, moe, bank):
    """Reference MoE FFN: route and combine one row at a time with the
    public one-token helpers, as the model did before batched dispatch."""
    out = np.zeros_like(x)
    for t, row in enumerate(x):
        p = gate_probs(row, bank.router)
        for triple in bank.shared:
            out[t] += swiglu_ffn(row, *triple)
        for i in topk_select(p, moe.k_active):
            out[t] += p[i] * swiglu_ffn(row, *bank.routed[i])
    return out


@functools.cache
def _small_model(variant: str):
    """A small dense or MoE model with room for prompts of several chunks,
    and unit norm gains so logits are large enough for a 1e-5 comparison
    to see a wrong mask or position. Callers must not modify it."""
    moe = MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=32, hidden=64)
    cfg = ModelConfig(hidden=64, n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=16,
                      ffn_intermediate=32 if variant == "moe" else 96, vocab_size=256,
                      regular_tokens=253, rope_base=10_000.0, max_ctx=400,
                      moe=moe if variant == "moe" else None)
    w = build_model(cfg, 11)
    for lw in w.layers:
        lw.attn_gamma[:] = 1.0
        lw.ffn_gamma[:] = 1.0
    w.final_gamma[:] = 1.0
    return w, cfg


@given(st.data(), st.sampled_from(["dense", "moe"]))
@settings(max_examples=30, deadline=None)
def test_any_prompt_chunking_matches_forward_property(data, variant):
    w, cfg = _small_model(variant)
    n = data.draw(st.integers(1, cfg.max_ctx))
    ids = [int(t) % cfg.vocab_size for t in Rng(data.draw(st.integers(0, 2**32))).uint64s(n)]
    cuts = data.draw(st.sets(st.integers(1, len(ids)), max_size=6))
    bounds = [0, *sorted(cuts - {len(ids)}), len(ids)]
    full = forward(w, cfg, ids)
    cache = KvCache(cfg.n_layers)
    inv = rope_freqs(cfg.rope_params())
    for a, b in zip(bounds, bounds[1:]):
        got = _cached_logits(w, cfg, ids[a:b], a, cache, inv, 1.0)
        assert max_abs_diff(got, full[b - 1]) <= 1e-5
