import functools
import json
import hashlib
import math
import re
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import blas_core, max_abs_diff, one_blas_thread
from test_moe import _expert, _stack
from qwenkit.config import ModelConfig, format_config, parse_config, preset, preset_names
from qwenkit.errors import ConfigError, FormatError, InputError, NumericError, ParameterError
from qwenkit import model
from qwenkit.layers import ATTN_BLOCK, KvCache, SwigluWeights, swiglu_ffn
from qwenkit.longctx import DcaParams, YarnParams
from qwenkit.model import (
    LayerWeights,
    _blocks,
    _logits,
    _rotary,
    build_model,
    forward,
    greedy_decode,
    upcycle_model,
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

# Parameters of each published preset, summed over its weight layout:
# (total, active). Active leaves out the routed experts a token skips.
PARAMETER_COUNTS = {
    "qwen2-0.5b": (493_772_928, 493_772_928),
    "qwen2-1.5b": (1_543_268_864, 1_543_268_864),
    "qwen2-7b": (7_612_620_288, 7_612_620_288),
    "qwen2-72b": (72_699_355_136, 72_699_355_136),
    "qwen2-57b-a14b": (57_406_479_872, 14_247_091_712),
}


# A weight of the wrong shape, as (layer, field, slice applied to it).
MALFORMED_WEIGHTS = [
    pytest.param(0, "wq", np.s_[:, :10], id="wq-columns"),
    pytest.param(1, "wo", np.s_[:5], id="wo-rows"),
]


# int() would take these as ids: "123" as [1, 2, 3], 1.9 as 1, True as 1.
NON_INTEGER_IDS = [
    pytest.param("123", id="str"),
    pytest.param([1.9, 2.2], id="float"),
    pytest.param([True, False], id="bool"),
    pytest.param([np.float32(3.0)], id="np-float"),
    pytest.param([np.bool_(True)], id="np-bool"),
]


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
        with pytest.raises(ConfigError):
            ModelConfig(hidden=64, n_layers=1, n_q_heads=2, n_kv_heads=2,
                        head_dim=32, ffn_intermediate=64, vocab_size=100,
                        regular_tokens=99, control_tokens=3)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("qwen3-9b")
        with pytest.raises(ConfigError):
            preset(["nano"])

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

    @pytest.mark.parametrize("name", list(PARAMETER_COUNTS))
    def test_parameter_count(self, name):
        cfg = preset(name)
        total = sum(math.prod(shape) for shape in model._tensor_shapes(cfg).values())
        active = total
        if cfg.moe is not None:
            idle = cfg.moe.n_routed - cfg.moe.k_active
            active -= cfg.n_layers * idle * cfg.moe.params_per_expert
        assert (total, active) == PARAMETER_COUNTS[name]
        # The report names each model by a round figure in billions within
        # 10% of its count, and an MoE model by its total and active counts.
        size, active_size = re.fullmatch(r"qwen2-([\d.]+)b(?:-a(\d+)b)?", name).groups()
        for count, billions in ((total, size), (active, active_size or size)):
            assert abs(count / (float(billions) * 1e9) - 1) < 0.1


# One broken rule of ModelConfig.validate each: (preset, changed fields,
# the message that names the rule).
INVALID_CONFIGS = [
    *(pytest.param("nano", {name: 0}, f"{name} must be >= 1", id=f"{name}-zero")
      for name in ("hidden", "n_layers", "n_q_heads", "n_kv_heads", "head_dim",
                   "ffn_intermediate", "vocab_size", "max_ctx")),
    pytest.param("nano", dict(n_kv_heads=3), "not divisible", id="q-heads-not-multiple"),
    pytest.param("nano", dict(head_dim=15), "head_dim must be even", id="odd-head-dim"),
    pytest.param("nano", dict(rope_base=0.5), "rope_base", id="rope-base"),
    pytest.param("nano", dict(rms_eps=0.0), "rms_eps", id="rms-eps"),
    pytest.param("nano", dict(regular_tokens=0), "inventory", id="no-regular-tokens"),
    pytest.param("nano", dict(control_tokens=-1), "inventory", id="negative-control-tokens"),
    pytest.param("nano", dict(regular_tokens=510), "exceed vocab_size",
                 id="inventory-over-vocab"),
    pytest.param("nano", dict(eot_id=512), "outside vocabulary", id="eot-past-vocab"),
    pytest.param("nano", dict(eot_id=-1), "outside vocabulary", id="eot-negative"),
    pytest.param("nano-moe", dict(moe=MoeConfig(n_routed=4, k_active=2, n_shared=1,
                                                expert_dim=32, hidden=32)),
                 "moe hidden", id="moe-hidden"),
    pytest.param("nano-moe", dict(ffn_intermediate=64), "per-expert intermediate",
                 id="ffn-not-expert-dim"),
    *(pytest.param("nano", {name: 2.5}, f"{name} must be an integer", id=f"{name}-float")
      for name in ("hidden", "n_layers", "n_q_heads", "n_kv_heads", "head_dim",
                   "ffn_intermediate", "vocab_size", "max_ctx", "regular_tokens",
                   "control_tokens", "eot_id")),
    pytest.param("nano", dict(max_ctx=True), "max_ctx must be an integer", id="max-ctx-bool"),
    pytest.param("nano", dict(hidden="64"), "hidden must be an integer", id="hidden-str"),
    pytest.param("nano", dict(eot_id=np.float32(5)), "eot_id must be an integer",
                 id="eot-np-float"),
    pytest.param("nano", dict(rope_base="1e4"), "rope_base must be a real number",
                 id="rope-base-str"),
    pytest.param("nano", dict(rms_eps="1e-6"), "rms_eps must be a real number",
                 id="rms-eps-str"),
    pytest.param("nano", dict(rope_base=True), "rope_base must be a real number",
                 id="rope-base-bool"),
    pytest.param("nano", dict(rms_eps=None), "rms_eps must be a real number",
                 id="rms-eps-none"),
]

# The integer fields of the nested configs, given other types: (class,
# arguments, error, the message that names the field).
INVALID_PARTS = [
    pytest.param(MoeConfig, dict(n_routed=4, k_active=2, n_shared=1, expert_dim=8.0, hidden=64),
                 ConfigError, "expert_dim must be an integer", id="moe-expert-dim-float"),
    pytest.param(MoeConfig, dict(n_routed=4, k_active=True, n_shared=1, expert_dim=8, hidden=64),
                 ConfigError, "k_active must be an integer", id="moe-k-active-bool"),
    pytest.param(MoeConfig, dict(n_routed="4", k_active=2, n_shared=1, expert_dim=8, hidden=64),
                 ConfigError, "n_routed must be an integer", id="moe-n-routed-str"),
    pytest.param(DcaParams, dict(chunk_size=8.5), ParameterError,
                 "chunk_size must be an integer", id="dca-chunk-float"),
    pytest.param(DcaParams, dict(chunk_size="8"), ParameterError,
                 "chunk_size must be an integer", id="dca-chunk-str"),
    pytest.param(DcaParams, dict(chunk_size=8, local_window=2.0), ParameterError,
                 "local_window must be an integer", id="dca-window-float"),
    pytest.param(YarnParams, dict(scale=2.0, native_ctx=512.0), ParameterError,
                 "native_ctx must be an integer", id="yarn-native-ctx-float"),
    pytest.param(YarnParams, dict(scale="2", native_ctx=8), ParameterError,
                 "scale must be a real number", id="yarn-scale-str"),
    pytest.param(YarnParams, dict(scale=True, native_ctx=8), ParameterError,
                 "scale must be a real number", id="yarn-scale-bool"),
]

# NaN, both infinities and an int no float can hold, which range checks
# miss: NaN fails every comparison, and inf is past every lower bound.
NON_FINITE = [pytest.param(float("nan"), id="nan"), pytest.param(float("inf"), id="inf"),
              pytest.param(float("-inf"), id="-inf"), pytest.param(10**400, id="int-1e400")]


class TestConfigValidation:
    """A ModelConfig is checked when it is built, by any route."""

    @pytest.mark.parametrize("base, changes, message", INVALID_CONFIGS)
    def test_construction_rejects(self, base, changes, message):
        valid = preset(base)
        kwargs = {f.name: getattr(valid, f.name) for f in fields(valid)}
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**{**kwargs, **changes})

    @pytest.mark.parametrize("base, changes, message", INVALID_CONFIGS)
    def test_replace_rejects(self, base, changes, message):
        with pytest.raises(ConfigError, match=message):
            replace(preset(base), **changes)

    @pytest.mark.parametrize("cls, kwargs, error, message", INVALID_PARTS)
    def test_part_rejects(self, cls, kwargs, error, message):
        with pytest.raises(error, match=message):
            cls(**kwargs)

    def test_numpy_integers_accepted(self):
        i64 = np.int64
        cfg = replace(preset("nano-moe"), n_layers=i64(1), max_ctx=np.int32(64), eot_id=i64(7),
                      moe=MoeConfig(n_routed=i64(4), k_active=np.int8(2), n_shared=i64(1),
                                    expert_dim=i64(32), hidden=i64(64)),
                      yarn=YarnParams(4.0, i64(32)), dca=DcaParams(i64(32), i64(8)))
        assert forward(build_model(cfg, 0), cfg, [1, 2, 3]).shape == (3, 512)

    def test_integer_and_numpy_reals_accepted(self):
        cfg = replace(preset("nano"), rope_base=10_000, rms_eps=np.float32(1e-6),
                      yarn=YarnParams(np.float64(4.0), 32))
        assert forward(build_model(cfg, 0), cfg, [1, 2, 3]).shape == (3, 512)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["rope_base", "rms_eps"])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            replace(preset("nano"), **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["scale"])
    def test_non_finite_yarn_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            YarnParams(**{"scale": 2.0, "native_ctx": 8, name: value})


class TestConfigFormat:
    @pytest.mark.parametrize("name", preset_names())
    def test_roundtrip(self, name):
        cfg = preset(name)
        assert parse_config(format_config(cfg)) == cfg

    def test_roundtrip_with_extensions(self):
        cfg = ModelConfig(hidden=64, n_layers=1, n_q_heads=2, n_kv_heads=2,
                          head_dim=32, ffn_intermediate=64, vocab_size=300,
                          regular_tokens=290, yarn=YarnParams(4.0, 4096),
                          dca=DcaParams(64, 16))
        assert parse_config(format_config(cfg)) == cfg

    def test_roundtrip_with_every_group(self):
        cfg = replace(preset("nano-moe"), yarn=YarnParams(4.0, 64), dca=DcaParams(32, 8))
        assert parse_config(format_config(cfg)) == cfg

    def test_numpy_values_roundtrip(self):
        i64 = np.int64
        cfg = replace(preset("nano-moe"), n_layers=i64(1), rms_eps=np.float32(1e-6),
                      moe=replace(preset("nano-moe").moe, n_routed=i64(4)),
                      yarn=YarnParams(np.float64(4.0), i64(32)))
        assert parse_config(format_config(cfg)) == cfg

    @staticmethod
    def _edited(edit) -> str:
        fields = json.loads(format_config(replace(preset("nano"), yarn=YarnParams(2.0, 64))))
        edit(fields)
        return json.dumps(fields)

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match=r"unknown keys \['mystery_field'\]"):
            parse_config(self._edited(lambda f: f.update(mystery_field=3)))
        with pytest.raises(FormatError, match=r"yarn: unknown keys \['mystery_field'\]"):
            parse_config(self._edited(lambda f: f["yarn"].update(mystery_field=3)))

    @pytest.mark.parametrize("value", [True, False])
    def test_qkv_bias_switch_rejected(self, value):
        # Every Qwen2 block has q/k/v biases; a config that still names the
        # old switch is refused, whichever way it is set.
        with pytest.raises(FormatError, match=r"unknown keys \['use_qkv_bias'\]"):
            parse_config(self._edited(lambda f: f.update(use_qkv_bias=value)))

    def test_duplicate_key_rejected(self):
        for text in ['{"hidden": 64, "hidden": 64}',
                     '{"yarn": {"scale": 2.0, "scale": 2.0}}']:
            with pytest.raises(FormatError, match="duplicate key"):
                parse_config(text)

    def test_missing_required_rejected(self):
        with pytest.raises(FormatError, match=r"missing keys \['control_tokens'"):
            parse_config('{"hidden": 64}')
        with pytest.raises(FormatError, match=r"missing keys \['eot_id'\]"):
            parse_config(self._edited(lambda f: f.pop("eot_id")))

    def test_incomplete_group_rejected(self):
        missing = r"yarn: unknown keys \[\], missing keys \['native_ctx'\]"
        with pytest.raises(FormatError, match=missing):
            parse_config(self._edited(lambda f: f.update(yarn={"scale": 2.0})))

    @pytest.mark.parametrize("group", [[], 2.0, "yarn"])
    def test_group_not_an_object_rejected(self, group):
        with pytest.raises(FormatError, match="yarn must be a JSON object"):
            parse_config(self._edited(lambda f: f.update(yarn=group)))

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="tie_embeddings must be a bool, got 'yes'"):
            parse_config(self._edited(lambda f: f.update(tie_embeddings="yes")))

    @pytest.mark.parametrize("text", ["", "hidden = 64", "[" * 200_000, "[]"])
    def test_not_a_json_object_rejected(self, text):
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

    @pytest.mark.parametrize("bad", NON_INTEGER_IDS)
    def test_non_integer_ids_rejected(self, bad):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError, match="not an integer"):
            forward(w, cfg, bad)
        assert np.array_equal(forward(w, cfg, np.array([1, 2, 3], dtype=np.int32)),
                              forward(w, cfg, [1, 2, 3]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        w.layers[0].wq[0, 0] = bad
        with pytest.raises(NumericError, match="non-finite"):
            forward(w, cfg, [1, 2])

    @pytest.mark.parametrize("layer, field, cut", MALFORMED_WEIGHTS)
    def test_malformed_weight_named(self, layer, field, cut):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        lw = w.layers[layer]
        setattr(lw, field, getattr(lw, field)[cut])
        with pytest.raises(ConfigError, match=f"tensor layers.{layer}.{field} has shape"):
            forward(w, cfg, [1, 2])

    def test_non_float32_weight_named(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        w.layers[1].ffn_gamma = w.layers[1].ffn_gamma.astype(np.float64)
        with pytest.raises(ConfigError, match="layers.1.ffn_gamma must be a float32"):
            forward(w, cfg, [1, 2])

    def test_dca_beyond_yarn_range_rejected_at_entry(self, monkeypatch):
        # 2 * 128 remapped positions against a rescaled range of 2 * 64.
        cfg = replace(preset("nano"), yarn=YarnParams(2.0, 64), dca=DcaParams(128))
        w = build_model(cfg, 0)
        assert forward(w, replace(cfg, dca=DcaParams(64)), [1, 2, 3]).shape[0] == 3
        monkeypatch.setattr(model, "_blocks", None)  # no block may run first
        with pytest.raises(ParameterError, match="rescaled rotary range covers only 128"):
            forward(w, cfg, [1, 2, 3])
        with pytest.raises(ParameterError, match="rescaled rotary range covers only 128"):
            greedy_decode(w, cfg, [1, 2, 3], 2)
        with pytest.raises(ParameterError, match="rescaled rotary range covers only 128"):
            greedy_decode(w, cfg, [1, 2, 3], 0)

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
            bank = ExpertBank(routed=_stack([lw.ffn], moe_cfg.moe),
                              shared=_stack([], moe_cfg.moe),
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
        monkeypatch.setattr(model, "_moe_forward", _per_row_moe)
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


class TestUpcycleModel:
    MOE = MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=32, hidden=64)

    def test_moe_source_rejected(self):
        cfg = preset("nano-moe")
        with pytest.raises(ConfigError, match="dense_cfg already holds a MoE model"):
            upcycle_model(build_model(cfg, 0), cfg, self.MOE, 1)

    def test_layer_count_mismatch_rejected(self):
        cfg = preset("nano")
        with pytest.raises(ConfigError, match=r"missing \['layers\.2\.attn_gamma'"):
            upcycle_model(build_model(cfg, 0), replace(cfg, n_layers=3), self.MOE, 1)

    def test_attention_of_another_head_layout_rejected(self):
        # The FFN tensors fit this config; the attention projections do not,
        # and must be refused here rather than at the next forward.
        cfg = preset("nano")
        with pytest.raises(ConfigError, match=r"tensor layers\.0\.wq has shape \(64, 64\), "
                                              r"expected \(32, 64\)"):
            upcycle_model(build_model(cfg, 0), replace(cfg, n_q_heads=2, n_kv_heads=1),
                          self.MOE, 1)

    def test_float64_tensor_rejected(self):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        w.layers[1].bv = w.layers[1].bv.astype(np.float64)
        with pytest.raises(ConfigError, match="tensor layers.1.bv must be a float32 array"):
            upcycle_model(w, cfg, self.MOE, 1)


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

    @pytest.mark.parametrize("bad", NON_INTEGER_IDS)
    def test_non_integer_ids_rejected(self, bad):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError, match="not an integer"):
            greedy_decode(w, cfg, bad, 2)
        assert (greedy_decode(w, cfg, np.array([1, 2], dtype=np.uint16), 2)
                == greedy_decode(w, cfg, [1, 2], 2))

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, np.float32(2.0)],
                             ids=["float", "integral-float", "str", "bool", "np-float"])
    def test_non_integer_max_new_rejected(self, bad):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        with pytest.raises(InputError, match="max_new .* is not an integer"):
            greedy_decode(w, cfg, [1, 2], bad)
        assert greedy_decode(w, cfg, [1, 2], np.int64(2)) == greedy_decode(w, cfg, [1, 2], 2)

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
        prompt = [int(t) % cfg.regular_tokens for t in Rng(7).uint64s(ATTN_BLOCK + 70)]
        got = greedy_decode(w, cfg, prompt, max_new=5)
        ids = list(prompt)
        for _ in range(5):
            ids.append(int(np.argmax(forward(w, cfg, ids)[-1])))
            if ids[-1] == cfg.effective_eot_id:
                break
        assert got == ids

    def test_moe_prompt_longer_than_a_chunk_matches_forward_loop(self):
        w, cfg = _small_model("moe")
        prompt = [int(t) % cfg.regular_tokens for t in Rng(8).uint64s(ATTN_BLOCK + 45)]
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

    @pytest.mark.parametrize("layer, field, cut", MALFORMED_WEIGHTS)
    def test_malformed_weight_named(self, layer, field, cut):
        cfg = preset("nano")
        w = build_model(cfg, 0)
        lw = w.layers[layer]
        setattr(lw, field, getattr(lw, field)[cut])
        with pytest.raises(ConfigError, match=f"tensor layers.{layer}.{field} has shape"):
            greedy_decode(w, cfg, [1, 2], 3)

    def test_expert_stack_of_wrong_count_named(self):
        cfg = preset("nano-moe")
        w = build_model(cfg, 0)
        bank = w.layers[0].moe_bank
        bank.shared = SwigluWeights(*(arr[:0] for arr in bank.shared))
        with pytest.raises(ConfigError, match=r"missing \['layers.0.moe.shared.0.w_down"):
            greedy_decode(w, cfg, [1, 2], 3)


def _per_row_moe(x, moe, bank):
    """Reference MoE FFN: route and combine one row at a time with the
    public one-token helpers, as the model did before batched dispatch."""
    out = np.zeros_like(x)
    for t, row in enumerate(x):
        p = gate_probs(row, bank.router)
        for s in range(moe.n_shared):
            out[t] += swiglu_ffn(row, *_expert(bank.shared, s))
        for i in topk_select(p, moe.k_active):
            out[t] += p[i] * swiglu_ffn(row, *_expert(bank.routed, i))
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


@given(st.data(), st.sampled_from(["dense", "moe"]), st.booleans())
@settings(max_examples=50, deadline=None)
def test_any_prompt_chunking_matches_forward_property(data, variant, use_dca):
    w, cfg = _small_model(variant)
    if use_dca:
        cfg = data.draw(_with_dca(cfg))
    n = data.draw(st.integers(1, cfg.max_ctx))
    ids = [int(t) % cfg.vocab_size for t in Rng(data.draw(st.integers(0, 2**32))).uint64s(n)]
    cuts = data.draw(st.sets(st.integers(1, len(ids)), max_size=6))
    bounds = [0, *sorted(cuts - {len(ids)}), len(ids)]
    full = forward(w, cfg, ids)
    cache = KvCache(cfg.n_layers)
    rotary = _rotary(cfg, len(ids))
    for a, b in zip(bounds, bounds[1:]):
        got = _logits(w, cfg, _blocks(w, cfg, ids[a:b], cache, rotary)[-1])
        assert max_abs_diff(got, full[b - 1]) <= 1e-5


@st.composite
def _with_dca(draw, cfg):
    """``cfg`` with dual-chunk attention of chunk 1-160 and a local window
    1..chunk, and YaRN on or off."""
    chunk = draw(st.integers(1, 160))
    yarn = YarnParams(4.0, chunk) if draw(st.booleans()) else None
    return replace(cfg, dca=DcaParams(chunk, draw(st.integers(1, chunk))), yarn=yarn)


def _seeded_ids(data, cfg, n):
    return [int(t) % cfg.regular_tokens for t in Rng(data.draw(st.integers(0, 2**32))).uint64s(n)]


@given(st.data(), st.sampled_from(["dense", "moe"]))
@settings(max_examples=20, deadline=None)
def test_dca_decode_matches_forward_argmax_loop_property(data, variant):
    w, cfg = _small_model(variant)
    cfg = data.draw(_with_dca(cfg))
    prompt = _seeded_ids(data, cfg, data.draw(st.integers(1, 300)))
    max_new = data.draw(st.integers(1, 4))
    got = greedy_decode(w, cfg, prompt, max_new)
    assert got[:len(prompt)] == prompt
    assert len(got) == len(prompt) + max_new or got[-1] == cfg.effective_eot_id
    for t in range(len(prompt), len(got)):
        # Each token is an argmax of forward over its prefix, ties within 1e-5.
        logits = forward(w, cfg, got[:t])[-1]
        assert logits[got[t]] >= logits.max() - 1e-5


def _stepwise_logits(w, cfg, ids, prompt_len):
    """Logits of every row of ``ids``: the prompt prefilled in one call,
    then one row per call, as :func:`greedy_decode` feeds them."""
    cache = KvCache(cfg.n_layers)
    rotary = _rotary(cfg, len(ids))
    rows = [_blocks(w, cfg, ids[:prompt_len], cache, rotary)]
    rows += [_blocks(w, cfg, [t], cache, rotary) for t in ids[prompt_len:]]
    return _logits(w, cfg, np.concatenate(rows))


@given(st.data(), st.sampled_from(["dense", "moe"]))
@settings(max_examples=20, deadline=None)
def test_dca_decode_within_one_chunk_is_bit_identical_property(data, variant):
    w, cfg = _small_model(variant)
    dca_cfg = data.draw(_with_dca(cfg))
    vanilla_cfg = replace(dca_cfg, dca=None)
    chunk = dca_cfg.dca.chunk_size
    n = data.draw(st.integers(1, chunk))
    max_new = data.draw(st.integers(0, min(chunk - n, 16)))
    prompt = _seeded_ids(data, cfg, n)
    got = greedy_decode(w, dca_cfg, prompt, max_new)
    assert got == greedy_decode(w, vanilla_cfg, prompt, max_new)
    assert np.array_equal(_stepwise_logits(w, dca_cfg, got, n),
                          _stepwise_logits(w, vanilla_cfg, got, n))


def _pinned_layouts():
    nano = preset("nano")
    return {
        "nano-moe": preset("nano-moe"),
        "nano-yarn-dca": replace(nano, max_ctx=400, yarn=YarnParams(4.0, 128),
                                 dca=DcaParams(160, 40)),
    }


# SHA-256 of the forward logits of build_model(cfg, seed=5) with unit norm
# gains, over max_ctx seeded ids, on one OpenBLAS thread. They pin the
# arithmetic of the block loop (MoE dispatch; YaRN frequencies and
# dual-chunk attention over three chunks) bit for bit: a refactor that only
# moves code keeps them. The float32 GEMMs round differently under each
# OpenBLAS kernel set, so the digests are keyed by (numpy version, core
# name). To record a core, run these tests with OPENBLAS_CORETYPE set to it:
# a key without digests fails with the digest of the run. Prescott reports
# itself as Katmai.
LOGITS_SHA256 = {
    ("2.4.6", "SkylakeX"): {
        "nano-moe": "5e7f6bf39dd7c8d626b9e219489b33518e4c2e5594bea9ce73894b374b6dac70",
        "nano-yarn-dca": "169d025874bef786f54e8bb71d9e0e5f9bd9a54d8f13e60112558f0cfb92a357",
    },
    ("2.4.6", "Haswell"): {
        "nano-moe": "4794fc4be44a974c818e60b5cc122f40af077fb04cb43b06cedbfb1dec76ce94",
        "nano-yarn-dca": "a8fac9d07d8ba0c909fc1f0a966ff6d1121c662c7f2d9cc45b0c1a8718223768",
    },
    ("2.4.6", "Sandybridge"): {
        "nano-moe": "3d021184bd14725d0cbdf9862e78d5afa48a24b40aafde8e904a3c641913b78c",
        "nano-yarn-dca": "237f0d9fe7536fac863f943dda5b5d4b03faa86209886523582e27a908b55b5b",
    },
    ("2.4.6", "Katmai"): {
        "nano-moe": "cc873287ee5c523da725f56d4a036c3a62d1fbd3f4a1bd765de1d4fcba918500",
        "nano-yarn-dca": "e9c459c2999920077020d901b24461971cebfdfce036aaa2758aef72fb76bee7",
    },
}


@pytest.mark.parametrize("name", list(_pinned_layouts()))
def test_forward_logits_pinned(name):
    cfg = _pinned_layouts()[name]
    w = build_model(cfg, seed=5)
    for lw in w.layers:
        lw.attn_gamma[:] = 1.0
        lw.ffn_gamma[:] = 1.0
    w.final_gamma[:] = 1.0
    ids = [int(t) % cfg.vocab_size for t in Rng(3).uint64s(cfg.max_ctx)]
    with one_blas_thread():
        logits = forward(w, cfg, ids)
    assert logits.dtype == np.float32
    digest = hashlib.sha256(logits.tobytes()).hexdigest()
    key = (np.__version__, blas_core())
    assert key in LOGITS_SHA256, (
        f"no logit digests recorded for numpy {key[0]} with OpenBLAS core {key[1]}; "
        f"this run gives {name}: {digest}")
    assert digest == LOGITS_SHA256[key][name]
