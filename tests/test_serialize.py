import hashlib
import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import join_safetensors, plant_in_container, safetensors_tensors, split_safetensors
from test_weight_layout import BENCH_CFG, BENCH_MOE
from qwenkit.config import format_config, preset
from qwenkit.errors import ConfigError, FormatError, NumericError
from qwenkit.longctx import YarnParams
from qwenkit.model import ModelWeights, _tensor_shapes, _tensors, build_model, upcycle_model
from qwenkit.serialize import load_weights, save_weights


def _all_tensors(w):
    yield "embedding", w.embedding
    yield "final_gamma", w.final_gamma
    if w.lm_head is not None:
        yield "lm_head", w.lm_head
    for i, lw in enumerate(w.layers):
        for name in ("attn_gamma", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "ffn_gamma"):
            arr = getattr(lw, name)
            if arr is not None:
                yield f"{i}.{name}", arr
        if lw.ffn is not None:
            for part, arr in zip(("w_gate", "w_up", "w_down"), lw.ffn):
                yield f"{i}.ffn.{part}", arr
        else:
            yield f"{i}.router", lw.moe_bank.router
            for kind in ("routed", "shared"):
                stack = getattr(lw.moe_bank, kind)
                for e in range(len(stack.w_gate)):
                    for part in ("w_gate", "w_up", "w_down"):
                        yield f"{i}.{kind}.{e}.{part}", getattr(stack, part)[e]


def _layouts():
    nano, moe = preset("nano"), preset("nano-moe")
    return {
        "nano": nano,
        "nano-moe": moe,
        "nano-untied": replace(nano, tie_embeddings=False),
        "nano-moe-noshared": replace(moe, moe=replace(moe.moe, n_shared=0)),
    }


# SHA-256 of the container of build_model(cfg, seed=7), and of its payload
# (the bytes after the header). They pin the seeded draw order and the
# container bytes: a new payload digest means every seeded model has
# changed, a new file digest alone that the header has.
CONTAINER_SHA256 = {
    "nano": "66d954fb00aedd9c9bd6289320fbc5190622994d4aebbfbce8755f8c12839115",
    "nano-moe": "1c931a70374d66c772f1adf41a5d6e839dc8c0fcb51e61ff66355747af78179a",
    "nano-untied": "3b8c806d892c413e29108434ecba8d3b1212511178a143961640d4d7cb124298",
    "nano-moe-noshared": "615fd8c1be70cfcffcdc308992370fb767a7c653e18b9cf0d9999917431aa185",
}
PAYLOAD_SHA256 = {
    "nano": "2c3f3ee472895308a99fc325b3db6465c5e1f131f2abdeed5b5cd9ff1e48a432",
    "nano-moe": "9ebc12fc03f2bf26e5fb57f5f4504d6ec3f13702f2fda7f452bc952c1aca6143",
    "nano-untied": "f37ce71000534c5551c99b536fa81ec961ba522448b0d42287a24892060eff8d",
    "nano-moe-noshared": "db1109a8bb8e454f02d90584e3ace531e473b4f7bbaff42d5fee7af8f7660b5a",
}


# SHA-256 of the payload of the benchmark-size model, build_model(BENCH_CFG,
# seed=20240710), and of its upcycle_model(..., BENCH_MOE, seed=20240711).
# Unlike the nano layouts above, these are drawn on two threads where the
# process may use two CPUs; on one CPU (taskset -c 0) they are drawn inline,
# and the digests are the same.
BENCH_PAYLOAD_SHA256 = {
    "dense": "1d78afd82ee2fce8d09d09ee227adf2596c1733f23e363fc1c38671c01776c3b",
    "moe": "9c0e88c76dbb22f73989ab57548e302135754348b7743b4716cac8f3af516004",
}


def _saved_blob(tmp_path, name: str) -> tuple[ModelWeights, bytes]:
    cfg = _layouts()[name]
    w = build_model(cfg, seed=7)
    save_weights(w, cfg, tmp_path / "m.safetensors")
    return w, (tmp_path / "m.safetensors").read_bytes()


@pytest.mark.parametrize("name", list(CONTAINER_SHA256))
def test_container_bytes_pinned(tmp_path, name):
    _, blob = _saved_blob(tmp_path, name)
    assert hashlib.sha256(blob).hexdigest() == CONTAINER_SHA256[name]


@pytest.mark.parametrize("name", list(PAYLOAD_SHA256))
def test_payload_bytes_pinned(tmp_path, name):
    _, blob = _saved_blob(tmp_path, name)
    _, payload = split_safetensors(blob)
    assert hashlib.sha256(payload).hexdigest() == PAYLOAD_SHA256[name]


def test_bench_payload_bytes_pinned(tmp_path):
    dense = build_model(BENCH_CFG, seed=20240710)
    models = {"dense": (dense, BENCH_CFG),
              "moe": upcycle_model(dense, BENCH_CFG, BENCH_MOE, seed=20240711)}
    for name, (w, cfg) in models.items():
        save_weights(w, cfg, tmp_path / name)
        _, payload = split_safetensors((tmp_path / name).read_bytes())
        assert hashlib.sha256(payload).hexdigest() == BENCH_PAYLOAD_SHA256[name], name


@pytest.mark.parametrize("name", list(CONTAINER_SHA256))
def test_spec_reader_sees_the_weights(tmp_path, name):
    # A reader that knows only the safetensors spec gets every tensor of
    # the weights, bit for bit.
    w, blob = _saved_blob(tmp_path, name)
    got, want = safetensors_tensors(blob), _tensors(w)
    assert got.keys() == want.keys()
    for key, arr in want.items():
        assert got[key].shape == arr.shape, key
        assert np.array_equal(got[key].view("<u4"), arr.view("<u4")), key


@pytest.mark.parametrize("name", list(CONTAINER_SHA256))
def test_tensors_follow_the_schema(name):
    cfg = _layouts()[name]
    w = build_model(cfg, seed=7)
    tensors = _tensors(w)
    assert {k: v.shape for k, v in tensors.items()} == _tensor_shapes(cfg)
    # the independent walk sees the same arrays (an expert as a view into its
    # stack), each once
    def memory(arr):
        return arr.__array_interface__["data"][0], arr.shape

    walked = [arr for _, arr in _all_tensors(w)]
    assert len(walked) == len(tensors)
    assert {memory(a) for a in walked} == {memory(a) for a in tensors.values()}


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_roundtrip_bit_exact(tmp_path, name):
    cfg = preset(name)
    w = build_model(cfg, seed=11)
    path = tmp_path / f"{name}.safetensors"
    save_weights(w, cfg, path)
    w2, cfg2 = load_weights(path)
    assert cfg2 == cfg
    originals = dict(_all_tensors(w))
    restored = dict(_all_tensors(w2))
    assert originals.keys() == restored.keys()
    for key, arr in originals.items():
        assert np.array_equal(arr, restored[key]), key
        assert restored[key].dtype == np.float32

    # a second save of the same model is byte-identical (canonical layout)
    path2 = tmp_path / "again.safetensors"
    save_weights(w, cfg, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_tied_model_stores_no_lm_head(tmp_path):
    cfg = preset("nano")
    w = build_model(cfg, 0)
    path = tmp_path / "m.safetensors"
    save_weights(w, cfg, path)
    header, _ = split_safetensors(path.read_bytes())
    assert "lm_head" not in header
    w2, _ = load_weights(path)
    assert w2.lm_head is None
    assert w2.output_matrix() is w2.embedding


def test_manifest_sorted_by_name(tmp_path):
    # Tensors are stored in name order, each right after the one before.
    cfg = preset("nano")
    save_weights(build_model(cfg, 0), cfg, tmp_path / "m.safetensors")
    header, payload = split_safetensors((tmp_path / "m.safetensors").read_bytes())
    del header["__metadata__"]
    names = list(header)
    assert names == sorted(names)
    offsets = [header[name]["data_offsets"] for name in names]
    assert [begin for begin, _ in offsets] == [0] + [end for _, end in offsets[:-1]]
    assert offsets[-1][1] == len(payload)


def test_fixed_fields(tmp_path):
    cfg = preset("nano")
    save_weights(build_model(cfg, 0), cfg, tmp_path / "m.safetensors")
    header, payload = split_safetensors((tmp_path / "m.safetensors").read_bytes())
    assert header["__metadata__"] == {"config": format_config(cfg),
                                      "crc32": f"{zlib.crc32(payload):08x}"}
    assert {entry["dtype"] for name, entry in header.items() if name != "__metadata__"} == {"F32"}


def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a saved container's header, in place, and fix its
    length field; the checksum covers only the payload."""
    header, payload = split_safetensors(path.read_bytes())
    edit(header)
    path.write_bytes(join_safetensors(header, payload))


class TestRejection:
    def _saved(self, tmp_path):
        cfg = preset("nano")
        path = tmp_path / "m.safetensors"
        save_weights(build_model(cfg, 0), cfg, path)
        return path, bytearray(path.read_bytes())

    def test_truncated_payload(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(bytes(blob[: len(blob) // 2]))
        with pytest.raises(FormatError, match="truncated|overruns"):
            load_weights(path)

    def test_trailing_bytes(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(bytes(blob) + b"\0")
        with pytest.raises(FormatError, match="longer than its payload"):
            load_weights(path)

    def test_header_overrun(self, tmp_path):
        path, blob = self._saved(tmp_path)
        struct.pack_into("<Q", blob, 0, len(blob) - 7)  # one byte past the end
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="offset 0"):
            load_weights(path)

    def test_checksum_mismatch(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[200_000] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_weights(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "m.safetensors"
        path.write_bytes(b"QW")
        with pytest.raises(FormatError, match="truncated"):
            load_weights(path)

    @pytest.mark.parametrize("text", [b"[" * 200_000, b"[{}]", b"\xff{}"],
                             ids=["deeply-nested", "list", "not-utf8"])
    def test_header_not_a_json_object(self, tmp_path, text):
        path, blob = self._saved(tmp_path)
        _, payload = split_safetensors(blob)
        path.write_bytes(struct.pack("<Q", len(text)) + text + payload)
        with pytest.raises(FormatError, match="JSON"):
            load_weights(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["__metadata__"].update(config=json.loads(h["__metadata__"]["config"])),
         "strings config and crc32"),
        (lambda h: h["__metadata__"].pop("crc32"), "strings config and crc32"),
        (lambda h: h["__metadata__"].update(crc32=None), "strings config and crc32"),
        (lambda h: h["embedding"].update(dtype="F16"), r"\['embedding'\]"),
        (lambda h: h.update(extra=h["embedding"]), r"\['extra'\]"),
        (lambda h: h.pop("embedding"), r"\['embedding'\]"),
    ], ids=["config-not-str", "crc32-missing", "crc32-null", "f16", "extra-tensor",
            "missing-tensor"])
    def test_bad_header(self, tmp_path, edit, message):
        path, _ = self._saved(tmp_path)
        _rewrite_header(path, edit)
        with pytest.raises(FormatError, match=message):
            load_weights(path)

    def test_no_partial_model_on_failure(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        try:
            load_weights(path)
        except FormatError:
            pass
        else:
            pytest.fail("expected FormatError")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_not_saved(tmp_path, bad):
    cfg = preset("nano")
    w = build_model(cfg, 0)
    w.layers[0].wq[3, 5] = bad
    path = tmp_path / "m.safetensors"
    with pytest.raises(NumericError, match="layers.0.wq"):
        save_weights(w, cfg, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tensor_rejected_on_load(tmp_path, bad):
    cfg = preset("nano-moe")
    path = tmp_path / "m.safetensors"
    save_weights(build_model(cfg, 0), cfg, path)
    plant_in_container(path, "layers.1.moe.routed.2.w_up", bad)
    with pytest.raises(FormatError, match="layers.1.moe.routed.2.w_up"):
        load_weights(path)


@pytest.mark.parametrize("weights_cfg, save_cfg, extra", [
    (dict(tie_embeddings=False), {}, r"extra \['lm_head'\]"),
], ids=["untied-lm-head"])
def test_tensor_the_config_does_not_expect_is_not_dropped(tmp_path, weights_cfg, save_cfg,
                                                         extra):
    cfg = preset("nano")
    w = build_model(replace(cfg, **weights_cfg), 0)
    path = tmp_path / "m.safetensors"
    with pytest.raises(ConfigError, match=extra):
        save_weights(w, replace(cfg, **save_cfg), path)
    assert not path.exists()


def test_weights_without_biases_are_refused(tmp_path):
    # Every Qwen2 block has q/k/v biases, so no config lays out a block
    # without them.
    cfg = preset("nano")
    w = build_model(cfg, 0)
    for lw in w.layers:
        lw.bq = lw.bk = lw.bv = None
    path = tmp_path / "m.safetensors"
    with pytest.raises(ConfigError, match=r"tensor layers\.0\.bq has shape \(\), expected"):
        save_weights(w, cfg, path)
    assert not path.exists()


def test_float64_tensor_is_refused_not_cast(tmp_path):
    # save_weights holds weights to the entry check of forward, which takes
    # only float32 arrays: a float64 tensor is refused, not cast.
    cfg = preset("nano")
    w = build_model(cfg, 0)
    w.layers[1].wo = w.layers[1].wo.astype(np.float64)
    path = tmp_path / "m.safetensors"
    with pytest.raises(ConfigError, match=r"tensor layers\.1\.wo must be a float32 array"):
        save_weights(w, cfg, path)
    assert not path.exists()


def test_container_config_with_a_qkv_bias_switch_is_refused(tmp_path):
    cfg = preset("nano")
    path = tmp_path / "m.safetensors"
    save_weights(build_model(cfg, 0), cfg, path)

    def edit(header):
        fields = json.loads(header["__metadata__"]["config"])
        header["__metadata__"]["config"] = json.dumps({**fields, "use_qkv_bias": True})

    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match=r"config metadata: .*unknown keys \['use_qkv_bias'\]"):
        load_weights(path)


def test_container_config_with_an_rms_eps_is_refused(tmp_path):
    # Every model normalizes with layers.RMS_EPS, so a container written
    # while the config held an epsilon names a key the config no longer has.
    cfg = preset("nano")
    path = tmp_path / "m.safetensors"
    save_weights(build_model(cfg, 0), cfg, path)

    def edit(header):
        fields = json.loads(header["__metadata__"]["config"])
        header["__metadata__"]["config"] = json.dumps({**fields, "rms_eps": 1e-06})

    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match=r"config metadata: .*unknown keys \['rms_eps'\]"):
        load_weights(path)


@pytest.mark.parametrize("group, key, value", [
    # valid JSON, fails ModelConfig.validate
    pytest.param(None, "n_kv_heads", 3, id="n_kv_heads = 2-n_kv_heads = 3"),
    pytest.param(None, "max_ctx", 0, id="max_ctx = 128-max_ctx = 0"),
    # fails YarnParams
    pytest.param("yarn", "scale", 0.5, id="yarn.scale = 2.0-yarn.scale = 0.5"),
])
def test_invalid_config_section_is_a_format_error(tmp_path, group, key, value):
    cfg = replace(preset("nano"), yarn=YarnParams(scale=2.0, native_ctx=64))
    path = tmp_path / "m.safetensors"
    save_weights(build_model(cfg, 0), cfg, path)
    load_weights(path)

    def edit(header):
        fields = json.loads(header["__metadata__"]["config"])
        (fields[group] if group else fields)[key] = value
        header["__metadata__"]["config"] = json.dumps(fields)

    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match="config metadata"):
        load_weights(path)
