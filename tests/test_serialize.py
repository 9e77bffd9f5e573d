import hashlib
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import plant_in_container
from qwenkit.config import preset
from qwenkit.errors import FormatError, NumericError
from qwenkit.longctx import YarnParams
from qwenkit.model import _tensor_shapes, _tensors, build_model
from qwenkit.serialize import MAGIC, VERSION, load_weights, save_weights


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
            for e, triple in enumerate(lw.moe_bank.routed):
                for part, arr in zip(("w_gate", "w_up", "w_down"), triple):
                    yield f"{i}.routed.{e}.{part}", arr
            for s, triple in enumerate(lw.moe_bank.shared):
                for part, arr in zip(("w_gate", "w_up", "w_down"), triple):
                    yield f"{i}.shared.{s}.{part}", arr


def _layouts():
    nano, moe = preset("nano"), preset("nano-moe")
    return {
        "nano": nano,
        "nano-moe": moe,
        "nano-untied-nobias": replace(nano, tie_embeddings=False, use_qkv_bias=False),
        "nano-moe-noshared": replace(moe, moe=replace(moe.moe, n_shared=0)),
    }


# SHA-256 of the container of build_model(cfg, seed=7). They pin the seeded
# draw order and the .qw2t v1 bytes: a new digest means every seeded model
# or every saved file has changed.
CONTAINER_SHA256 = {
    "nano": "79e559e1ed2f9d822ffc14abf9c8f10afc47c543a73dc1a6e8f5722a81c341cd",
    "nano-moe": "b25af977e0bf754fc69a0dd96b420771fc4c744eed6a46f1704ed2b74991b1e3",
    "nano-untied-nobias": "f1a169113531ac3fb4d8328ced09a9f96a7fc681a7c832bb4058196967981a2f",
    "nano-moe-noshared": "2b8f804354f397de0cc5bb00b3b089301431124b448fd4c2ed316671dd0db5e1",
}


@pytest.mark.parametrize("name", list(CONTAINER_SHA256))
def test_container_bytes_pinned(tmp_path, name):
    cfg = _layouts()[name]
    path = tmp_path / "m.qw2t"
    save_weights(build_model(cfg, seed=7), cfg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONTAINER_SHA256[name]


@pytest.mark.parametrize("name", list(CONTAINER_SHA256))
def test_tensors_follow_the_schema(name):
    cfg = _layouts()[name]
    w = build_model(cfg, seed=7)
    tensors = _tensors(w)
    assert {k: v.shape for k, v in tensors.items()} == _tensor_shapes(cfg)
    # the independent walk sees the same arrays, each once
    walked = [arr for _, arr in _all_tensors(w)]
    assert len(walked) == len(tensors)
    assert {id(a) for a in walked} == {id(a) for a in tensors.values()}


@pytest.mark.parametrize("name", ["nano", "nano-moe"])
def test_roundtrip_bit_exact(tmp_path, name):
    cfg = preset(name)
    w = build_model(cfg, seed=11)
    path = tmp_path / f"{name}.qw2t"
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
    path2 = tmp_path / "again.qw2t"
    save_weights(w, cfg, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_tied_model_stores_no_lm_head(tmp_path):
    cfg = preset("nano")
    w = build_model(cfg, 0)
    path = tmp_path / "m.qw2t"
    save_weights(w, cfg, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = blob[16 : 16 + hlen].decode("utf-8")
    assert "lm_head" not in header
    w2, _ = load_weights(path)
    assert w2.lm_head is None
    assert w2.output_matrix() is w2.embedding


def test_manifest_sorted_by_name(tmp_path):
    cfg = preset("nano")
    save_weights(build_model(cfg, 0), cfg, tmp_path / "m.qw2t")
    blob = (tmp_path / "m.qw2t").read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = blob[16 : 16 + hlen].decode("utf-8")
    names = [line.split()[0] for line in
             header.split("[tensors]\n", 1)[1].strip().splitlines()]
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_fixed_fields(tmp_path):
    cfg = preset("nano")
    save_weights(build_model(cfg, 0), cfg, tmp_path / "m.qw2t")
    blob = (tmp_path / "m.qw2t").read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack_from("<I", blob, 4)[0] == VERSION
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    payload = blob[16 + hlen : -4]
    assert struct.unpack_from("<I", blob, len(blob) - 4)[0] == zlib.crc32(payload)


class TestRejection:
    def _saved(self, tmp_path):
        cfg = preset("nano")
        path = tmp_path / "m.qw2t"
        save_weights(build_model(cfg, 0), cfg, path)
        return path, bytearray(path.read_bytes())

    def test_corrupted_magic(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic at offset 0"):
            load_weights(path)

    def test_unsupported_version(self, tmp_path):
        path, blob = self._saved(tmp_path)
        struct.pack_into("<I", blob, 4, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 9 at offset 4"):
            load_weights(path)

    def test_truncated_payload(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(bytes(blob[: len(blob) // 2]))
        with pytest.raises(FormatError, match="truncated|overruns"):
            load_weights(path)

    def test_header_overrun(self, tmp_path):
        path, blob = self._saved(tmp_path)
        struct.pack_into("<Q", blob, 8, 2**40)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="offset 8"):
            load_weights(path)

    def test_checksum_mismatch(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[200_000] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_weights(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "m.qw2t"
        path.write_bytes(b"QW")
        with pytest.raises(FormatError, match="truncated"):
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
    path = tmp_path / "m.qw2t"
    with pytest.raises(NumericError, match="layers.0.wq"):
        save_weights(w, cfg, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tensor_rejected_on_load(tmp_path, bad):
    cfg = preset("nano-moe")
    path = tmp_path / "m.qw2t"
    save_weights(build_model(cfg, 0), cfg, path)
    plant_in_container(path, "layers.1.moe.routed.2.w_up", bad)
    with pytest.raises(FormatError, match="layers.1.moe.routed.2.w_up"):
        load_weights(path)


@pytest.mark.parametrize("weights_cfg, save_cfg, extra", [
    (dict(tie_embeddings=False), {}, r"extra \['lm_head'\]"),
    ({}, dict(use_qkv_bias=False), r"extra \['layers.0.bk', 'layers.0.bq', 'layers.0.bv'"),
], ids=["untied-lm-head", "qkv-biases"])
def test_tensor_the_config_does_not_expect_is_not_dropped(tmp_path, weights_cfg, save_cfg,
                                                         extra):
    cfg = preset("nano")
    w = build_model(replace(cfg, **weights_cfg), 0)
    path = tmp_path / "m.qw2t"
    with pytest.raises(FormatError, match=extra):
        save_weights(w, replace(cfg, **save_cfg), path)
    assert not path.exists()


def _rewrite_header(path, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in a saved container's header and fix its
    length field; the checksum covers only the payload."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = blob[16:16 + hlen].decode("utf-8")
    assert old in header
    header = header.replace(old, new, 1).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + hlen:])


@pytest.mark.parametrize("old, new", [
    ("n_kv_heads = 2", "n_kv_heads = 3"),  # valid syntax, fails ModelConfig.validate
    ("max_ctx = 128", "max_ctx = 0"),
    ("yarn.scale = 2.0", "yarn.scale = 0.5"),  # fails YarnParams
])
def test_invalid_config_section_is_a_format_error(tmp_path, old, new):
    cfg = replace(preset("nano"), yarn=YarnParams(scale=2.0, native_ctx=64))
    path = tmp_path / "m.qw2t"
    save_weights(build_model(cfg, 0), cfg, path)
    load_weights(path)
    _rewrite_header(path, old, new)
    with pytest.raises(FormatError, match=r"\[config\] section"):
        load_weights(path)
