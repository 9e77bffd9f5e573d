import struct
import zlib

import numpy as np
import pytest

from helpers import plant_in_container
from qwenkit.config import preset
from qwenkit.errors import FormatError, NumericError
from qwenkit.model import build_model
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
