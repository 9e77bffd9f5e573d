"""Binary weight container.

Layout: magic ``QW2T`` (4 bytes), format version as little-endian u32, a
little-endian u64 header byte length, the UTF-8 header, the raw payload of
little-endian float32 tensors, and a trailing little-endian u32 CRC32 of the
payload.

The header holds a ``[config]`` section in the key = value config format and
a ``[tensors]`` section with one ``name dim0xdim1 offset`` line per tensor,
sorted by name; offsets are relative to the payload start and contiguous.
Tied models store no ``lm_head`` tensor: the embedding is the projection.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .config import ModelConfig, format_config, parse_config
from .errors import FormatError, NumericError
from .layers import SwigluWeights
from .model import LayerWeights, ModelWeights
from .moe import ExpertBank

MAGIC = b"QW2T"
VERSION = 1


def _expected_tensors(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    q_width = cfg.n_q_heads * cfg.head_dim
    kv_width = cfg.n_kv_heads * cfg.head_dim
    names: dict[str, tuple[int, ...]] = {
        "embedding": (cfg.vocab_size, cfg.hidden),
        "final_norm.gamma": (cfg.hidden,),
    }
    if not cfg.tie_embeddings:
        names["lm_head"] = (cfg.vocab_size, cfg.hidden)
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        names[f"{p}.attn_gamma"] = (cfg.hidden,)
        names[f"{p}.wq"] = (q_width, cfg.hidden)
        names[f"{p}.wk"] = (kv_width, cfg.hidden)
        names[f"{p}.wv"] = (kv_width, cfg.hidden)
        names[f"{p}.wo"] = (cfg.hidden, q_width)
        if cfg.use_qkv_bias:
            names[f"{p}.bq"] = (q_width,)
            names[f"{p}.bk"] = (kv_width,)
            names[f"{p}.bv"] = (kv_width,)
        names[f"{p}.ffn_gamma"] = (cfg.hidden,)
        if cfg.moe is None:
            for part, shape in _triple_shapes(cfg.ffn_intermediate, cfg.hidden).items():
                names[f"{p}.ffn.{part}"] = shape
        else:
            names[f"{p}.moe.router"] = (cfg.moe.n_routed, cfg.hidden)
            triple = _triple_shapes(cfg.moe.expert_dim, cfg.hidden)
            for e in range(cfg.moe.n_routed):
                for part, shape in triple.items():
                    names[f"{p}.moe.routed.{e}.{part}"] = shape
            for s in range(cfg.moe.n_shared):
                for part, shape in triple.items():
                    names[f"{p}.moe.shared.{s}.{part}"] = shape
    return names


def _triple_shapes(intermediate: int, hidden: int) -> dict[str, tuple[int, ...]]:
    return {
        "w_gate": (intermediate, hidden),
        "w_up": (intermediate, hidden),
        "w_down": (hidden, intermediate),
    }


def _collect_tensors(weights: ModelWeights, cfg: ModelConfig) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {
        "embedding": weights.embedding,
        "final_norm.gamma": weights.final_gamma,
    }
    if not cfg.tie_embeddings:
        out["lm_head"] = weights.lm_head
    for i, lw in enumerate(weights.layers):
        p = f"layers.{i}"
        out[f"{p}.attn_gamma"] = lw.attn_gamma
        out[f"{p}.wq"] = lw.wq
        out[f"{p}.wk"] = lw.wk
        out[f"{p}.wv"] = lw.wv
        out[f"{p}.wo"] = lw.wo
        if cfg.use_qkv_bias:
            out[f"{p}.bq"] = lw.bq
            out[f"{p}.bk"] = lw.bk
            out[f"{p}.bv"] = lw.bv
        out[f"{p}.ffn_gamma"] = lw.ffn_gamma
        if lw.ffn is not None:
            for part, arr in zip(("w_gate", "w_up", "w_down"), lw.ffn):
                out[f"{p}.ffn.{part}"] = arr
        else:
            out[f"{p}.moe.router"] = lw.moe_bank.router
            for e, triple in enumerate(lw.moe_bank.routed):
                for part, arr in zip(("w_gate", "w_up", "w_down"), triple):
                    out[f"{p}.moe.routed.{e}.{part}"] = arr
            for s, triple in enumerate(lw.moe_bank.shared):
                for part, arr in zip(("w_gate", "w_up", "w_down"), triple):
                    out[f"{p}.moe.shared.{s}.{part}"] = arr
    return out


def save_weights(weights: ModelWeights, cfg: ModelConfig, path) -> None:
    """Write model weights and config; tensors are sorted by name.

    A tensor holding NaN or inf raises :class:`NumericError` before the
    file is opened.
    """
    cfg.validate()
    expected = _expected_tensors(cfg)
    tensors = _collect_tensors(weights, cfg)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise FormatError(f"tensor set mismatch: missing {missing}, extra {extra}")
    manifest = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype="<f4"))
        if arr.shape != expected[name]:
            raise FormatError(
                f"tensor {name} has shape {arr.shape}, expected {expected[name]}"
            )
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor {name} holds non-finite values; not saved")
        dims = "x".join(str(d) for d in arr.shape)
        manifest.append(f"{name} {dims} {offset}")
        blob = arr.tobytes(order="C")
        blobs.append(blob)
        offset += len(blob)
    header = (
        "[config]\n" + format_config(cfg) + "[tensors]\n" + "\n".join(manifest) + "\n"
    ).encode("utf-8")
    payload = b"".join(blobs)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _parse_header(header: str) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...], int]]]:
    lines = header.splitlines()
    if not lines or lines[0] != "[config]":
        raise FormatError("header must start with a [config] section")
    try:
        split = lines.index("[tensors]")
    except ValueError:
        raise FormatError("header is missing the [tensors] section") from None
    cfg = parse_config("\n".join(lines[1:split]))
    manifest = []
    for line in lines[split + 1 :]:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"bad manifest line: {line!r}")
        name, dims, off = parts
        try:
            shape = tuple(int(d) for d in dims.split("x"))
            offset = int(off)
        except ValueError:
            raise FormatError(f"bad manifest line: {line!r}") from None
        if any(d < 1 for d in shape) or offset < 0:
            raise FormatError(f"bad manifest line: {line!r}")
        manifest.append((name, shape, offset))
    return cfg, manifest


def load_weights(path) -> tuple[ModelWeights, ModelConfig]:
    """Read a weight container back; bit-exact inverse of :func:`save_weights`.

    Any violation of the format, a tensor holding NaN or inf included,
    raises :class:`FormatError`.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 16:
        raise FormatError(f"file truncated at offset {len(blob)}: too short for the fixed fields")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic at offset 0: expected {MAGIC!r}, got {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise FormatError(f"unsupported format version {version} at offset 4")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if header_end > len(blob):
        raise FormatError(
            f"header length {header_len} at offset 8 overruns file of {len(blob)} bytes"
        )
    try:
        header = blob[16:header_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"header at offset 16 is not valid UTF-8: {exc}") from None
    cfg, manifest = _parse_header(header)

    expected = _expected_tensors(cfg)
    names = [name for name, _, _ in manifest]
    if names != sorted(names):
        raise FormatError("manifest is not sorted by tensor name")
    if set(names) != set(expected) or len(names) != len(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        raise FormatError(f"tensor set mismatch: missing {missing}, extra {extra}")

    offset = 0
    for name, shape, off in manifest:
        if shape != expected[name]:
            raise FormatError(f"tensor {name} has shape {shape}, expected {expected[name]}")
        if off != offset:
            raise FormatError(f"tensor {name} at offset {off}, expected contiguous {offset}")
        offset += 4 * int(np.prod(shape))
    payload_size = offset

    payload_start = header_end
    payload_end = payload_start + payload_size
    if payload_end + 4 > len(blob):
        raise FormatError(
            f"file truncated: payload and checksum need {payload_end + 4} bytes, "
            f"file ends at offset {len(blob)}"
        )
    payload = blob[payload_start:payload_end]
    (stored_crc,) = struct.unpack_from("<I", blob, payload_end)
    computed = zlib.crc32(payload) & 0xFFFFFFFF
    if stored_crc != computed:
        raise FormatError(
            f"checksum mismatch at offset {payload_end}: stored {stored_crc:#010x}, "
            f"computed {computed:#010x}"
        )

    arrays = {}
    for name, shape, off in manifest:
        nbytes = 4 * int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=off)
            .reshape(shape)
            .astype(np.float32, copy=True)
        )
        if not np.isfinite(arrays[name]).all():
            raise FormatError(f"tensor {name} holds non-finite values")
    return _assemble(arrays, cfg), cfg


def _assemble(arrays: dict[str, np.ndarray], cfg: ModelConfig) -> ModelWeights:
    layers = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        if cfg.moe is None:
            ffn = SwigluWeights(
                arrays[f"{p}.ffn.w_gate"], arrays[f"{p}.ffn.w_up"], arrays[f"{p}.ffn.w_down"]
            )
            bank = None
        else:
            ffn = None
            bank = ExpertBank(
                routed=[
                    SwigluWeights(
                        arrays[f"{p}.moe.routed.{e}.w_gate"],
                        arrays[f"{p}.moe.routed.{e}.w_up"],
                        arrays[f"{p}.moe.routed.{e}.w_down"],
                    )
                    for e in range(cfg.moe.n_routed)
                ],
                shared=[
                    SwigluWeights(
                        arrays[f"{p}.moe.shared.{s}.w_gate"],
                        arrays[f"{p}.moe.shared.{s}.w_up"],
                        arrays[f"{p}.moe.shared.{s}.w_down"],
                    )
                    for s in range(cfg.moe.n_shared)
                ],
                router=arrays[f"{p}.moe.router"],
            )
        layers.append(
            LayerWeights(
                attn_gamma=arrays[f"{p}.attn_gamma"],
                wq=arrays[f"{p}.wq"],
                bq=arrays.get(f"{p}.bq"),
                wk=arrays[f"{p}.wk"],
                bk=arrays.get(f"{p}.bk"),
                wv=arrays[f"{p}.wv"],
                bv=arrays.get(f"{p}.bv"),
                wo=arrays[f"{p}.wo"],
                ffn_gamma=arrays[f"{p}.ffn_gamma"],
                ffn=ffn,
                moe_bank=bank,
            )
        )
    return ModelWeights(
        embedding=arrays["embedding"],
        layers=layers,
        final_gamma=arrays["final_norm.gamma"],
        lm_head=arrays.get("lm_head"),
    )
