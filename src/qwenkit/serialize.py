"""Binary weight container.

Layout: magic ``QW2T`` (4 bytes), format version as little-endian u32, a
little-endian u64 header byte length, the UTF-8 header, the raw payload of
little-endian float32 tensors, and a trailing little-endian u32 CRC32 of the
payload.

The header holds a ``[config]`` section in the key = value config format and
a ``[tensors]`` section with one ``name dim0xdim1 offset`` line per tensor,
sorted by name; offsets are relative to the payload start and contiguous.
The tensor names and shapes are the model's weight layout
(``model._tensor_shapes``); tied models store no ``lm_head`` tensor: the
embedding is the projection.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .config import ModelConfig, format_config, parse_config
from .errors import ConfigError, FormatError, NumericError, ParameterError
from .model import ModelWeights, _from_tensors, _tensor_shapes, _tensors

MAGIC = b"QW2T"
VERSION = 1


def save_weights(weights: ModelWeights, cfg: ModelConfig, path) -> None:
    """Write model weights and config; tensors are sorted by name.

    Every tensor ``weights`` holds is written, so a set that differs from
    the layout ``cfg`` implies (a missing tensor, or an extra one such as
    an untied ``lm_head`` under a tied config) raises :class:`FormatError`
    naming the difference, as does a wrong shape. A tensor holding NaN or
    inf raises :class:`NumericError`. Both happen before the file is opened.
    """
    cfg.validate()
    expected = _tensor_shapes(cfg)
    tensors = _tensors(weights)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise FormatError(f"tensor set mismatch: missing {missing}, extra {extra}")
    manifest = []
    arrays = []
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
        arrays.append(arr)
        offset += arr.nbytes
    header = (
        "[config]\n" + format_config(cfg) + "[tensors]\n" + "\n".join(manifest) + "\n"
    ).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        # each array straight from its buffer: no payload-sized copy
        for arr in arrays:
            fh.write(arr)
            crc = zlib.crc32(arr, crc)
        fh.write(struct.pack("<I", crc))


def _parse_header(header: str) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...], int]]]:
    lines = header.splitlines()
    if not lines or lines[0] != "[config]":
        raise FormatError("header must start with a [config] section")
    try:
        split = lines.index("[tensors]")
    except ValueError:
        raise FormatError("header is missing the [tensors] section") from None
    try:
        cfg = parse_config("\n".join(lines[1:split]))
    except (ConfigError, FormatError, ParameterError) as exc:
        raise FormatError(f"[config] section: {exc}") from None
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

    Any violation of the format raises :class:`FormatError`: bad fixed
    fields, a ``[config]`` section that does not parse or validate, a tensor
    set or shape other than the layout of that config, a checksum mismatch,
    or a tensor holding NaN or inf.
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

    expected = _tensor_shapes(cfg)
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
    payload = memoryview(blob)[payload_start:payload_end]
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
    return _from_tensors(arrays, cfg), cfg
