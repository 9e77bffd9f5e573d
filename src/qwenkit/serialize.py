"""Binary weight container: a safetensors file.

A little-endian u64 header length, a UTF-8 JSON header, then the payload:
the tensors as little-endian float32, row-major, sorted by name and
contiguous. The header maps each name to ``{"dtype": "F32", "shape":
[...], "data_offsets": [begin, end]}`` (offsets from the payload start)
and ``__metadata__`` to the strings ``config`` (the JSON config format)
and ``crc32`` (the payload's CRC32 as 8 hex digits). The names and shapes are the weight layout of that config
(``model._tensor_shapes``), so the config determines the rest of the
header; a tied model stores no ``lm_head``. Loaded weights take the
storage order of ``model._from_tensors``: every matrix but the embedding
column-major.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .config import ModelConfig, format_config, parse_config
from .errors import FormatError, NumericError, QwenKitError
from .model import ModelWeights, _check_weights, _from_tensors, _tensor_shapes
from .ops import _file_errors


def _entries(shapes: dict[str, tuple[int, ...]]) -> dict[str, dict]:
    """The header entry of each tensor, sorted by name, offsets contiguous."""
    entries = {}
    offset = 0
    for name in sorted(shapes):
        end = offset + 4 * math.prod(shapes[name])
        entries[name] = {"dtype": "F32", "shape": list(shapes[name]),
                         "data_offsets": [offset, end]}
        offset = end
    return entries


def save_weights(weights: ModelWeights, cfg: ModelConfig, path) -> None:
    """Write model weights and config; tensors are sorted by name.

    The weights pass the entry check of ``model.forward`` first: weights
    or a ``cfg`` of another type, a tensor set other than the layout ``cfg``
    implies (a missing tensor, or an extra one such as an untied
    ``lm_head`` under a tied config), a wrong shape and a tensor that is
    not a float32 array each raise :class:`ConfigError` naming the
    difference. A tensor holding NaN or inf raises :class:`NumericError`.
    All happen before the file is opened; a ``path`` that cannot be
    written is an :class:`InputError`.
    """
    tensors = _check_weights(weights, cfg)
    for name in sorted(tensors):
        if not np.isfinite(tensors[name]).all():
            raise NumericError(f"tensor {name} holds non-finite values; not saved")
    # The CRC is patched in after the payload, so the payload is streamed once.
    meta = {"crc32": "00000000", "config": format_config(cfg)}
    header = json.dumps({"__metadata__": meta, **_entries(_tensor_shapes(cfg))},
                        separators=(",", ":")).encode("utf-8")
    crc_at = 8 + header.index(b'"crc32":"') + len(b'"crc32":"')
    crc = 0
    with _file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        # One row-major copy at a time (none for a row-major float32 tensor),
        # not a payload-sized list of them: each is dropped before the next.
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            fh.write(arr)
            crc = zlib.crc32(arr, crc)
            del arr
        fh.seek(crc_at)
        fh.write(f"{crc:08x}".encode("ascii"))


def load_weights(path) -> tuple[ModelWeights, ModelConfig]:
    """Read a weight container back; bit-exact inverse of :func:`save_weights`.

    Any violation of the format raises :class:`FormatError`, among them a
    header other than the one :func:`save_weights` writes for the config it
    holds, a file size other than the payload's end, a checksum mismatch
    and a tensor holding NaN or inf. A ``path`` that cannot be read is an
    :class:`InputError`.
    """
    with _file_errors(path, "read"), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fixed = fh.read(8)
        if len(fixed) < 8:
            raise FormatError(
                f"file truncated at offset {len(fixed)}: too short for the header length")
        (header_len,) = struct.unpack("<Q", fixed)
        if header_len > size - 8:
            raise FormatError(
                f"header length {header_len} at offset 0 overruns file of {size} bytes")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise FormatError(f"header at offset 8 is not UTF-8 JSON: {exc}") from None
        meta = header.pop("__metadata__", None) if isinstance(header, dict) else None
        if not (isinstance(meta, dict) and meta.keys() == {"config", "crc32"}
                and all(isinstance(v, str) for v in meta.values())):
            raise FormatError(
                "header must be a JSON object whose __metadata__ holds the strings "
                "config and crc32, and nothing else")
        try:
            cfg = parse_config(meta["config"])
        except QwenKitError as exc:
            raise FormatError(f"config metadata: {exc}") from None
        shapes = _tensor_shapes(cfg)
        entries = _entries(shapes)
        if header != entries:
            wrong = sorted(k for k in header.keys() | entries.keys()
                           if header.get(k) != entries.get(k))
            raise FormatError(f"tensor entries {wrong[:3]} differ from the layout of the config")
        payload_end = 8 + header_len + 4 * sum(map(math.prod, shapes.values()))
        if size != payload_end:
            problem = "truncated" if size < payload_end else "longer than its payload"
            raise FormatError(
                f"file of {size} bytes is {problem}, which ends at offset {payload_end}")

        # Each tensor is read straight into its own array; the CRC runs over
        # the arrays in payload order. Only the dict refers to them, so
        # _from_tensors frees each one as it converts it.
        arrays = {}
        computed = 0
        for name in entries:
            arrays[name] = np.empty(shapes[name], dtype="<f4")
            if fh.readinto(arrays[name]) != arrays[name].nbytes:
                raise FormatError(f"file truncated inside tensor {name}")
            computed = zlib.crc32(arrays[name], computed)
    if f"{computed:08x}" != meta["crc32"]:
        raise FormatError(
            f"checksum mismatch over the payload at offset {8 + header_len}: "
            f"stored {meta['crc32']!r}, computed {computed:08x}")
    for name in arrays:
        if not np.isfinite(arrays[name]).all():
            raise FormatError(f"tensor {name} holds non-finite values")
        arrays[name] = arrays[name].astype(np.float32, copy=False)
    return _from_tensors(arrays, cfg), cfg
