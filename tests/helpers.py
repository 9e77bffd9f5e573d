"""Shared test utilities."""

import struct
import zlib

import numpy as np

from qwenkit.ops import Rng


def rand_f32(rng: Rng, *shape: int) -> np.ndarray:
    """Standard-normal float32 tensor drawn from the package Rng."""
    n = int(np.prod(shape)) if shape else 1
    return rng.normals(n).astype(np.float32).reshape(shape)


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0


def plant_in_container(path, tensor: str, value: float) -> None:
    """Overwrite the first scalar of ``tensor`` in a saved weight container
    with ``value`` and refresh the checksum, so only the value is wrong."""
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    start = 16 + header_len
    for line in blob[16:start].decode("utf-8").splitlines():
        name, *rest = line.split()
        if name == tensor:
            struct.pack_into("<f", blob, start + int(rest[-1]), value)
            break
    else:
        raise KeyError(tensor)
    end = len(blob) - 4
    struct.pack_into("<I", blob, end, zlib.crc32(blob[start:end]) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
