"""Shared test utilities."""

import contextlib
import ctypes
import struct
import zlib
from pathlib import Path

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


def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's OpenBLAS, the loaded library that exports the ILP64
    ``scipy_openblas_*64_`` functions of the numpy wheels, else None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        if hasattr(handle, "scipy_openblas_get_corename64_"):
            handle.scipy_openblas_get_corename64_.argtypes = []
            handle.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            handle.scipy_openblas_get_num_threads64_.argtypes = []
            handle.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            handle.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            handle.scipy_openblas_set_num_threads64_.restype = None
            return handle
    return None


def blas_core() -> str:
    """Name of the kernel set numpy's OpenBLAS runs, such as "SkylakeX";
    the CPU or ``OPENBLAS_CORETYPE`` picks it. "unknown" without OpenBLAS."""
    lib = _numpy_openblas()
    if lib is None:
        return "unknown"
    return lib.scipy_openblas_get_corename64_().decode()


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block. Some kernel sets
    (Haswell, Sandybridge) round float32 products differently on one thread
    than on several."""
    lib = _numpy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
