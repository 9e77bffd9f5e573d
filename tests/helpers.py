"""Shared test utilities."""

import contextlib
import ctypes
import json
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


# The one dtype qwenkit writes, as the safetensors spec names it.
_SAFETENSORS_DTYPES = {"F32": "<f4"}


def split_safetensors(blob) -> tuple[dict, memoryview]:
    """The JSON header (``__metadata__`` included) and the payload of the
    bytes of a safetensors file, read by the spec alone: a little-endian u64
    header length, the header, then the payload."""
    (header_len,) = struct.unpack_from("<Q", blob)
    return json.loads(bytes(blob[8:8 + header_len])), memoryview(blob)[8 + header_len:]


def join_safetensors(header: dict, payload) -> bytes:
    """A safetensors file of ``header`` and ``payload``; the inverse of
    :func:`split_safetensors` up to the header's whitespace."""
    text = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(text)) + text + bytes(payload)


def safetensors_tensors(blob) -> dict[str, np.ndarray]:
    """Every tensor of the bytes of a safetensors file, as an array over
    ``blob`` at its ``data_offsets``; with a bytearray ``blob``, writing to
    an array edits the bytes."""
    header, payload = split_safetensors(blob)
    header.pop("__metadata__", None)
    tensors = {}
    for name, entry in header.items():
        begin, end = entry["data_offsets"]
        arr = np.frombuffer(payload[begin:end], dtype=_SAFETENSORS_DTYPES[entry["dtype"]])
        tensors[name] = arr.reshape(entry["shape"])
    return tensors


def plant_in_container(path, tensor: str, value: float) -> None:
    """Overwrite the first scalar of ``tensor`` in a saved weight container
    with ``value`` and refresh the checksum, so only the value is wrong."""
    blob = bytearray(path.read_bytes())
    safetensors_tensors(blob)[tensor].flat[0] = value
    header, payload = split_safetensors(blob)
    header["__metadata__"]["crc32"] = f"{zlib.crc32(payload):08x}"
    path.write_bytes(join_safetensors(header, payload))


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
