"""Deterministic float32 numeric kernel.

Every tensor in this package is a C-contiguous ``numpy.ndarray`` of
``float32``. Operations here are pure functions; the only mutable object
is :class:`Rng`, a seeded splitmix64 generator feeding Box-Muller normal
sampling, pinned so that weight initialization and shuffles reproduce
byte-for-byte from a seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def as_f32(x) -> np.ndarray:
    """Coerce array-like input to a contiguous float32 array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32))


class Rng:
    """splitmix64 stream with Box-Muller normal sampling.

    The i-th raw output after seeding is ``mix(seed + i * golden)``, so bulk
    draws are vectorized over numpy uint64 (which wraps mod 2**64) while the
    running state stays a Python int. Identical seeds give identical streams
    regardless of how draws are batched.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def uint64s(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + np.uint64(_GOLDEN) * idx
        self._state = (self._state + _GOLDEN * n) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def next_uint64(self) -> int:
        return int(self.uint64s(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` float64 uniforms in [0, 1), 53-bit resolution."""
        return (self.uint64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals (float64) via Box-Muller.

        Pairs of uniforms (u1, u2) map to
        ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``,
        ``z1 = r sin(2 pi u2)``; outputs are interleaved z0, z1, ...
        An odd count draws a full final pair and discards its z1.
        """
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = (2.0 * np.pi) * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); one raw draw per swap."""
        if n < 0:
            raise ParameterError(f"permutation size must be >= 0, got {n}")
        if n < 2:
            return np.arange(n, dtype=np.int64)
        # Swapping in a Python list is several times faster than indexing
        # numpy scalars; the draws and swaps are the same.
        raw = self.uint64s(n - 1).tolist()
        perm = list(range(n))
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = raw[step] % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def sample_normal(rng: Rng, count: int, mean: float, std: float) -> np.ndarray:
    """``count`` draws from Normal(mean, std) as float32."""
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    z = rng.normals(count)
    return (mean + std * z).astype(np.float32)


def matmul(a, b) -> np.ndarray:
    """Product of two 2-D float32 matrices."""
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )
    return a @ b


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax of a 2-D matrix, stabilized by per-row max subtraction."""
    x = as_f32(x)
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-D matrix, got shape {x.shape}")
    if x.shape[1] == 0:
        raise DimensionError(f"softmax_rows got empty rows, shape {x.shape}")
    # One fresh buffer holds the shift, the exponentials and the result.
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def silu(x) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    from scipy.special import expit

    x = as_f32(x)
    return x * expit(x)
