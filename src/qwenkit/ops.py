"""Deterministic float32 numeric kernel.

Every tensor in this package is a ``numpy.ndarray`` of ``float32``. The
public functions pass C-contiguous arrays (:func:`as_f32`, which copies
only when it must) to their kernels, but the kernels also take strided
views, such as the per-head q/k/v views that the model's block loop splits
from one projection.
The public operations are pure functions; the only mutable object is
:class:`Rng`, a seeded splitmix64 generator feeding Box-Muller normal
sampling, pinned so that weight initialization and shuffles reproduce
byte-for-byte from a seed. Normals are drawn in bounded slices, and
permutations are built without a loop over the swaps; both are
bit-identical to one draw over the whole count and to the Fisher-Yates
swap loop, and leave the stream at the same position.

Kernel contract, here and in ``layers`` and ``moe``: a public function
checks its arguments (coercion to float32, shapes, ranges) and then calls
a private kernel of the same name with a leading underscore, which holds
the math and trusts its inputs. Callers that have checked everything once,
such as the model's block loop, call the kernels directly. A kernel that
works in place, such as :func:`_softmax_rows`, says so, and its public
function hands it a copy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Normals drawn per slice by Rng._fill_normals; even, so (u1, u2) pairs
# stay together.
_NORMAL_SLICE = 1 << 14


def _is_int(value) -> bool:
    # int() would turn "7" into 7 and 1.9 into 1; bool is an int subclass.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # A str such as "1e4" would only fail later, in a comparison.
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _check_ints(obj, names, error) -> None:
    """Raise ``error`` naming the first field of ``obj`` in ``names`` that
    is not a Python or numpy integer (a bool is not one)."""
    _check_fields(obj, names, error, _is_int, "an integer")


def _check_reals(obj, names, error) -> None:
    """Raise ``error`` naming the first field of ``obj`` in ``names`` that
    is not a Python or numpy integer or float (a bool is not one), else the
    first that is NaN, infinite or an int past the float range: NaN fails
    every range check quietly."""
    _check_fields(obj, names, error, _is_real, "a real number")
    _check_fields(obj, names, error, _is_finite, "finite")


def _check_fields(obj, names, error, ok, kind) -> None:
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise error(f"{name} must be {kind}, got {value!r}")


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
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._next_into(z, z, np.empty_like(z))
        return z

    def _next_into(self, ramp: np.ndarray, z: np.ndarray, scratch: np.ndarray) -> None:
        """Overwrite ``z`` with the next ``z.size`` raw outputs, in place.
        ``ramp`` holds ``golden * (1 .. z.size)`` mod 2**64 (it may be ``z``
        itself) and ``scratch`` is a uint64 buffer of the same size."""
        np.add(ramp, np.uint64(self._state), out=z)
        self._state = (self._state + _GOLDEN * z.size) & _MASK64
        for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=scratch)
            z ^= scratch
            if mult is not None:
                z *= np.uint64(mult)

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
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        self._fill_normals(out)
        return out

    def _fill_normals(self, out: np.ndarray, mean=None, std=None) -> None:
        """Fill the 1-D contiguous ``out`` with the next ``out.size``
        normals, or with ``mean + std * z`` when ``std`` is given.

        The draws run in slices of ``_NORMAL_SLICE`` values through a few
        buffers reused across slices, so the temporaries stay bounded
        whatever the count. Every step is elementwise in the stream index
        and a slice holds whole (u1, u2) pairs, so the values are those of
        one draw over the whole count: computed in float64 as in
        :meth:`normals`, with log1p, sqrt, cos and sin on contiguous
        arrays, and rounded once to ``out``'s dtype.
        """
        n = out.shape[0]
        if n == 0:
            return
        size = min(_NORMAL_SLICE, n + n % 2)
        ramp = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        bits = np.empty(size, dtype=np.uint64)
        u = np.empty(size, dtype=np.float64)
        r, cos, sin = (np.empty(size // 2, dtype=np.float64) for _ in range(3))
        for start in range(0, n, size):
            dst = out[start:start + size]
            k = dst.shape[0] + dst.shape[0] % 2  # whole (u1, u2) pairs
            p = k // 2
            # u is free until the uniforms are written: the mixing scratch.
            self._next_into(ramp[:k], bits[:k], u[:k].view(np.uint64))
            bits[:k] >>= np.uint64(11)
            uk = u[:k]
            uk[...] = bits[:k]  # exact below 2**53; far faster than a mixed-type multiply
            uk *= 2.0**-53
            rp, cp, sp = r[:p], cos[:p], sin[:p]
            np.negative(uk[0::2], out=rp)
            np.log1p(rp, out=rp)
            rp *= -2.0
            np.sqrt(rp, out=rp)
            np.multiply(uk[1::2], 2.0 * np.pi, out=cp)  # theta
            np.sin(cp, out=sp)
            np.cos(cp, out=cp)
            for part in (cp, sp):
                part *= rp
                if std is not None:
                    part *= std
                    part += mean
            dst[0::2] = cp
            dst[1::2] = sp[:dst.shape[0] // 2]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); one raw draw per swap.

        Equal to the swap loop ``for i = n-1 .. 1: swap(perm[i],
        perm[j_s])``, where ``j_s = raw_s % (i + 1)`` and ``raw_s`` is the
        draw of step ``s = n-1-i``, but with no loop over the swaps. Step
        ``s`` fixes position ``i`` for good to the value then at ``j_s``,
        and carries the value then at ``i`` to ``j_s``. So the value at a
        position just before step ``s`` is the one carried there by the
        latest earlier step aimed at it, or the position itself if none
        was; what a step fixes and what it carries are found by following
        chains of such links. One sort of the packed keys ``j_s * n + s``
        lists each target's steps in order, and pointer doubling resolves
        the chains: O(n log n) time, O(n) memory.
        """
        if n < 0:
            raise ParameterError(f"permutation size must be >= 0, got {n}")
        if n < 2:
            return np.arange(n, dtype=np.int64)
        raw = self.uint64s(n - 1)
        steps = np.arange(n, dtype=np.int64)
        # A last step n-1 (i = j = 0) leaves the loop unchanged and fixes
        # position 0 like every other.
        target = np.zeros(n, dtype=np.int64)
        np.remainder(raw, np.arange(n, 1, -1, dtype=np.uint64), out=target[:-1],
                     casting="unsafe")
        key = np.sort(target * n + steps)
        by_target = key // n
        by_step = key - by_target * n  # steps grouped by target, in order
        # Each step links to the latest step aimed at its i = n-1-s (the end
        # of that group in by_step), or to itself if none was, and then
        # carries its own i. A step that swaps in place is the latest aimed
        # at its i, so it links to itself too; what it carries is never
        # read, since no later step aims at its i.
        count = np.bincount(target, minlength=n)[::-1]
        end = np.cumsum(count[::-1])[::-1]
        link = np.where(count > 0, by_step[end - 1], steps)
        while True:
            nxt = link[link]
            if np.array_equal(nxt, link):
                break
            link = nxt
        carried = (n - 1) - link  # the chain's first step carried its own i
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(by_target[1:], by_target[:-1], out=first[1:])
        perm = np.empty(n, dtype=np.int64)
        perm[(n - 1) - by_step] = np.where(first, by_target, carried[np.roll(by_step, 1)])
        return perm


def sample_normal(rng: Rng, count: int, mean: float, std: float) -> np.ndarray:
    """``count`` draws from Normal(mean, std) as float32."""
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    out = np.empty(count, dtype=np.float32)
    rng._fill_normals(out, mean, std)
    return out


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax of a 2-D matrix, stabilized by per-row max subtraction."""
    x = np.array(x, dtype=np.float32, order="C")  # a copy for the kernel to overwrite
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-D matrix, got shape {x.shape}")
    if x.shape[1] == 0:
        raise DimensionError(f"softmax_rows got empty rows, shape {x.shape}")
    return _softmax_rows(x)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Overwrite the 2-D ``x`` with its row softmax and return it: the
    shift, the exponentials and the result all live in ``x``."""
    np.subtract(x, x.max(axis=1, keepdims=True), out=x)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def silu(x) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    return _silu(as_f32(x))


def _silu(x: np.ndarray) -> np.ndarray:
    # Imported on first use: scipy adds about 22 MB to the resident size of
    # a process that imports qwenkit only for the tokenizer or decontam.
    from scipy.special import expit

    out = expit(x)
    out *= x
    return out
