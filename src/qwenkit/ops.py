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

Long calls run in two halves on two threads (:func:`_halves`,
:func:`_on_halves`): the model's block loop cuts its rows, and attention
its KV heads, so each half calls the same single-threaded BLAS and ufuncs
on a disjoint slice, and the results are bit for bit those of one call.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import DimensionError, InputError, ParameterError

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


def _check_int(name: str, value, low: int | None = None, error=ParameterError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy integer (a
    bool is not one) and, if ``low`` is given, at least ``low``."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def _check_real(name: str, value, error=ParameterError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy integer or
    float (a bool is not one) that is finite: NaN fails every range check
    quietly, and an int past the float range is not finite."""
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    if not _is_finite(value):
        raise error(f"{name} must be finite, got {value!r}")


def _check_fraction(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a finite real in
    [0, 1]."""
    if not (_is_real(value) and _is_finite(value) and 0 <= value <= 1):
        raise ParameterError(f"{name} must be a finite real in [0, 1], got {value!r}")


def _check_ints(obj, names, error) -> None:
    """:func:`_check_int` on each field of ``obj`` in ``names``."""
    for name in names:
        _check_int(name, getattr(obj, name), error=error)


def _check_type(name: str, value, cls: type, error=ParameterError,
                optional: bool = False) -> None:
    """Raise ``error`` unless ``value`` is a ``cls`` (or None, if
    ``optional``): a parameter group of another type would only fail
    later, as a bare ``AttributeError`` deep inside a call."""
    if not (isinstance(value, cls) or optional and value is None):
        want = f"{cls.__name__} or None" if optional else cls.__name__
        raise error(f"{name} must be {want}, got {type(value).__name__}")


def as_f32(x) -> np.ndarray:
    """Coerce array-like input to a contiguous float32 array; input numpy
    cannot convert, such as text or ragged nesting, is an
    :class:`InputError`, and so is a None in it, which numpy would read as
    NaN."""
    try:
        if not isinstance(x, np.ndarray) or x.dtype == object:
            if any(v is None for v in np.asarray(x, dtype=object).flat):
                raise TypeError("None is not a number")
        return np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a float32 array, got {type(x).__name__}: {exc}") from None


def _iter_input(value, name: str):
    """An iterator over ``value``; a value that is not iterable, such as
    None or a number, is an :class:`InputError`."""
    try:
        return iter(value)
    except TypeError:
        raise InputError(f"{name} must be iterable, got {type(value).__name__}") from None


class Rng:
    """splitmix64 stream with Box-Muller normal sampling.

    The i-th raw output after seeding is ``mix(seed + i * golden)``, so bulk
    draws are vectorized over numpy uint64 (which wraps mod 2**64) while the
    running state stays a Python int. Identical seeds give identical streams
    regardless of how draws are batched.

    For the same reason :meth:`_ahead` positions a stream any number of raw
    outputs ahead without drawing, so a range of the stream can be drawn on
    its own. Each draw states what it consumes (:func:`_normal_draws`,
    :func:`_permutation_draws`); ``model.build_model`` and
    ``model.upcycle_model`` draw two ranges at once on two threads
    (:func:`_draw_halves`), and one thread or two give the same bytes.
    """

    def __init__(self, seed: int):
        _check_int("seed", seed)
        self._state = seed & _MASK64

    def _ahead(self, n: int) -> Rng:
        """A new stream ``n`` raw outputs ahead of this one, made without
        drawing: its first output is the one this stream gives after ``n``
        more. This stream does not move."""
        return Rng(self._state + _GOLDEN * n)

    def uint64s(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        _check_int("draw count", n, 0)
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

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals (float64) via Box-Muller.

        Pairs of uniforms (u1, u2) map to
        ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``,
        ``z1 = r sin(2 pi u2)``; outputs are interleaved z0, z1, ...
        An odd count draws a full final pair and discards its z1.
        """
        _check_int("draw count", n, 0)
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
        _check_int("permutation size", n, 0)
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


def _permutation_draws(n: int) -> int:
    """Raw outputs :meth:`Rng.permutation` of ``n`` consumes: one per swap."""
    return max(n - 1, 0)


def sample_normal(rng: Rng, count: int, mean: float, std: float) -> np.ndarray:
    """``count`` draws from Normal(mean, std) as float32."""
    _check_type("rng", rng, Rng)
    _check_int("count", count, 0)
    _check_real("mean", mean)
    _check_real("std", std)
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    out = np.empty(count, dtype=np.float32)
    rng._fill_normals(out, mean, std)
    return out


def _normal_draws(n: int) -> int:
    """Raw outputs ``n`` normals consume (:func:`sample_normal`,
    :meth:`Rng.normals`): a (u1, u2) pair per two, so an odd count discards
    one."""
    return n + n % 2


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax of a 2-D matrix, stabilized by per-row max subtraction."""
    x = as_f32(x).copy()  # for the kernel to overwrite
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


# CPUs this process may run on; with fewer than two, nothing is split.
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without affinity masks
    _CPUS = os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS takes from the environment as it
    loads: the first positive one of the variables it reads, in its order,
    else None (it then runs a thread per CPU)."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return None


# Nothing is split unless BLAS runs one thread. With two OpenBLAS threads
# its GEMMs already use both CPUs: a split dense forward of 640 rows took
# 1.25x the time of one unsplit call. Its own split of a call's rows also
# moves with the row count, so on AVX2 kernels the halves would round
# differently from one call.
_BLAS_ONE_THREAD = _blas_threads() == 1

# Fewest rows either half of a split call may get. Handing an empty half
# to the worker thread and waiting for it took about 90 us on a 2-vCPU VM.
# There, on the benchmark model (hidden 256, one OpenBLAS thread), a split
# forward first beat one call at halves of about 60 rows on the dense model
# and of about 120 rows on the MoE model, whose expert dispatch stays on
# one thread.
_MIN_HALF_ROWS = 128
# Fewest raw outputs either part of a split draw may consume. On a 2-vCPU
# VM, normals drawn in 16 equal tensors on two threads took 1.04-1.08x the
# time of one thread at 65,536 draws a part, and 0.92-0.94x at 98,304 and
# 131,072 (medians of 60). This minimum keeps both nano presets (107,072
# and 119,872 scalars) on one thread.
_MIN_HALF_DRAWS = 1 << 17
# A cut falls on a multiple of this many rows. OpenBLAS runs a GEMM in
# tiles of rows (24 rows for float32 on AVX2) and rounds the last, partial
# tile of a call differently, so a cut inside a tile would change the rows
# next to it.
_ROW_TILE = 24

# The one worker thread, started by the first split call.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    # A forked child holds only the thread that forked: the worker it
    # inherited never runs, so the child starts its own.
    global _worker, _worker_lock
    _worker = None
    _worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _halves(n: int) -> tuple[slice, ...]:
    """Rows ``[0, n)`` as one slice, or as two cut at a multiple of
    :data:`_ROW_TILE` near the middle when the process may run on two CPUs,
    BLAS runs one thread and each half has at least :data:`_MIN_HALF_ROWS`
    rows."""
    cut = (n + _ROW_TILE) // (2 * _ROW_TILE) * _ROW_TILE
    if _CPUS < 2 or not _BLAS_ONE_THREAD or min(cut, n - cut) < _MIN_HALF_ROWS:
        return (slice(0, n),)
    return slice(0, cut), slice(cut, n)


def _draw_halves(draws: list[int]) -> tuple[tuple[slice, int], ...]:
    """Items that consume ``draws`` raw outputs each, in stream order, as
    one part or two: each part a slice of the items and the stream offset
    of its first. Two parts, cut between items where the draws split most
    evenly, when the process may run on two CPUs and each part draws at
    least :data:`_MIN_HALF_DRAWS`; BLAS plays no part in a draw."""
    offsets = list(itertools.accumulate(draws, initial=0))
    total = offsets[-1]
    cut = min(range(len(offsets)), key=lambda i: abs(2 * offsets[i] - total))
    if _CPUS < 2 or min(offsets[cut], total - offsets[cut]) < _MIN_HALF_DRAWS:
        return ((slice(0, len(draws)), 0),)
    return (slice(0, cut), 0), (slice(cut, len(draws)), offsets[cut])


def _on_halves(fn, parts: tuple, *args) -> None:
    """``fn(part, *args)`` for each of one or two parts, which must touch
    disjoint outputs: the first part on the calling thread, the second on
    the worker thread. Returns once both are done; an exception of either
    is raised then, the calling thread's first."""
    if len(parts) == 1:
        fn(parts[0], *args)
        return
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="qwenkit-half")
        future = _worker.submit(fn, parts[1], *args)
    try:
        fn(parts[0], *args)
    finally:
        wait((future,))
    future.result()
