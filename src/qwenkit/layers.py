"""Dense decoder-block primitives.

RMSNorm (its one epsilon is :data:`RMS_EPS`), the SwiGLU feed-forward,
rotary position embedding, grouped-query attention with additive QKV bias
handled at the projection site, and the KV cache: a preallocated per-layer
buffer of rotated keys and values. Cached attention is the one causal
kernel, dual-chunk or not. It appends new rows (a whole prompt, or a
decoded token and its draft) to the cache, at the positions that continue
what it holds, and scores them in query blocks, each against the keys up
to the block's last row. One score buffer per call, sized for the largest
block, serves every block, and the softmax runs in it in place.
Full-sequence attention runs it on a fresh cache. A long call scores the
two halves of the KV heads on two threads.

Each public function checks its arguments and then calls its private
kernel (see ``ops``); the attention functions, ``longctx.dca_attention``
too, share one entry check, :func:`_attention_args`. The attention kernels
take a precomputed rotary cos/sin table, so a caller can build it once for
every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, ParameterError, StateError
from .ops import (
    _check_int,
    _check_real,
    _check_type,
    _halves,
    _on_halves,
    _silu,
    _softmax_rows,
    as_f32,
)

if TYPE_CHECKING:
    from .longctx import DcaParams

# Causal mask sentinel: large-negative float32 whose exp underflows to exactly 0,
# so masked positions can never leak into earlier rows.
MASK_SENTINEL = np.float32(-3.4e38)

# RMSNorm's epsilon: the default of rms_norm and the value every model block
# and the final norm use.
RMS_EPS = 1e-6

# Most query rows one attention block scores at a time. A block's scores are
# [n_kv_heads, group_size * ATTN_BLOCK, keys up to the block's last row].
ATTN_BLOCK = 128


@dataclass(frozen=True)
class AttentionParams:
    """Head layout of one attention block.

    ``n_q_heads`` must be a multiple of ``n_kv_heads``; the quotient is the
    group size g, and query head h reads key/value head h // g.
    """

    n_q_heads: int
    n_kv_heads: int
    head_dim: int

    def __post_init__(self):
        _check_int("n_q_heads", self.n_q_heads, 1)
        _check_int("n_kv_heads", self.n_kv_heads, 1)
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ParameterError(
                f"n_q_heads ({self.n_q_heads}) not divisible by "
                f"n_kv_heads ({self.n_kv_heads})"
            )
        _check_head_dim(self.head_dim)

    @property
    def group_size(self) -> int:
        return self.n_q_heads // self.n_kv_heads

    @property
    def kv_values_per_token(self) -> int:
        """Scalars cached per token for each of K and V."""
        return self.n_kv_heads * self.head_dim

    @property
    def q_values_per_token(self) -> int:
        return self.n_q_heads * self.head_dim


@dataclass(frozen=True)
class RopeParams:
    """Rotary embedding parameters: frequency base and per-head width."""

    base: float
    head_dim: int

    def __post_init__(self):
        # Named as the ModelConfig field that builds it.
        _check_real("rope_base", self.base, 1)
        _check_head_dim(self.head_dim)


def _check_head_dim(head_dim) -> None:
    # The one head-width rule of AttentionParams, RopeParams and apply_rope.
    _check_int("head_dim", head_dim, 1)
    if head_dim % 2 != 0:
        raise ParameterError(f"head_dim must be even, got {head_dim}")


class SwigluWeights(NamedTuple):
    """Gate/up/down weight triple of one SwiGLU FFN (or one expert)."""

    w_gate: np.ndarray  # [intermediate, hidden]
    w_up: np.ndarray  # [intermediate, hidden]
    w_down: np.ndarray  # [hidden, intermediate]


def _ffn_shapes(inner: int, hidden: int, *lead: int) -> SwigluWeights:
    """The one statement of a SwiGLU triple's shapes: [out, in] matrices of
    ``inner`` channels over ``hidden`` inputs, after the leading axes
    ``lead`` (the expert axis of a stacked bank)."""
    return SwigluWeights((*lead, inner, hidden), (*lead, inner, hidden), (*lead, hidden, inner))


def _ffn_weights(w_gate, w_up, w_down) -> SwigluWeights:
    """The triple as float32 arrays; one whose shapes are not
    :func:`_ffn_shapes` of its 2-D gate is a :class:`DimensionError`."""
    w = SwigluWeights(as_f32(w_gate), as_f32(w_up), as_f32(w_down))
    if w.w_gate.ndim != 2 or tuple(a.shape for a in w) != _ffn_shapes(*w.w_gate.shape):
        raise DimensionError(f"inconsistent FFN weights: gate {w.w_gate.shape}, "
                             f"up {w.w_up.shape}, down {w.w_down.shape}")
    return w


def rms_norm(x, gamma, eps: float = RMS_EPS) -> np.ndarray:
    """x * gamma / sqrt(mean(x^2) + eps), mean over the last dimension."""
    x = as_f32(x)
    gamma = as_f32(gamma)
    _check_real("eps", eps, 0)
    if gamma.ndim != 1 or gamma.shape[0] != x.shape[-1]:
        raise DimensionError(
            f"gamma shape {gamma.shape} does not match last dimension of x {x.shape}"
        )
    return _rms_norm(x, gamma, eps)


def _rms_norm(x: np.ndarray, gamma: np.ndarray, eps: float) -> np.ndarray:
    # One fresh buffer holds the squares and then the result. The mean of
    # squares is the sum and in-place divide np.mean makes for float32,
    # without its Python wrapper.
    out = np.square(x)
    ms = np.add.reduce(out, axis=-1, keepdims=True)
    ms /= x.shape[-1]
    np.multiply(x, gamma, out=out)
    out /= np.sqrt(ms + np.float32(eps))
    return out


def swiglu_ffn(x, w_gate, w_up, w_down) -> np.ndarray:
    """w_down @ (silu(w_gate @ x) * (w_up @ x)), bias-free.

    ``x`` may be a single vector [d] or a row batch [seq, d]; rows are
    independent.
    """
    x = as_f32(x)
    w_gate, w_up, w_down = _ffn_weights(w_gate, w_up, w_down)
    if x.shape[-1] != w_gate.shape[1]:
        raise DimensionError(
            f"input width {x.shape} does not match hidden size {w_gate.shape[1]}"
        )
    return _swiglu_ffn(x, w_gate, w_up, w_down)


def _swiglu_ffn(x, w_gate, w_up, w_down) -> np.ndarray:
    gated = _silu(x @ w_gate.T)
    gated *= x @ w_up.T
    return gated @ w_down.T


def rope_freqs(params: RopeParams) -> np.ndarray:
    """Inverse frequencies base**(-2i/head_dim) for i in 0..head_dim/2."""
    _check_type("params", params, RopeParams)
    half = params.head_dim // 2
    exponents = -2.0 * np.arange(half, dtype=np.float64) / params.head_dim
    return (params.base ** exponents).astype(np.float32)


def _rope_table(positions, inv_freq, seq: int, head_dim: int):
    """cos and sin, each [seq, head_dim / 2], of the angles
    positions[s] * inv_freq[i]: one table rotates every tensor at those
    positions."""
    inv_freq = as_f32(inv_freq)
    if inv_freq.shape != (head_dim // 2,):
        raise DimensionError(
            f"inv_freq shape {inv_freq.shape} does not match head_dim {head_dim}"
        )
    pos = np.asarray(positions)
    # np.int64 would truncate 2.5 to 2; an empty list reads as float64.
    if pos.size and pos.dtype.kind not in "iu":
        raise ParameterError(f"positions must be integers, got dtype {pos.dtype}")
    if pos.ndim != 1 or pos.shape[0] != seq:
        raise DimensionError(
            f"positions length {pos.shape} does not match sequence length {seq}"
        )
    if seq and pos.min() < 0:
        raise ParameterError("positions must be non-negative")
    # Angles in float64 to keep large positions accurate, rotation in float32.
    angles = pos[:, None].astype(np.float64) * inv_freq.astype(np.float64)[None, :]
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the feature pairs of [heads, seq, head_dim] x by a rope table,
    into a new C-contiguous array whatever the strides of x."""
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty(x.shape, np.float32)
    out_even = out[..., 0::2]
    out_odd = out[..., 1::2]
    # even * cos - odd * sin and even * sin + odd * cos, written in place
    # with one temporary for the odd products.
    np.multiply(even, cos, out=out_even)
    odd_term = odd * sin
    out_even -= odd_term
    np.multiply(even, sin, out=out_odd)
    np.multiply(odd, cos, out=odd_term)
    out_odd += odd_term
    return out


def apply_rope(x, positions: Sequence[int], inv_freq) -> np.ndarray:
    """Rotate adjacent feature pairs of x by position-proportional angles.

    ``x`` has shape [heads, seq, head_dim]; pair (x[..., 2i], x[..., 2i+1])
    is rotated by angle positions[s] * inv_freq[i]. Norm-preserving.
    """
    x = as_f32(x)
    if x.ndim != 3:
        raise DimensionError(f"apply_rope expects [heads, seq, head_dim], got {x.shape}")
    heads, seq, head_dim = x.shape
    _check_head_dim(head_dim)
    return _rotate(x, *_rope_table(positions, inv_freq, seq, head_dim))


def _attention_args(q, k, v, params: AttentionParams, rope: RopeParams,
                    scale_mult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry check of every public attention function: ``params`` an
    :class:`AttentionParams`, ``rope`` a :class:`RopeParams` and
    ``scale_mult`` a finite real, else :class:`ParameterError`; q, k and v
    as float32 [heads, rows, head_dim] blocks of the head layout of
    ``params`` with the same, nonzero number of rows, and ``rope`` of the
    same head width, else :class:`DimensionError`."""
    _check_type("params", params, AttentionParams)
    _check_type("rope", rope, RopeParams)
    q, k, v = as_f32(q), as_f32(k), as_f32(v)
    d = params.head_dim
    for name, t, heads in (("q", q, params.n_q_heads), ("k", k, params.n_kv_heads),
                           ("v", v, params.n_kv_heads)):
        if t.ndim != 3 or t.shape[0] != heads or t.shape[2] != d:
            raise DimensionError(f"{name} shape {t.shape} is not [{heads}, rows, {d}]")
    if not q.shape[1] == k.shape[1] == v.shape[1]:
        raise DimensionError(f"sequence lengths disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[1] == 0:
        raise DimensionError(f"q/k/v hold an empty sequence, q shape {q.shape}")
    if rope.head_dim != d:
        raise DimensionError(f"rope head_dim {rope.head_dim} does not match {d}")
    _check_real("scale_mult", scale_mult)
    return q, k, v


def _group_queries(q: np.ndarray, n_kv: int) -> np.ndarray:
    """[n_q_heads, rows, d] queries as [n_kv, g * rows, d].

    Query head h reads KV head h // g, so the g query heads of one group
    stack into g * rows rows against their shared KV head, with no copy of
    K or V per query head.
    """
    heads, rows, d = q.shape
    return q.reshape(n_kv, heads // n_kv * rows, d)


def _attend_causal(logits: np.ndarray, values: np.ndarray, g: int, scale) -> np.ndarray:
    """Causal softmax attention of one query block, from its q.k logits.

    ``logits`` is [n_kv, g * rows, end]: query rows grouped per KV head as
    by :func:`_group_queries`, at positions end - rows .. end - 1, against
    keys 0 .. end - 1. In place, the logits are multiplied by ``scale`` and
    keys after a row's own position are masked with :data:`MASK_SENTINEL`;
    one softmax per row, also in place, then weighs ``values[:, :end]``,
    giving [n_kv, g * rows, d].
    """
    n_kv, group_rows, end = logits.shape
    rows = group_rows // g
    logits *= scale
    # Only the last ``rows`` keys, the block's own diagonal, hold a future
    # key, and a one-row block has none.
    if rows > 1:
        diagonal = logits.reshape(n_kv, g, rows, end)[..., end - rows:]
        r = np.arange(rows)
        np.copyto(diagonal, MASK_SENTINEL, where=r > r[:, None])
    _softmax_rows(logits.reshape(n_kv * group_rows, end))
    return np.matmul(logits, values[:, :end])


def gqa_attention(
    q,
    k,
    v,
    params: AttentionParams,
    positions: Sequence[int],
    rope: RopeParams,
    scale_mult: float = 1.0,
) -> np.ndarray:
    """Causal grouped-query attention over a full sequence.

    q is [n_q_heads, seq, head_dim]; k and v are [n_kv_heads, seq, head_dim].
    RoPE is applied to q and k at ``positions`` (one cos/sin table for
    both) before the logits ``scale_mult * q.k / sqrt(head_dim)``. The
    sequence runs through :func:`cached_attention`'s kernel on a fresh
    cache, so score memory is O(block * seq). Returns
    [seq, n_q_heads * head_dim] with heads concatenated.
    """
    q, k, v = _attention_args(q, k, v, params, rope, scale_mult)
    seq = q.shape[1]
    cos, sin = _rope_table(positions, rope_freqs(rope), seq, params.head_dim)
    return _cached_attention(KvCache(1, seq), q, k, v, params, cos, sin, 0, scale_mult)


class KvCache:
    """Per-layer store of past keys and values in one preallocated buffer.

    Keys are stored already rotated at their absolute positions, or under
    dual-chunk attention at their position mod chunk_size; values are
    stored as projected. Both live in one float32 buffer
    ``[2, n_layers, n_kv_heads, capacity, head_dim]`` (K at index 0, V at
    index 1) that the first append allocates, taking the head layout from
    its entries. An append past the capacity doubles it and keeps what is
    held. One decoding session owns one cache; positions are contiguous
    from 0, and each layer keeps its own length.
    """

    def __init__(self, n_layers: int = 1, capacity: int = 16):
        _check_int("n_layers", n_layers, 1)
        _check_int("capacity", capacity, 1)
        self.n_layers = n_layers
        self.capacity = capacity
        self._kv: np.ndarray | None = None
        self._lengths = [0] * n_layers

    def _check_layer(self, layer: int) -> None:
        _check_int("layer", layer, 0, self.n_layers - 1)

    def length(self, layer: int = 0) -> int:
        self._check_layer(layer)
        return self._lengths[layer]

    def _check_entries(self, k_rotated: np.ndarray, v: np.ndarray) -> None:
        """Raise :class:`DimensionError` unless the keys and values are
        matching [n_kv_heads, rows, head_dim] blocks of the head layout the
        cache holds; run before any write."""
        if k_rotated.shape != v.shape or k_rotated.ndim != 3:
            raise DimensionError(
                f"cache entries must be matching [n_kv_heads, rows, head_dim] blocks, "
                f"got {k_rotated.shape} and {v.shape}"
            )
        heads, _, head_dim = k_rotated.shape
        if self._kv is not None and (heads, head_dim) != (self._kv.shape[2], self._kv.shape[4]):
            raise DimensionError(
                f"cache holds {self._kv.shape[2]} heads of width {self._kv.shape[4]}, "
                f"got entries {k_rotated.shape}"
            )

    def _append(self, k_rotated: np.ndarray, v: np.ndarray, layer: int):
        """Store [n_kv_heads, rows, head_dim] keys and values, checked by
        :meth:`_check_entries`, after the layer's last position; returns the
        layer's keys and values, now including the new rows, as writable
        views."""
        heads, rows, head_dim = k_rotated.shape
        start = self._lengths[layer]
        end = start + rows
        if self._kv is None:
            self.capacity = max(self.capacity, end)
            self._kv = np.empty((2, self.n_layers, heads, self.capacity, head_dim), np.float32)
        elif end > self.capacity:
            held = self._kv
            self.capacity = max(end, 2 * self.capacity)
            self._kv = np.empty(held.shape[:3] + (self.capacity, head_dim), np.float32)
            self._kv[:, :, :, : held.shape[3]] = held
        self._kv[0, layer, :, start:end] = k_rotated
        self._kv[1, layer, :, start:end] = v
        self._lengths[layer] = end
        return self._kv[0, layer, :, :end], self._kv[1, layer, :, :end]

    def _truncate(self, length: int) -> None:
        """Forget every position from ``length`` on, in every layer: the
        next append writes over them (a key at position t sits at index t
        of the buffer, under dual-chunk attention too)."""
        self._lengths = [min(n, length) for n in self._lengths]

    def _held(self, which: int, layer: int) -> np.ndarray:
        length = self.length(layer)
        if length == 0:
            raise StateError(f"cache layer {layer} is empty")
        view = self._kv[which, layer, :, :length]
        view.flags.writeable = False
        return view

    def keys(self, layer: int = 0) -> np.ndarray:
        """Rotated keys, [n_kv_heads, length, head_dim]: a read-only view of
        the buffer that does not see later appends."""
        return self._held(0, layer)

    def values(self, layer: int = 0) -> np.ndarray:
        """Values, [n_kv_heads, length, head_dim]; a view like :meth:`keys`."""
        return self._held(1, layer)


def cached_attention(
    cache: KvCache,
    q,
    k,
    v,
    params: AttentionParams,
    rope: RopeParams,
    *,
    layer: int = 0,
    scale_mult: float = 1.0,
) -> np.ndarray:
    """Causal grouped-query attention of new positions against one cached layer.

    q is [n_q_heads, rows, head_dim]; k and v are [n_kv_heads, rows, head_dim]
    for the positions that continue the layer's cache, ``cache.length(layer)``
    on. Rotates q and k with one cos/sin table and appends the rotated keys
    and the values to the cache. The new rows then go in query blocks of at
    most :data:`ATTN_BLOCK` rows, and a block scores only the keys up to its
    last row, so the causal upper triangle beyond the block is never
    computed. Within the block, keys after a row are masked with
    :data:`MASK_SENTINEL`, and one exact softmax per row over its causal
    prefix feeds the value aggregation. Returns [rows, n_q_heads * head_dim]:
    the matching rows of :func:`gqa_attention` over the whole sequence.
    A ``cache`` that is not a :class:`KvCache` is a :class:`ParameterError`;
    entries that do not match the cache's head layout raise
    :class:`DimensionError` and leave the cache unchanged.
    """
    _check_type("cache", cache, KvCache)
    q, k, v = _attention_args(q, k, v, params, rope, scale_mult)
    cache._check_entries(k, v)
    start = cache.length(layer)
    rows = q.shape[1]
    # The kernel reads the table by position and never reads rows before ``start``.
    cos = np.empty((start + rows, params.head_dim // 2), dtype=np.float32)
    sin = np.empty_like(cos)
    cos[start:], sin[start:] = _rope_table(range(start, start + rows), rope_freqs(rope), rows,
                                           params.head_dim)
    return _cached_attention(cache, q, k, v, params, cos, sin, layer, scale_mult)


def _cached_attention(cache: KvCache, q, k, v, params: AttentionParams, cos, sin,
                      layer: int, scale_mult: float, dca: DcaParams | None = None) -> np.ndarray:
    """Kernel of :func:`cached_attention`, and with ``dca`` of
    :func:`~qwenkit.longctx.dca_attention`; vanilla attention is the case of
    one chunk holding everything. ``cos`` and ``sin`` are indexed by position
    (the 2 * chunk_size remapped ones under ``dca``): a new key at t is
    rotated at t, or t mod chunk_size, and appended to the cache. Then, for
    enough rows (:func:`~qwenkit.ops._halves`), the two halves of the KV
    heads attend on two threads; only this thread writes to the cache."""
    rows = q.shape[1]
    n_kv, g, d = params.n_kv_heads, params.group_size, params.head_dim
    start = cache._lengths[layer]
    end = start + rows
    if dca is None:
        chunk = end
        cos_new, sin_new = cos[start:end], sin[start:end]
    else:
        chunk = dca.chunk_size
        pos_mod = np.arange(start, end) % chunk
        cos_new, sin_new = cos[pos_mod], sin[pos_mod]
    keys, values = cache._append(_rotate(k, cos_new, sin_new), v, layer)
    keys_t = keys.transpose(0, 2, 1)
    q_intra = _rotate(q, cos_new, sin_new)
    scale = np.float32(scale_mult / math.sqrt(d))
    out = np.empty((rows, params.n_q_heads, d), dtype=np.float32)
    # Every block's scores, then its softmax, fill a prefix of one buffer
    # per KV head, sized for the largest block: no block allocates its own.
    per_head = g * min(rows, ATTN_BLOCK) * end
    scores = np.empty(n_kv * per_head, dtype=np.float32)

    def attend(kv: slice) -> None:
        """Every query block of the query heads that read KV heads ``kv``."""
        n = kv.stop - kv.start
        qh = slice(kv.start * g, kv.stop * g)
        q_h, q_intra_h, keys_h, values_h = q[qh], q_intra[qh], keys_t[kv], values[kv]
        buf = scores[kv.start * per_head:kv.stop * per_head]
        a = start
        while a < end:
            cs = a - a % chunk
            b = min(a + ATTN_BLOCK, end, cs + chunk)
            blk = slice(a - start, b - start)
            logits = buf[:n * g * (b - a) * b].reshape(n, g * (b - a), b)
            if cs == 0:  # all of vanilla
                np.matmul(_group_queries(q_intra_h[:, blk], n), keys_h[:, :, :b], out=logits)
            else:
                np.matmul(_group_queries(q_intra_h[:, blk], n), keys_h[:, :, cs:b],
                          out=logits[:, :, cs:])
                q_inter = _rotate(q_h[:, blk], cos[chunk - 1], sin[chunk - 1])
                np.matmul(_group_queries(q_inter, n), keys_h[:, :, :cs], out=logits[:, :, :cs])
                # Keys lo .. cs - 1 of the previous chunk take the successive
                # score for the rows they are within local_window of.
                lo = min(cs, a - dca.local_window)
                if lo < cs:
                    succ_pos = pos_mod[blk] + chunk
                    q_succ = _rotate(q_h[:, blk], cos[succ_pos], sin[succ_pos])
                    succ = np.matmul(_group_queries(q_succ, n), keys_h[:, :, lo:cs])
                    near = np.arange(a, b)[:, None] - np.arange(lo, cs) <= dca.local_window
                    np.copyto(logits.reshape(n, g, b - a, b)[..., lo:cs],
                              succ.reshape(n, g, b - a, cs - lo), where=near)
            block = _attend_causal(logits, values_h, g, scale)
            out[blk, qh] = block.reshape(n * g, b - a, d).transpose(1, 0, 2)
            a = b

    # Long calls split the KV heads, and with them the score buffer, in two.
    heads = (slice(0, n_kv),)
    if n_kv > 1 and len(_halves(rows)) == 2:
        heads = slice(0, n_kv // 2), slice(n_kv // 2, n_kv)
    _on_halves(attend, heads)
    return out.reshape(rows, params.n_q_heads * d)


def decode_step(
    cache: KvCache,
    new_q,
    new_k,
    new_v,
    params: AttentionParams,
    rope: RopeParams,
    *,
    layer: int = 0,
    scale_mult: float = 1.0,
) -> tuple[np.ndarray, KvCache]:
    """Attend one new token against the cached history of one layer.

    The one-row call of :func:`cached_attention`: new_q is
    [n_q_heads, head_dim]; new_k and new_v are [n_kv_heads, head_dim],
    else :class:`DimensionError`. Returns the attention output for the new
    position, [n_q_heads * head_dim], and the cache.
    """
    q, k, v = as_f32(new_q), as_f32(new_k), as_f32(new_v)
    if not q.ndim == k.ndim == v.ndim == 2:
        raise DimensionError(f"one-row q/k/v must be [heads, head_dim], got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    return cached_attention(cache, q[:, None], k[:, None], v[:, None], params, rope,
                            layer=layer, scale_mult=scale_mult)[0], cache
