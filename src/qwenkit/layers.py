"""Dense decoder-block primitives.

RMSNorm, the SwiGLU feed-forward, rotary position embedding, grouped-query
attention with additive QKV bias handled at the projection site, and the
KV cache for incremental decoding: a preallocated per-layer buffer of
rotated keys and values, and one cached attention that attends any number
of new rows (a prompt chunk or one decoded token) against it. Full-sequence
and cached attention share one causal kernel that works on a block of
query rows against the keys up to the block's end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, ParameterError, StateError
from .ops import as_f32, silu, softmax_rows

# Causal mask sentinel: large-negative float32 whose exp underflows to exactly 0,
# so masked positions can never leak into earlier rows.
MASK_SENTINEL = np.float32(-3.4e38)

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
    use_qkv_bias: bool = True

    def __post_init__(self):
        if self.n_q_heads < 1 or self.n_kv_heads < 1:
            raise ParameterError(
                f"head counts must be >= 1, got {self.n_q_heads}/{self.n_kv_heads}"
            )
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ParameterError(
                f"n_q_heads ({self.n_q_heads}) must be divisible by "
                f"n_kv_heads ({self.n_kv_heads})"
            )
        if self.head_dim < 1 or self.head_dim % 2 != 0:
            raise ParameterError(f"head_dim must be positive and even, got {self.head_dim}")

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
        if self.base < 1:
            raise ParameterError(f"rope base must be >= 1, got {self.base}")
        if self.head_dim < 1 or self.head_dim % 2 != 0:
            raise ParameterError(f"head_dim must be positive and even, got {self.head_dim}")


class SwigluWeights(NamedTuple):
    """Gate/up/down weight triple of one SwiGLU FFN (or one expert)."""

    w_gate: np.ndarray  # [intermediate, hidden]
    w_up: np.ndarray  # [intermediate, hidden]
    w_down: np.ndarray  # [hidden, intermediate]


def rms_norm(x, gamma, eps: float = 1e-6) -> np.ndarray:
    """x * gamma / sqrt(mean(x^2) + eps), mean over the last dimension."""
    x = as_f32(x)
    gamma = as_f32(gamma)
    if eps < 0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    if gamma.ndim != 1 or gamma.shape[0] != x.shape[-1]:
        raise DimensionError(
            f"gamma shape {gamma.shape} does not match last dimension of x {x.shape}"
        )
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x * gamma / np.sqrt(ms + np.float32(eps))


def swiglu_ffn(x, w_gate, w_up, w_down) -> np.ndarray:
    """w_down @ (silu(w_gate @ x) * (w_up @ x)), bias-free.

    ``x`` may be a single vector [d] or a row batch [seq, d]; rows are
    independent.
    """
    x = as_f32(x)
    w_gate = as_f32(w_gate)
    w_up = as_f32(w_up)
    w_down = as_f32(w_down)
    if w_gate.shape != w_up.shape or w_down.shape != (w_gate.shape[1], w_gate.shape[0]):
        raise DimensionError(
            f"inconsistent FFN weights: gate {w_gate.shape}, up {w_up.shape}, "
            f"down {w_down.shape}"
        )
    if x.shape[-1] != w_gate.shape[1]:
        raise DimensionError(
            f"input width {x.shape} does not match hidden size {w_gate.shape[1]}"
        )
    gated = silu(x @ w_gate.T) * (x @ w_up.T)
    return gated @ w_down.T


def rope_freqs(params: RopeParams) -> np.ndarray:
    """Inverse frequencies base**(-2i/head_dim) for i in 0..head_dim/2."""
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
    pos = np.asarray(positions, dtype=np.int64)
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
    """Rotate the feature pairs of [heads, seq, head_dim] x by a rope table."""
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
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
    if head_dim % 2 != 0:
        raise ParameterError(f"head_dim must be even, got {head_dim}")
    return _rotate(x, *_rope_table(positions, inv_freq, seq, head_dim))


def _check_qkv_shapes(q, k, v, params: AttentionParams):
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise DimensionError(
            f"q/k/v must be [heads, seq, head_dim], got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.shape[0] != params.n_q_heads or q.shape[2] != params.head_dim:
        raise DimensionError(
            f"q shape {q.shape} does not match {params.n_q_heads} heads "
            f"of width {params.head_dim}"
        )
    for name, t in (("k", k), ("v", v)):
        if t.shape[0] != params.n_kv_heads or t.shape[2] != params.head_dim:
            raise DimensionError(
                f"{name} shape {t.shape} does not match {params.n_kv_heads} heads "
                f"of width {params.head_dim}"
            )
    if not (q.shape[1] == k.shape[1] == v.shape[1]):
        raise DimensionError(
            f"sequence lengths disagree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if q.shape[1] == 0:
        raise DimensionError(f"q/k/v hold an empty sequence, q shape {q.shape}")


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
    one softmax per row then weighs ``values[:, :end]``, giving
    [n_kv, g * rows, d].
    """
    n_kv, group_rows, end = logits.shape
    rows = group_rows // g
    logits *= scale
    # Only the last ``rows`` keys, the block's own diagonal, hold a future key.
    diagonal = logits.reshape(n_kv, g, rows, end)[..., end - rows:]
    r = np.arange(rows)
    diagonal[:, :, r > r[:, None]] = MASK_SENTINEL
    probs = softmax_rows(logits.reshape(n_kv * group_rows, end))
    return np.matmul(probs.reshape(logits.shape), values[:, :end])


def gqa_attention(
    q,
    k,
    v,
    params: AttentionParams,
    positions: Sequence[int],
    rope: RopeParams,
    scale_mult: float = 1.0,
    inv_freq=None,
) -> np.ndarray:
    """Causal grouped-query attention over a full sequence.

    q is [n_q_heads, seq, head_dim]; k and v are [n_kv_heads, seq, head_dim].
    RoPE is applied to q and k at ``positions`` (one cos/sin table for
    both) before the logits ``scale_mult * q.k / sqrt(head_dim)``. Queries
    go in blocks of at most :data:`ATTN_BLOCK` rows, and a block scores only
    the keys up to its last row, so the causal upper triangle beyond the
    block is never computed and score memory is O(block * seq). Within the
    block, keys after a row are masked with :data:`MASK_SENTINEL`, and one
    exact softmax per row over its causal prefix feeds the value
    aggregation. Returns [seq, n_q_heads * head_dim] with heads concatenated.

    ``inv_freq`` overrides the frequencies derived from ``rope`` (used by
    context-extension schemes that rescale them).
    """
    q = as_f32(q)
    k = as_f32(k)
    v = as_f32(v)
    _check_qkv_shapes(q, k, v, params)
    if inv_freq is None:
        inv_freq = rope_freqs(rope)
    seq = q.shape[1]
    n_kv, g, d = params.n_kv_heads, params.group_size, params.head_dim
    cos, sin = _rope_table(positions, inv_freq, seq, d)
    qr = _rotate(q, cos, sin)
    keys_t = _rotate(k, cos, sin).transpose(0, 2, 1)
    scale = np.float32(scale_mult / math.sqrt(d))
    out = np.empty((seq, params.n_q_heads, d), dtype=np.float32)
    for start in range(0, seq, ATTN_BLOCK):
        end = min(start + ATTN_BLOCK, seq)
        logits = np.matmul(_group_queries(qr[:, start:end], n_kv), keys_t[:, :, :end])
        block = _attend_causal(logits, v, g, scale)
        out[start:end] = block.reshape(params.n_q_heads, end - start, d).transpose(1, 0, 2)
    return out.reshape(seq, params.n_q_heads * d)


class KvCache:
    """Per-layer store of past keys and values in one preallocated buffer.

    Keys are stored already rotated at their absolute positions; values are
    stored as projected. Both live in one float32 buffer
    ``[2, n_layers, n_kv_heads, capacity, head_dim]`` (K at index 0, V at
    index 1) that the first append allocates, taking the head layout from
    its entries. An append past the capacity doubles it and keeps what is
    held. One decoding session owns one cache; positions are contiguous
    from 0, and each layer keeps its own length.
    """

    def __init__(self, n_layers: int = 1, capacity: int = 16):
        if n_layers < 1:
            raise ParameterError(f"n_layers must be >= 1, got {n_layers}")
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.n_layers = n_layers
        self.capacity = capacity
        self._kv: np.ndarray | None = None
        self._lengths = [0] * n_layers

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.n_layers:
            raise ParameterError(f"layer {layer} outside [0, {self.n_layers})")

    def length(self, layer: int = 0) -> int:
        self._check_layer(layer)
        return self._lengths[layer]

    def append(self, k_rotated, v, layer: int = 0) -> None:
        """Store [n_kv_heads, rows, head_dim] keys and values after the
        layer's last position."""
        self._check_layer(layer)
        k_rotated = as_f32(k_rotated)
        v = as_f32(v)
        if k_rotated.shape != v.shape or k_rotated.ndim != 3:
            raise DimensionError(
                f"cache entries must be matching [n_kv_heads, rows, head_dim] blocks, "
                f"got {k_rotated.shape} and {v.shape}"
            )
        heads, rows, head_dim = k_rotated.shape
        start = self._lengths[layer]
        end = start + rows
        if self._kv is None:
            self.capacity = max(self.capacity, end)
            self._kv = np.empty((2, self.n_layers, heads, self.capacity, head_dim), np.float32)
        elif (heads, head_dim) != (self._kv.shape[2], self._kv.shape[4]):
            raise DimensionError(
                f"cache holds {self._kv.shape[2]} heads of width {self._kv.shape[4]}, "
                f"got entries {k_rotated.shape}"
            )
        elif end > self.capacity:
            held = self._kv
            self.capacity = max(end, 2 * self.capacity)
            self._kv = np.empty(held.shape[:3] + (self.capacity, head_dim), np.float32)
            self._kv[:, :, :, : held.shape[3]] = held
        self._kv[0, layer, :, start:end] = k_rotated
        self._kv[1, layer, :, start:end] = v
        self._lengths[layer] = end

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
    position: int,
    layer: int = 0,
    scale_mult: float = 1.0,
    inv_freq=None,
) -> np.ndarray:
    """Causal grouped-query attention of new positions against one cached layer.

    q is [n_q_heads, rows, head_dim]; k and v are [n_kv_heads, rows, head_dim]
    for positions ``position`` .. ``position + rows - 1``, and ``position``
    must equal the layer's cache length (contiguous decoding). Rotates q and
    k with one cos/sin table, appends the rotated keys and the values to the
    cache, and runs the new rows as one query block of the causal kernel
    :func:`gqa_attention` uses, against every cached key: each new query
    attends the keys up to its own position. ``rows`` is not capped at
    :data:`ATTN_BLOCK`; callers choose the chunk. Returns
    [rows, n_q_heads * head_dim]: the matching rows of :func:`gqa_attention`
    over the whole sequence.
    """
    q = as_f32(q)
    k = as_f32(k)
    v = as_f32(v)
    _check_qkv_shapes(q, k, v, params)
    expected = cache.length(layer)
    if position != expected:
        raise StateError(
            f"non-contiguous decode: cache layer {layer} holds {expected} positions "
            f"but got position {position}"
        )
    if inv_freq is None:
        inv_freq = rope_freqs(rope)
    rows = q.shape[1]
    d = params.head_dim
    cos, sin = _rope_table(range(position, position + rows), inv_freq, rows, d)
    cache.append(_rotate(k, cos, sin), v, layer)
    qg = _group_queries(_rotate(q, cos, sin), params.n_kv_heads)
    logits = np.matmul(qg, cache.keys(layer).transpose(0, 2, 1))
    scale = np.float32(scale_mult / math.sqrt(d))
    out = _attend_causal(logits, cache.values(layer), params.group_size, scale)
    out = out.reshape(params.n_q_heads, rows, d).transpose(1, 0, 2)
    return out.reshape(rows, params.n_q_heads * d)


def decode_step(
    cache: KvCache,
    new_q,
    new_k,
    new_v,
    params: AttentionParams,
    rope: RopeParams,
    *,
    position: int,
    layer: int = 0,
    scale_mult: float = 1.0,
    inv_freq=None,
) -> tuple[np.ndarray, KvCache]:
    """Attend one new token against the cached history of one layer.

    The one-row form of :func:`cached_attention`: new_q is
    [n_q_heads, head_dim]; new_k and new_v are [n_kv_heads, head_dim].
    ``position`` must equal the current cache length. Appends the rotated
    key and the value, then returns the attention output for the new
    position, [n_q_heads * head_dim], and the cache.
    """
    new_q = as_f32(new_q)
    new_k = as_f32(new_k)
    new_v = as_f32(new_v)
    if new_q.shape != (params.n_q_heads, params.head_dim):
        raise DimensionError(
            f"new_q shape {new_q.shape} does not match "
            f"({params.n_q_heads}, {params.head_dim})"
        )
    if new_k.shape != (params.n_kv_heads, params.head_dim) or new_k.shape != new_v.shape:
        raise DimensionError(
            f"new_k/new_v shapes {new_k.shape}/{new_v.shape} do not match "
            f"({params.n_kv_heads}, {params.head_dim})"
        )
    out = cached_attention(cache, new_q[:, None], new_k[:, None], new_v[:, None], params,
                           rope, position=position, layer=layer, scale_mult=scale_mult,
                           inv_freq=inv_freq)
    return out[0], cache
