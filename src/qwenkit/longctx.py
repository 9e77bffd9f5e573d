"""Length-extrapolation machinery.

Two cooperating schemes extend a model past its trained context:

* YaRN-style rescaling interpolates rotary frequencies per dimension
  ("NTK-by-parts") and applies a logit temperature so attention entropy
  stays stable at long range.
* Dual-chunk attention remaps relative positions so that every effective
  position any branch feeds into RoPE stays below twice the chunk size,
  while sequences that fit in one chunk reproduce vanilla attention exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .layers import (
    ATTN_BLOCK,
    AttentionParams,
    RopeParams,
    as_f32,
    gqa_attention,
    rope_freqs,
    _attend_causal,
    _check_qkv_shapes,
    _group_queries,
    _rope_table,
    _rotate,
)


@dataclass(frozen=True)
class YarnParams:
    """Frequency-interpolation parameters.

    ``scale`` is target context over native context. Dimensions whose full
    rotation period is short relative to ``native_ctx`` (fast dimensions,
    ramp value 1) keep their frequency; slow dimensions are divided by
    ``scale``; the ramp between ``beta_slow`` and ``beta_fast`` blends the
    two regimes.
    """

    scale: float
    native_ctx: int
    beta_fast: float = 32.0
    beta_slow: float = 1.0
    mscale_coeff: float = 0.1

    def __post_init__(self):
        if self.scale < 1:
            raise ParameterError(f"scale must be >= 1, got {self.scale}")
        if self.native_ctx < 1:
            raise ParameterError(f"native_ctx must be >= 1, got {self.native_ctx}")
        if not (self.beta_fast > self.beta_slow > 0):
            raise ParameterError(
                f"need beta_fast > beta_slow > 0, got {self.beta_fast}/{self.beta_slow}"
            )


@dataclass(frozen=True)
class DcaParams:
    """Chunk size and the local window kept exact across chunk boundaries.

    ``local_window`` defaults to half the chunk size.
    """

    chunk_size: int
    local_window: int | None = None

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.local_window is None:
            object.__setattr__(self, "local_window", max(1, self.chunk_size // 2))
        if not (0 < self.local_window <= self.chunk_size):
            raise ParameterError(
                f"local_window must be in (0, chunk_size], got "
                f"{self.local_window} with chunk_size {self.chunk_size}"
            )


def yarn_adjust(rope: RopeParams, yarn: YarnParams) -> tuple[np.ndarray, float]:
    """Rescaled inverse frequencies and the attention-logit multiplier.

    For each dimension with wavelength lambda = 2 pi / inv_freq, the ratio
    rho = native_ctx / lambda is ramped through
    gamma = clamp((rho - beta_slow) / (beta_fast - beta_slow), 0, 1) and the
    frequency becomes inv_freq * (gamma + (1 - gamma) / scale). The returned
    multiplier (mscale_coeff * ln(scale) + 1)**2 is meant for the
    ``scale_mult`` argument of attention.

    ``scale == 1`` returns the base frequencies bit-identically with
    multiplier 1.0.
    """
    if yarn.scale < 1:
        raise ParameterError(f"scale must be >= 1, got {yarn.scale}")
    inv_freq = rope_freqs(rope)
    if yarn.scale == 1.0:
        return inv_freq, 1.0
    inv64 = inv_freq.astype(np.float64)
    wavelength = 2.0 * np.pi / inv64
    rho = yarn.native_ctx / wavelength
    gamma = np.clip(
        (rho - yarn.beta_slow) / (yarn.beta_fast - yarn.beta_slow), 0.0, 1.0
    )
    adjusted = inv64 * (gamma + (1.0 - gamma) / yarn.scale)
    attn_mult = (yarn.mscale_coeff * math.log(yarn.scale) + 1.0) ** 2
    return adjusted.astype(np.float32), attn_mult


def dca_relpos(i: int, j: int, dca: DcaParams) -> int:
    """Effective relative distance between query position i and key position j.

    Three branches: positions in the same chunk keep the true distance;
    a key in the immediately preceding chunk within ``local_window`` of the
    query also keeps the true distance (exact locality across the boundary);
    everything farther collapses to (chunk_size - 1) - (j mod chunk_size),
    as seen from a query pinned at the last intra-chunk index.
    """
    if j < 0:
        raise ParameterError(f"positions must be non-negative, got j={j}")
    if j > i:
        raise ParameterError(f"key position j={j} must not exceed query position i={i}")
    s_c = dca.chunk_size
    if i // s_c == j // s_c:
        return i - j
    if i // s_c == j // s_c + 1 and i - j <= dca.local_window:
        return i - j
    return (s_c - 1) - (j % s_c)


def dca_attention(
    q,
    k,
    v,
    params: AttentionParams,
    dca: DcaParams,
    rope: RopeParams,
    yarn: YarnParams | None = None,
) -> np.ndarray:
    """Causal grouped-query attention with dual-chunk position remapping.

    Keys are rotated once at positions j mod chunk_size. Queries are rotated
    three ways, at (i mod chunk_size), (i mod chunk_size) + chunk_size, and
    chunk_size - 1, realizing :func:`dca_relpos` for the intra-chunk,
    successive-chunk, and inter-chunk branches; one cos/sin table over the
    2 * chunk_size remapped positions serves all of them. Queries go in
    blocks of at most :data:`~qwenkit.layers.ATTN_BLOCK` rows that never
    straddle a chunk, and a block scores each key range with the one variant
    it needs: keys of its own chunk intra (causally masked), keys of the
    previous chunk successive within ``local_window`` of the query and
    inter beyond it (the only element-wise choice), and all earlier keys
    inter. Keys after the block are never scored. A single softmax per row
    over its causal prefix then feeds the value aggregation, so each query
    row still carries a proper distribution.

    Sequences no longer than one chunk reduce exactly to
    :func:`gqa_attention`. When ``yarn`` is given, its rescaled frequencies
    and attention multiplier are used; the remapped position range
    2 * chunk_size must fit inside scale * native_ctx.
    """
    q = as_f32(q)
    k = as_f32(k)
    v = as_f32(v)
    _check_qkv_shapes(q, k, v, params)
    s_c = dca.chunk_size
    if yarn is not None:
        covered = yarn.scale * yarn.native_ctx
        if 2 * s_c > covered:
            raise ParameterError(
                f"dual-chunk positions reach {2 * s_c - 1} but the rescaled rotary "
                f"range covers only {covered:g} positions"
            )
        inv_freq, scale_mult = yarn_adjust(rope, yarn)
    else:
        inv_freq, scale_mult = rope_freqs(rope), 1.0

    seq = q.shape[1]
    if seq <= s_c:
        # Single chunk: all remapped positions equal the true ones.
        return gqa_attention(
            q, k, v, params, list(range(seq)), rope,
            scale_mult=scale_mult, inv_freq=inv_freq,
        )

    n_kv, g, d = params.n_kv_heads, params.group_size, params.head_dim
    cos, sin = _rope_table(range(2 * s_c), inv_freq, 2 * s_c, d)
    pos_mod = np.arange(seq) % s_c
    keys_t = _rotate(k, cos[pos_mod], sin[pos_mod]).transpose(0, 2, 1)
    scale = np.float32(scale_mult / math.sqrt(d))
    window = dca.local_window
    out = np.empty((seq, params.n_q_heads, d), dtype=np.float32)
    for a, b, cs in _chunk_blocks(seq, s_c):
        rows = b - a
        q_blk = q[:, a:b]
        blk_mod = pos_mod[a:b]
        logits = np.empty((n_kv, g * rows, b), dtype=np.float32)
        # Keys of the block's own chunk: intra, causally masked by the kernel.
        q_intra = _group_queries(_rotate(q_blk, cos[blk_mod], sin[blk_mod]), n_kv)
        np.matmul(q_intra, keys_t[:, :, cs:b], out=logits[:, :, cs:])
        if cs:
            # Keys of earlier chunks: inter, ...
            q_inter = _group_queries(_rotate(q_blk, cos[s_c - 1], sin[s_c - 1]), n_kv)
            np.matmul(q_inter, keys_t[:, :, :cs], out=logits[:, :, :cs])
            # ... except keys lo .. cs - 1 of the previous chunk, each within
            # local_window of some row, which take the successive score for
            # the rows they are within local_window of.
            lo = min(cs, a - window)
            if lo < cs:
                succ_mod = blk_mod + s_c
                q_succ = _group_queries(_rotate(q_blk, cos[succ_mod], sin[succ_mod]), n_kv)
                succ = np.matmul(q_succ, keys_t[:, :, lo:cs])
                near = np.arange(a, b)[:, None] - np.arange(lo, cs) <= window
                np.copyto(logits.reshape(n_kv, g, rows, b)[..., lo:cs],
                          succ.reshape(n_kv, g, rows, cs - lo), where=near)
        block = _attend_causal(logits, v, g, scale)
        out[a:b] = block.reshape(params.n_q_heads, rows, d).transpose(1, 0, 2)
    return out.reshape(seq, params.n_q_heads * d)


def _chunk_blocks(seq: int, chunk_size: int):
    """(start, end, chunk start) of query blocks of at most ATTN_BLOCK rows
    that never straddle a chunk."""
    for cs in range(0, seq, chunk_size):
        ce = min(cs + chunk_size, seq)
        for a in range(cs, ce, ATTN_BLOCK):
            yield a, min(a + ATTN_BLOCK, ce), cs
