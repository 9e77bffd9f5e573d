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
    AttentionParams,
    KvCache,
    RopeParams,
    rope_freqs,
    _attention_args,
    _cached_attention,
    _rope_table,
)
from .ops import _check_int, _check_real, _check_type


# YaRN's ramp bounds, in turns over the native context, and logit
# temperature coefficient (see yarn_adjust); Qwen2's YaRN setting leaves
# them at these defaults.
_BETA_FAST = 32.0
_BETA_SLOW = 1.0
_MSCALE_COEFF = 0.1


@dataclass(frozen=True)
class YarnParams:
    """Frequency-interpolation parameters, the keys ``factor`` and
    ``original_max_position_embeddings`` of a released YaRN config.

    ``scale`` is target context over native context, a finite real >= 1,
    and ``native_ctx`` an integer >= 1; this type owns those two rules.
    How they rescale the frequencies, with the module's fixed ramp
    constants, is :func:`yarn_adjust`'s rule.
    """

    scale: float
    native_ctx: int

    def __post_init__(self):
        _check_real("scale", self.scale, 1)
        _check_int("native_ctx", self.native_ctx, 1)


@dataclass(frozen=True)
class DcaParams:
    """Chunk size and the local window kept exact across chunk boundaries.

    ``local_window`` defaults to half the chunk size.
    """

    chunk_size: int
    local_window: int | None = None

    def __post_init__(self):
        _check_int("chunk_size", self.chunk_size, 1)
        if self.local_window is None:
            object.__setattr__(self, "local_window", max(1, self.chunk_size // 2))
        _check_int("local_window", self.local_window, 1, self.chunk_size)


def yarn_adjust(rope: RopeParams, yarn: YarnParams) -> tuple[np.ndarray, float]:
    """Rescaled inverse frequencies and the attention-logit multiplier.

    For each dimension with wavelength lambda = 2 pi / inv_freq, the ratio
    rho = native_ctx / lambda is ramped through
    gamma = clamp((rho - _BETA_SLOW) / (_BETA_FAST - _BETA_SLOW), 0, 1) and
    the frequency becomes inv_freq * (gamma + (1 - gamma) / scale). The
    returned multiplier (_MSCALE_COEFF * ln(scale) + 1)**2 is meant for the
    ``scale_mult`` argument of attention. The ramp and the multiplier are
    this function's rules; the ranges of ``scale`` and ``native_ctx`` are
    :class:`YarnParams`' and those of the base frequencies
    :class:`~qwenkit.layers.RopeParams`'.

    ``scale == 1`` returns the base frequencies bit-identically with
    multiplier 1.0: every factor gamma + (1 - gamma) / 1 is exactly 1. A
    ``rope`` or ``yarn`` that is not a :class:`~qwenkit.layers.RopeParams`
    or :class:`YarnParams` is a :class:`ParameterError`.
    """
    _check_type("yarn", yarn, YarnParams)
    inv_freq = rope_freqs(rope)
    inv64 = inv_freq.astype(np.float64)
    wavelength = 2.0 * np.pi / inv64
    rho = yarn.native_ctx / wavelength
    gamma = np.clip((rho - _BETA_SLOW) / (_BETA_FAST - _BETA_SLOW), 0.0, 1.0)
    adjusted = inv64 * (gamma + (1.0 - gamma) / yarn.scale)
    attn_mult = (_MSCALE_COEFF * math.log(yarn.scale) + 1.0) ** 2
    return adjusted.astype(np.float32), attn_mult


def dca_relpos(i: int, j: int, dca: DcaParams) -> int:
    """Effective relative distance between query position i and key position j.

    Three branches: positions in the same chunk keep the true distance;
    a key in the immediately preceding chunk within ``local_window`` of the
    query also keeps the true distance (exact locality across the boundary);
    everything farther collapses to (chunk_size - 1) - (j mod chunk_size),
    as seen from a query pinned at the last intra-chunk index. A ``dca``
    that is not a :class:`DcaParams` is a :class:`ParameterError`.
    """
    _check_type("dca", dca, DcaParams)
    _check_int("i", i)
    _check_int("j", j, 0, i)
    s_c = dca.chunk_size
    if i // s_c == j // s_c:
        return i - j
    if i // s_c == j // s_c + 1 and i - j <= dca.local_window:
        return i - j
    return (s_c - 1) - (j % s_c)


def _rotary_table(rope: RopeParams, yarn: YarnParams | None, dca: DcaParams | None,
                  n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The rotary cos and sin tables, each [positions, head_dim / 2], and
    the attention-logit multiplier, YaRN-adjusted if ``yarn`` is given.

    The tables cover positions 0 .. n - 1, or under dual-chunk attention
    the 2 * chunk_size remapped positions, whatever ``n`` is. Those must
    fit inside YaRN's rescaled rotary range scale * native_ctx, else
    :class:`ParameterError`.
    """
    if dca is not None:
        n = 2 * dca.chunk_size
        if yarn is not None and n > yarn.scale * yarn.native_ctx:
            raise ParameterError(
                f"dual-chunk positions reach {n - 1} but the rescaled rotary range "
                f"covers only {yarn.scale * yarn.native_ctx:g} positions"
            )
    inv_freq, scale_mult = (rope_freqs(rope), 1.0) if yarn is None else yarn_adjust(rope, yarn)
    return (*_rope_table(range(n), inv_freq, n, rope.head_dim), scale_mult)


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
    2 * chunk_size remapped positions serves all of them. The sequence runs
    through the KV-cache kernel on a fresh cache, as
    :func:`~qwenkit.layers.gqa_attention` does. Query blocks never straddle
    a chunk, and a block scores each key range with the one variant it
    needs: keys of its own chunk intra (causally masked), keys of the
    previous chunk successive within ``local_window`` of the query and
    inter beyond it (the only element-wise choice), and all earlier keys
    inter. Keys after the block are never scored. A single softmax per row
    over its causal prefix then feeds the value aggregation, so each query
    row still carries a proper distribution.

    A sequence no longer than one chunk has only intra blocks, whose
    remapped positions are the true ones, so it reduces exactly to
    :func:`~qwenkit.layers.gqa_attention`. When ``yarn`` is given, its
    rescaled frequencies and attention multiplier are used; the remapped
    position range 2 * chunk_size must fit inside scale * native_ctx, else
    :class:`ParameterError`, as is a ``dca`` that is not a
    :class:`DcaParams` or a ``yarn`` that is not a :class:`YarnParams`.
    """
    q, k, v = _attention_args(q, k, v, params, rope, 1.0)
    _check_type("dca", dca, DcaParams)
    _check_type("yarn", yarn, YarnParams, optional=True)
    cos, sin, scale_mult = _rotary_table(rope, yarn, dca, 0)
    return _cached_attention(KvCache(1, q.shape[1]), q, k, v, params, cos, sin, 0,
                             scale_mult, dca)
