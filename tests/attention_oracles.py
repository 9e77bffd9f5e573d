"""Dense reference attention kernels.

These build the whole [n_q_heads, seq, seq] score matrix, upper triangle
included, with every KV head repeated per query head, and take one masked
softmax over it: the straightforward form of causal GQA and of dual-chunk
attention, kept as oracles for the blockwise kernels in ``qwenkit``.
"""

import math

import numpy as np

from qwenkit.layers import MASK_SENTINEL, apply_rope, rope_freqs
from qwenkit.longctx import yarn_adjust
from qwenkit.ops import softmax_rows


def _masked_attention(logits, v, group_size, keep):
    """Mask ``logits`` [heads, seq, seq] where ``keep`` is False, softmax each
    row, aggregate the group-repeated values; [seq, heads * head_dim]."""
    heads, seq, _ = logits.shape
    logits[:, ~keep] = MASK_SENTINEL
    probs = softmax_rows(logits.reshape(heads * seq, seq)).reshape(logits.shape)
    out = np.matmul(probs, np.repeat(v, group_size, axis=0))
    return out.transpose(1, 0, 2).reshape(seq, -1)


def dense_gqa(q, k, v, params, positions, rope, scale_mult=1.0, inv_freq=None):
    """Causal GQA over the full [heads, seq, seq] score matrix."""
    if inv_freq is None:
        inv_freq = rope_freqs(rope)
    seq = q.shape[1]
    qr = apply_rope(q, positions, inv_freq)
    kr = np.repeat(apply_rope(k, positions, inv_freq), params.group_size, axis=0)
    scale = np.float32(scale_mult / math.sqrt(params.head_dim))
    logits = np.matmul(qr, kr.transpose(0, 2, 1)) * scale
    causal = np.tril(np.ones((seq, seq), dtype=bool))
    return _masked_attention(logits, v, params.group_size, causal)


def dense_dca(q, k, v, params, dca, rope, yarn=None):
    """Dual-chunk attention from three full score matrices, one per rotated
    query variant, merged with element-wise branch masks."""
    if yarn is not None:
        inv_freq, scale_mult = yarn_adjust(rope, yarn)
    else:
        inv_freq, scale_mult = rope_freqs(rope), 1.0
    s_c = dca.chunk_size
    seq = q.shape[1]
    if seq <= s_c:
        return dense_gqa(q, k, v, params, list(range(seq)), rope,
                         scale_mult=scale_mult, inv_freq=inv_freq)
    pos = np.arange(seq, dtype=np.int64)
    pos_mod = pos % s_c
    g = params.group_size
    k_t = np.repeat(apply_rope(k, pos_mod, inv_freq), g, axis=0).transpose(0, 2, 1)
    scale = np.float32(scale_mult / math.sqrt(params.head_dim))
    scores_intra = np.matmul(apply_rope(q, pos_mod, inv_freq), k_t) * scale
    scores_succ = np.matmul(apply_rope(q, pos_mod + s_c, inv_freq), k_t) * scale
    scores_inter = np.matmul(apply_rope(q, np.full(seq, s_c - 1), inv_freq), k_t) * scale
    chunk_q = pos[:, None] // s_c
    chunk_k = pos[None, :] // s_c
    dist = pos[:, None] - pos[None, :]
    intra = chunk_q == chunk_k
    succ = (chunk_q == chunk_k + 1) & (dist <= dca.local_window)
    logits = np.where(intra, scores_intra, np.where(succ, scores_succ, scores_inter))
    return _masked_attention(logits, v, g, dist >= 0)
