"""Reference block loop with a fresh array for every step.

The allocating forms of the block loop's kernels: ``softmax_rows`` and
``silu`` return new arrays, ``rms_norm`` computes ``x * gamma / rms`` and
``rotate`` each rotated half in one expression, every attention query
block allocates its own scores and masks its diagonal, one row or more,
and the residuals and q/k/v biases are added as ``x = x + ...``. Kept as
oracles for the in-place kernels of ``qwenkit.layers``, ``qwenkit.ops``
and ``qwenkit.model``, which run the same operations on the same operands
in the same order and must agree with these bit for bit.
"""

import math

import numpy as np
from scipy.special import expit

from qwenkit.layers import ATTN_BLOCK, MASK_SENTINEL, KvCache, _group_queries
from qwenkit.model import _rotary, _split_heads
from qwenkit.moe import _topk_rows


def softmax_rows(x):
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def rms_norm(x, gamma, eps):
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x * gamma / np.sqrt(ms + np.float32(eps))


def swiglu_ffn(x, w_gate, w_up, w_down):
    g = x @ w_gate.T
    return (g * expit(g) * (x @ w_up.T)) @ w_down.T


def moe_forward(rows, cfg, bank):
    p = softmax_rows(rows @ bank.router.T)
    top = _topk_rows(p, cfg.k_active)
    by_expert = np.argsort(top, axis=None, kind="stable") // cfg.k_active
    counts = np.bincount(top.ravel(), minlength=cfg.n_routed).tolist()
    out = np.zeros_like(rows)
    for s in range(cfg.n_shared):
        out += swiglu_ffn(rows, *(w[s] for w in bank.shared))
    end = 0
    for e, n in enumerate(counts):
        if n == len(rows):
            out += p[:, e, None] * swiglu_ffn(rows, *(w[e] for w in bank.routed))
        elif n:
            hit = by_expert[end:end + n]
            out[hit] += p[hit, e, None] * swiglu_ffn(rows[hit], *(w[e] for w in bank.routed))
        end += n
    return out


def rotate(x, cos, sin):
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty(x.shape, np.float32)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def attend_causal(logits, values, g, scale):
    n_kv, group_rows, end = logits.shape
    rows = group_rows // g
    logits *= scale
    diagonal = logits.reshape(n_kv, g, rows, end)[..., end - rows:]
    r = np.arange(rows)
    diagonal[:, :, r > r[:, None]] = MASK_SENTINEL
    probs = softmax_rows(logits.reshape(n_kv * group_rows, end))
    return np.matmul(probs.reshape(logits.shape), values[:, :end])


def cached_attention(cache, q, k, v, params, cos, sin, layer, scale_mult, dca=None):
    """``qwenkit.layers._cached_attention`` with fresh scores per block."""
    rows = q.shape[1]
    n_kv, g, d = params.n_kv_heads, params.group_size, params.head_dim
    start = cache.length(layer)
    end = start + rows
    if dca is None:
        chunk = end
        cos_new, sin_new = cos[start:end], sin[start:end]
    else:
        chunk = dca.chunk_size
        pos_mod = np.arange(start, end) % chunk
        cos_new, sin_new = cos[pos_mod], sin[pos_mod]
    keys, values = cache._append(rotate(k, cos_new, sin_new), v, layer)
    keys_t = keys.transpose(0, 2, 1)
    q_intra = rotate(q, cos_new, sin_new)
    scale = np.float32(scale_mult / math.sqrt(d))
    out = np.empty((rows, params.n_q_heads, d), dtype=np.float32)
    a = start
    while a < end:
        cs = a - a % chunk
        b = min(a + ATTN_BLOCK, end, cs + chunk)
        blk = slice(a - start, b - start)
        if cs == 0:
            logits = np.matmul(_group_queries(q_intra[:, blk], n_kv), keys_t[:, :, :b])
        else:
            logits = np.empty((n_kv, g * (b - a), b), dtype=np.float32)
            np.matmul(_group_queries(q_intra[:, blk], n_kv), keys_t[:, :, cs:b],
                      out=logits[:, :, cs:])
            q_inter = rotate(q[:, blk], cos[chunk - 1], sin[chunk - 1])
            np.matmul(_group_queries(q_inter, n_kv), keys_t[:, :, :cs], out=logits[:, :, :cs])
            lo = min(cs, a - dca.local_window)
            if lo < cs:
                succ_pos = pos_mod[blk] + chunk
                q_succ = rotate(q[:, blk], cos[succ_pos], sin[succ_pos])
                succ = np.matmul(_group_queries(q_succ, n_kv), keys_t[:, :, lo:cs])
                near = np.arange(a, b)[:, None] - np.arange(lo, cs) <= dca.local_window
                np.copyto(logits.reshape(n_kv, g, b - a, b)[..., lo:cs],
                          succ.reshape(n_kv, g, b - a, cs - lo), where=near)
        block = attend_causal(logits, values, g, scale)
        out[blk] = block.reshape(params.n_q_heads, b - a, d).transpose(1, 0, 2)
        a = b
    return out.reshape(rows, params.n_q_heads * d)


def blocks(weights, cfg, ids, cache, rotary):
    """``qwenkit.model._blocks`` on the kernels above."""
    params = cfg.attention_params()
    cos, sin, scale_mult = rotary
    x = weights.embedding[ids]
    for li, lw in enumerate(weights.layers):
        h = rms_norm(x, lw.attn_gamma, cfg.rms_eps)
        q = h @ lw.wq.T + lw.bq
        k = h @ lw.wk.T + lw.bk
        v = h @ lw.wv.T + lw.bv
        q3 = _split_heads(q, cfg.n_q_heads, cfg.head_dim)
        k3 = _split_heads(k, cfg.n_kv_heads, cfg.head_dim)
        v3 = _split_heads(v, cfg.n_kv_heads, cfg.head_dim)
        attn = cached_attention(cache, q3, k3, v3, params, cos, sin, li, scale_mult, cfg.dca)
        x = x + attn @ lw.wo.T
        h2 = rms_norm(x, lw.ffn_gamma, cfg.rms_eps)
        if lw.ffn is not None:
            x = x + swiglu_ffn(h2, *lw.ffn)
        else:
            x = x + moe_forward(h2, cfg.moe, lw.moe_bank)
    return x


def forward(weights, cfg, ids):
    """Logits of ``ids`` through :func:`blocks` on a fresh cache."""
    x = blocks(weights, cfg, list(ids), KvCache(cfg.n_layers, len(ids)), _rotary(cfg, len(ids)))
    return rms_norm(x, weights.final_gamma, cfg.rms_eps) @ weights.output_matrix().T
