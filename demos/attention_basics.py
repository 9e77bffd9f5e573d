"""Grouped-query attention and the KV cache, step by step.

Run: python demos/attention_basics.py
"""

import numpy as np

from qwenkit import (
    AttentionParams,
    KvCache,
    RopeParams,
    Rng,
    cached_attention,
    gqa_attention,
)


def rand(rng, *shape):
    return rng.normals(int(np.prod(shape))).astype(np.float32).reshape(shape)


rng = Rng(0)

# Four query heads share two key/value heads: group size 2. Each query head h
# reads kv head h // 2, so the cache holds half the keys a full multi-head
# layout would need.
params = AttentionParams(n_q_heads=4, n_kv_heads=2, head_dim=16)
rope = RopeParams(base=10_000.0, head_dim=16)
print(f"group size          : {params.group_size}")
print(f"kv values per token : {params.kv_values_per_token} (vs "
      f"{params.q_values_per_token} for one-kv-per-query)")

# The published 7B-scale layout shows the same saving at full width.
big = AttentionParams(n_q_heads=28, n_kv_heads=4, head_dim=128)
print(f"7B-scale cache      : {big.kv_values_per_token} vs {big.q_values_per_token}\n")

# A full-sequence forward pass...
seq = 8
q = rand(rng, 4, seq, 16)
k = rand(rng, 2, seq, 16)
v = rand(rng, 2, seq, 16)
full = gqa_attention(q, k, v, params, list(range(seq)), rope)
print(f"full attention output: {full.shape}")

# ...and the same sequence decoded token by token through the cache: each
# call appends one row at the position the cache has reached. The two paths
# agree to float32 noise; that equivalence is what makes incremental decoding
# trustworthy.
cache = KvCache(n_layers=1)
worst = 0.0
for t in range(seq):
    out = cached_attention(cache, q[:, t:t + 1], k[:, t:t + 1], v[:, t:t + 1], params, rope)
    worst = max(worst, float(np.max(np.abs(out - full[t:t + 1]))))
print(f"cache length          : {cache.length()} entries")
print(f"max |cached - full|   : {worst:.2e}")

# Causality is exact, not approximate: perturbing a later token cannot touch
# earlier rows because masked logits are overwritten with a -3.4e38 sentinel
# whose exponent underflows to exactly zero.
k2, v2 = k.copy(), v.copy()
k2[:, 5] += 100.0
v2[:, 5] -= 100.0
perturbed = gqa_attention(q, k2, v2, params, list(range(seq)), rope)
print(f"rows < 5 bit-identical after perturbing token 5: "
      f"{np.array_equal(perturbed[:5], full[:5])}")
