"""Fine-grained mixture-of-experts: routing, combination, and upcycling.

Run: python demos/moe_routing.py
"""

import numpy as np

from qwenkit import (
    MoeConfig,
    Rng,
    SwigluWeights,
    gate_probs,
    moe_forward,
    replication_count,
    swiglu_ffn,
    topk_select,
    upcycle_from_dense,
)
from qwenkit.moe import ExpertBank, replicate_and_slice


def rand(rng, *shape):
    return rng.normals(int(np.prod(shape))).astype(np.float32).reshape(shape)


rng = Rng(0)

# --- routing -------------------------------------------------------------------
# A router matrix scores each expert per token; the softmax of those scores
# weights the top-k experts. Weights are the raw probabilities: no
# renormalization over the selected set.
cfg = MoeConfig(n_routed=8, k_active=2, n_shared=1, expert_dim=16, hidden=12)
router = rand(rng, cfg.n_routed, cfg.hidden)
x = rand(rng, cfg.hidden)
p = gate_probs(x, router)
chosen = topk_select(p, cfg.k_active)
print("gate probabilities :", np.array2string(p, precision=3))
print("top-2 experts      :", chosen, f"(combined weight {p[chosen].sum():.3f})")

# Experts are stored stacked: index i of each array is expert i's triple.
n, e, h = cfg.n_routed, cfg.expert_dim, cfg.hidden
bank = ExpertBank(
    routed=SwigluWeights(rand(rng, n, e, h), rand(rng, n, e, h), rand(rng, n, h, e)),
    shared=SwigluWeights(rand(rng, 1, e, h), rand(rng, 1, e, h), rand(rng, 1, h, e)),
    router=router,
)
y = moe_forward(x, cfg, bank)
manual = swiglu_ffn(x, *(w[0] for w in bank.shared))
for i in chosen:
    manual = manual + p[i] * swiglu_ffn(x, *(w[i] for w in bank.routed))
print(f"forward matches manual sum: {np.max(np.abs(y - manual)):.2e}\n")

# Parameter accounting at the published 57B-A14B shape: 64 routed + 8 shared
# fine-grained experts, 8 routed active per token.
big = MoeConfig(n_routed=64, k_active=8, n_shared=8, expert_dim=2560, hidden=3584)
print(f"expert params total : {big.total_expert_params / 1e9:.2f} B")
print(f"active per token    : {big.active_expert_params / 1e9:.2f} B\n")

# --- upcycling -----------------------------------------------------------------
# A dense FFN becomes an expert bank: replicate ceil(n*h_E/h_FFN) copies,
# shuffle each copy's intermediate channels, slice consecutive expert-sized
# blocks, then redraw half of each expert's scalars.
print(f"published replication count: "
      f"ceil(64 * 2560 / 18944) = {replication_count(64, 2560, 18944)}")

h_ffn, d = 8, 6
dense = SwigluWeights(rand(rng, h_ffn, d), rand(rng, h_ffn, d), rand(rng, d, h_ffn))
small = MoeConfig(n_routed=4, k_active=2, n_shared=0, expert_dim=4, hidden=d)

experts, channels = replicate_and_slice(dense.w_gate, dense.w_up, dense.w_down,
                                        small, Rng(42))
print("expert -> source channels:", [c.tolist() for c in channels])

# Before reinitialization each expert computes the dense FFN restricted to
# its channels; afterwards exactly half of its scalars are fresh draws.
bank2 = upcycle_from_dense(dense.w_gate, dense.w_up, dense.w_down, small, Rng(42))
pre, _ = replicate_and_slice(dense.w_gate, dense.w_up, dense.w_down, small, Rng(42))
count = small.params_per_expert
changed = sum(int(np.sum(a[0] != b[0])) for a, b in zip(pre, bank2.routed))
print(f"expert 0: {changed}/{count} scalars redrawn "
      f"(exactly floor(count/2) = {count // 2})")
