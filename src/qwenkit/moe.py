"""Fine-grained mixture-of-experts feed-forward.

A router scores every expert per token; the top-k experts run and their
outputs are combined weighted by the raw softmax probabilities (no
renormalization over the selected k). Shared experts run unconditionally and
their outputs are summed in unweighted. A batch of rows is routed at once:
one router matmul scores every row, and each routed expert runs once over
the block of rows that chose it (dropless, no capacity limit). Expert banks
can be initialized from a dense FFN by replication, per-copy channel
shuffling, slicing, and partial reinitialization ("upcycling").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .layers import SwigluWeights, swiglu_ffn
from .ops import Rng, as_f32, sample_normal, softmax_rows


@dataclass(frozen=True)
class MoeConfig:
    """Expert-bank layout for one MoE FFN."""

    n_routed: int
    k_active: int
    n_shared: int
    expert_dim: int
    hidden: int

    def __post_init__(self):
        if not 1 <= self.k_active <= self.n_routed:
            raise ConfigError(
                f"k_active must be in [1, n_routed], got {self.k_active} "
                f"with n_routed {self.n_routed}"
            )
        if self.n_shared < 0:
            raise ConfigError(f"n_shared must be >= 0, got {self.n_shared}")
        if self.expert_dim < 1 or self.hidden < 1:
            raise ConfigError(
                f"expert_dim and hidden must be >= 1, got "
                f"{self.expert_dim}/{self.hidden}"
            )

    @property
    def params_per_expert(self) -> int:
        """Scalar count of one expert's gate/up/down triple."""
        return 3 * self.expert_dim * self.hidden

    @property
    def total_expert_params(self) -> int:
        return (self.n_routed + self.n_shared) * self.params_per_expert

    @property
    def active_expert_params(self) -> int:
        """Scalars touched per token: k_active routed plus all shared experts."""
        return (self.k_active + self.n_shared) * self.params_per_expert


@dataclass
class ExpertBank:
    """Routed and shared expert triples plus the router matrix."""

    routed: list[SwigluWeights]
    shared: list[SwigluWeights] = field(default_factory=list)
    router: np.ndarray = None  # [n_routed, hidden]


def validate_bank(cfg: MoeConfig, bank: ExpertBank) -> None:
    if len(bank.routed) != cfg.n_routed or len(bank.shared) != cfg.n_shared:
        raise ConfigError(
            f"bank holds {len(bank.routed)} routed / {len(bank.shared)} shared "
            f"experts, config wants {cfg.n_routed}/{cfg.n_shared}"
        )
    expected = {
        "w_gate": (cfg.expert_dim, cfg.hidden),
        "w_up": (cfg.expert_dim, cfg.hidden),
        "w_down": (cfg.hidden, cfg.expert_dim),
    }
    for kind, triples in (("routed", bank.routed), ("shared", bank.shared)):
        for i, triple in enumerate(triples):
            for name, shape in expected.items():
                if getattr(triple, name).shape != shape:
                    raise ConfigError(
                        f"{kind} expert {i} {name} has shape "
                        f"{getattr(triple, name).shape}, expected {shape}"
                    )
    if bank.router is None or bank.router.shape != (cfg.n_routed, cfg.hidden):
        raise ConfigError(
            f"router shape {None if bank.router is None else bank.router.shape} "
            f"does not match ({cfg.n_routed}, {cfg.hidden})"
        )


def gate_probs(x, router) -> np.ndarray:
    """Softmax of the router logits for one token, [n_routed]."""
    x = as_f32(x)
    router = as_f32(router)
    if x.ndim != 1 or router.ndim != 2 or router.shape[1] != x.shape[0]:
        raise DimensionError(
            f"router shape {router.shape} incompatible with input shape {x.shape}"
        )
    return softmax_rows((router @ x)[None, :])[0]


def _topk_rows(p: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``p``, the indices of its k largest entries [rows, k];
    a stable sort keeps the lower index on ties."""
    return np.argsort(-p, axis=1, kind="stable")[:, :k]


def topk_select(p, k: int) -> list[int]:
    """Indices of the k largest probabilities, ascending; ties keep the lower index."""
    p = np.asarray(p)
    if p.ndim != 1:
        raise DimensionError(f"expected a probability vector, got shape {p.shape}")
    if not 1 <= k <= p.shape[0]:
        raise ParameterError(f"k must be in [1, {p.shape[0]}], got {k}")
    return sorted(int(i) for i in _topk_rows(p[None, :], k)[0])


def moe_forward(x, cfg: MoeConfig, bank: ExpertBank) -> np.ndarray:
    """Shared-expert sum plus the probability-weighted top-k routed sum.

    y = sum_shared E_s(x) + sum_{i in topk(p)} p_i * E_i(x), where p is the
    raw router softmax (selected weights are not renormalized) and every
    expert is a SwiGLU FFN.

    ``x`` is one token [hidden] or a batch of rows [rows, hidden]; the
    result has the same shape. Every row is routed on its own, but each
    expert runs once over all the rows that chose it, and each row adds its
    terms in the same order: shared experts, then its experts ascending.
    """
    x = as_f32(x)
    validate_bank(cfg, bank)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.hidden:
        raise DimensionError(
            f"input shape {x.shape} does not match ({cfg.hidden},) or (rows, {cfg.hidden})"
        )
    rows = x.reshape(-1, cfg.hidden)
    p = softmax_rows(rows @ bank.router.T)
    top = _topk_rows(p, cfg.k_active)
    # Row indices grouped by expert, ascending within each group (stable sort
    # of the flattened [rows, k] choices), and the size of each group.
    by_expert = np.argsort(top, axis=None, kind="stable") // cfg.k_active
    counts = np.bincount(top.ravel(), minlength=cfg.n_routed).tolist()
    out = np.zeros_like(rows)
    for triple in bank.shared:
        out += swiglu_ffn(rows, *triple)
    end = 0
    for e, n in enumerate(counts):
        if n == len(rows):  # every row chose e, as always in one-token decoding
            out += p[:, e, None] * swiglu_ffn(rows, *bank.routed[e])
        elif n:
            hit = by_expert[end:end + n]
            out[hit] += p[hit, e, None] * swiglu_ffn(rows[hit], *bank.routed[e])
        end += n
    return out.reshape(x.shape)


def replication_count(n_routed: int, expert_dim: int, h_ffn: int) -> int:
    """ceil(n_routed * expert_dim / h_ffn) dense-FFN copies cover all experts."""
    if h_ffn < 1:
        raise ParameterError(f"dense intermediate size must be >= 1, got {h_ffn}")
    return -(-(n_routed * expert_dim) // h_ffn)


def replicate_and_slice(
    w_gate, w_up, w_down, cfg: MoeConfig, rng: Rng
) -> tuple[list[SwigluWeights], list[np.ndarray]]:
    """Replicate a dense FFN, shuffle each copy, and slice out routed experts.

    Each copy gets one permutation of the dense intermediate channels, applied
    consistently to the rows of w_gate and w_up and the columns of w_down.
    Copies are concatenated along the intermediate dimension and consecutive
    blocks of ``expert_dim`` become the routed experts; the tail is discarded.

    Returns the expert triples together with, per expert, the dense channel
    index each of its intermediate rows came from (channels can repeat when an
    expert straddles two copies).
    """
    w_gate = as_f32(w_gate)
    w_up = as_f32(w_up)
    w_down = as_f32(w_down)
    if w_gate.ndim != 2 or w_gate.shape != w_up.shape or w_down.shape != (
        w_gate.shape[1],
        w_gate.shape[0],
    ):
        raise DimensionError(
            f"inconsistent dense FFN weights: gate {w_gate.shape}, "
            f"up {w_up.shape}, down {w_down.shape}"
        )
    h_ffn, hidden = w_gate.shape
    if hidden != cfg.hidden:
        raise ConfigError(
            f"dense hidden size {hidden} does not match config hidden {cfg.hidden}"
        )
    r = replication_count(cfg.n_routed, cfg.expert_dim, h_ffn)
    assert r * h_ffn >= cfg.n_routed * cfg.expert_dim
    gates, ups, downs, channels = [], [], [], []
    for _ in range(r):
        perm = rng.permutation(h_ffn)
        gates.append(w_gate[perm])
        ups.append(w_up[perm])
        downs.append(w_down[:, perm])
        channels.append(perm)
    big_gate = np.concatenate(gates, axis=0)
    big_up = np.concatenate(ups, axis=0)
    big_down = np.concatenate(downs, axis=1)
    big_channels = np.concatenate(channels)
    experts: list[SwigluWeights] = []
    expert_channels: list[np.ndarray] = []
    for e in range(cfg.n_routed):
        lo = e * cfg.expert_dim
        hi = lo + cfg.expert_dim
        experts.append(
            SwigluWeights(
                big_gate[lo:hi].copy(), big_up[lo:hi].copy(), big_down[:, lo:hi].copy()
            )
        )
        expert_channels.append(big_channels[lo:hi].copy())
    return experts, expert_channels


def _reinit_half(triple: SwigluWeights, rng: Rng, std: float) -> SwigluWeights:
    """Redraw exactly floor(count/2) scalars of one expert from Normal(0, std).

    The scalars are chosen as the first half of a seeded permutation over the
    flattened gate/up/down concatenation (row-major, in that order).
    """
    flat = np.concatenate([triple.w_gate.ravel(), triple.w_up.ravel(), triple.w_down.ravel()])
    count = flat.shape[0]
    chosen = rng.permutation(count)[: count // 2]
    flat[chosen] = sample_normal(rng, count // 2, 0.0, std)
    g_sz = triple.w_gate.size
    u_sz = triple.w_up.size
    return SwigluWeights(
        flat[:g_sz].reshape(triple.w_gate.shape).copy(),
        flat[g_sz : g_sz + u_sz].reshape(triple.w_up.shape).copy(),
        flat[g_sz + u_sz :].reshape(triple.w_down.shape).copy(),
    )


def upcycle_from_dense(
    w_gate, w_up, w_down, cfg: MoeConfig, rng: Rng, reinit_std: float = 0.02
) -> ExpertBank:
    """Initialize an expert bank from a dense FFN's weights.

    The dense FFN is replicated ceil(n_routed * expert_dim / h_ffn) times,
    each copy's intermediate channels are shuffled by a per-copy permutation,
    routed experts are sliced out of the concatenation, and half of each
    expert's scalars (exactly floor(count/2), chosen by a seeded permutation)
    are redrawn from Normal(0, reinit_std). Shared experts and the router are
    drawn entirely from Normal(0, reinit_std).

    The rng is consumed in a pinned order: copy permutations, then per routed
    expert one selection permutation plus its redraws, then shared expert
    triples (gate, up, down), then the router.
    """
    if reinit_std < 0:
        raise ParameterError(f"reinit_std must be >= 0, got {reinit_std}")
    experts, _ = replicate_and_slice(w_gate, w_up, w_down, cfg, rng)
    routed = [_reinit_half(t, rng, reinit_std) for t in experts]
    shared = []
    for _ in range(cfg.n_shared):
        shared.append(
            SwigluWeights(
                sample_normal(rng, cfg.expert_dim * cfg.hidden, 0.0, reinit_std).reshape(
                    cfg.expert_dim, cfg.hidden
                ),
                sample_normal(rng, cfg.expert_dim * cfg.hidden, 0.0, reinit_std).reshape(
                    cfg.expert_dim, cfg.hidden
                ),
                sample_normal(rng, cfg.hidden * cfg.expert_dim, 0.0, reinit_std).reshape(
                    cfg.hidden, cfg.expert_dim
                ),
            )
        )
    router = sample_normal(rng, cfg.n_routed * cfg.hidden, 0.0, reinit_std).reshape(
        cfg.n_routed, cfg.hidden
    )
    bank = ExpertBank(routed=routed, shared=shared, router=router)
    validate_bank(cfg, bank)
    return bank
