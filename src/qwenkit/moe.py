"""Fine-grained mixture-of-experts feed-forward.

A router scores every expert per token; the top-k experts run and their
outputs are combined weighted by the raw softmax probabilities (no
renormalization over the selected k). Shared experts run unconditionally and
their outputs are summed in unweighted. A batch of rows is routed at once:
one router matmul scores every row, and each routed expert runs once over
the block of rows that chose it (dropless, no capacity limit). Experts are
stored stacked: one gate/up/down triple whose arrays carry a leading expert
axis, for the routed and for the shared experts. Expert banks can be
initialized from a dense FFN by replication, per-copy channel shuffling,
slicing, and partial reinitialization from Normal(0, ``REINIT_STD``)
("upcycling").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError, ParameterError
from .layers import SwigluWeights, _swiglu_ffn
from .ops import (
    Rng,
    _check_int,
    _check_ints,
    _check_type,
    _normal_draws,
    _permutation_draws,
    _softmax_rows,
    as_f32,
    sample_normal,
    softmax_rows,
)

# Standard deviation of every fresh draw of upcycling (upcycle_from_dense).
REINIT_STD = 0.02


@dataclass(frozen=True)
class MoeConfig:
    """Expert-bank layout for one MoE FFN."""

    n_routed: int
    k_active: int
    n_shared: int
    expert_dim: int
    hidden: int

    def __post_init__(self):
        _check_ints(self, ("n_routed", "k_active", "n_shared", "expert_dim", "hidden"),
                    ConfigError)
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
    """Routed and shared experts, each kind one stacked triple, plus the router.

    ``routed.w_gate`` and ``routed.w_up`` are [n_routed, expert_dim, hidden]
    and ``routed.w_down`` is [n_routed, hidden, expert_dim]: index e of each
    is expert e's triple. ``shared`` is stacked the same way over n_shared
    experts (a leading axis of 0 when there are none). ``router`` is
    [n_routed, hidden].

    Banks built here (and models built, loaded or upcycled by ``model``)
    store each expert's matrix and the router column-major: the values are
    as above, but ``stack[e].T`` and ``router.T`` are C-contiguous, so the
    ``x @ w.T`` products are plain GEMMs, as for the other weights (see
    ``model.LayerWeights``). Row-major banks give the same results, only
    slower.
    """

    routed: SwigluWeights
    shared: SwigluWeights
    router: np.ndarray


def _stack_shapes(n: int, cfg: MoeConfig) -> SwigluWeights:
    return SwigluWeights((n, cfg.expert_dim, cfg.hidden), (n, cfg.expert_dim, cfg.hidden),
                         (n, cfg.hidden, cfg.expert_dim))


def _empty_stack(n: int, cfg: MoeConfig) -> SwigluWeights:
    """An uninitialized float32 stack of ``n`` experts, each expert's matrix
    column-major (see :class:`ExpertBank`)."""
    return SwigluWeights(*(np.empty((n, cols, rows), np.float32).transpose(0, 2, 1)
                           for _, rows, cols in _stack_shapes(n, cfg)))


def validate_bank(cfg: MoeConfig, bank: ExpertBank) -> None:
    """Raise :class:`ConfigError` unless ``cfg`` is a :class:`MoeConfig`,
    ``bank`` an :class:`ExpertBank` and each of its seven arrays has the
    shape ``cfg`` implies."""
    _check_type("cfg", cfg, MoeConfig, ConfigError)
    _check_type("bank", bank, ExpertBank, ConfigError)
    for kind, n in (("routed", cfg.n_routed), ("shared", cfg.n_shared)):
        stack = getattr(bank, kind)
        for name, shape in zip(SwigluWeights._fields, _stack_shapes(n, cfg)):
            got = np.shape(getattr(stack, name, None))
            if got != shape:
                raise ConfigError(f"{kind} {name} has shape {got}, expected {shape}")
    if np.shape(bank.router) != (cfg.n_routed, cfg.hidden):
        raise ConfigError(
            f"router shape {np.shape(bank.router)} does not match "
            f"({cfg.n_routed}, {cfg.hidden})"
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
    """Indices of the k largest probabilities, ascending; ties keep the lower index.

    ``p`` must hold integers or floats, else :class:`InputError`; floats are
    ranked in their own dtype, as a cast could tie close ones.
    """
    p = np.asarray(p)
    if p.dtype.kind not in "iuf":
        raise InputError(f"expected real probabilities, got dtype {p.dtype}")
    if p.dtype.kind != "f":  # -p would wrap an unsigned 0 or int8's -128
        p = p.astype(np.float64)
    if p.ndim != 1:
        raise DimensionError(f"expected a probability vector, got shape {p.shape}")
    _check_int("k", k)
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
    return _moe_forward(x.reshape(-1, cfg.hidden), cfg, bank).reshape(x.shape)


def _moe_forward(rows: np.ndarray, cfg: MoeConfig, bank: ExpertBank) -> np.ndarray:
    """Kernel of :func:`moe_forward` on [rows, hidden]."""
    p = _softmax_rows(rows @ bank.router.T)
    top = _topk_rows(p, cfg.k_active)
    # Row indices grouped by expert, ascending within each group (stable sort
    # of the flattened [rows, k] choices), and the size of each group.
    by_expert = np.argsort(top, axis=None, kind="stable") // cfg.k_active
    counts = np.bincount(top.ravel(), minlength=cfg.n_routed).tolist()
    out = np.zeros_like(rows)
    for s in range(cfg.n_shared):
        out += _swiglu_ffn(rows, *(w[s] for w in bank.shared))
    end = 0
    for e, n in enumerate(counts):
        if n == len(rows):  # every row chose e, as always in one-token decoding
            out += p[:, e, None] * _swiglu_ffn(rows, *(w[e] for w in bank.routed))
        elif n:
            hit = by_expert[end:end + n]
            out[hit] += p[hit, e, None] * _swiglu_ffn(rows[hit], *(w[e] for w in bank.routed))
        end += n
    return out


def replication_count(n_routed: int, expert_dim: int, h_ffn: int) -> int:
    """ceil(n_routed * expert_dim / h_ffn) dense-FFN copies cover all experts."""
    _check_int("n_routed", n_routed, 0)
    _check_int("expert_dim", expert_dim, 0)
    _check_int("h_ffn", h_ffn, 1)
    return -(-(n_routed * expert_dim) // h_ffn)


def replicate_and_slice(
    w_gate, w_up, w_down, cfg: MoeConfig, rng: Rng
) -> tuple[SwigluWeights, np.ndarray]:
    """Replicate a dense FFN, shuffle each copy, and slice out routed experts.

    Each copy gets one permutation of the dense intermediate channels, applied
    consistently to the rows of w_gate and w_up and the columns of w_down.
    Copies are concatenated along the intermediate dimension and consecutive
    blocks of ``expert_dim`` become the routed experts; the tail is discarded.

    Returns the routed experts as one stacked triple (see
    :class:`ExpertBank`; each expert column-major) together with the dense
    channel each of their intermediate rows came from, [n_routed,
    expert_dim] (channels can repeat when an expert straddles two copies).
    A ``cfg`` that is not a :class:`MoeConfig` is a :class:`ConfigError`,
    an ``rng`` that is not an :class:`~qwenkit.ops.Rng` a
    :class:`ParameterError`.
    """
    _check_type("cfg", cfg, MoeConfig, ConfigError)
    _check_type("rng", rng, Rng)
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
    n, inner = cfg.n_routed, cfg.expert_dim
    # Row i of the concatenated copies is dense channel channels[i].
    channels = np.concatenate([rng.permutation(h_ffn) for _ in range(r)])[: n * inner]
    experts = _empty_stack(n, cfg)
    experts.w_gate[...] = w_gate[channels].reshape(n, inner, hidden)
    experts.w_up[...] = w_up[channels].reshape(n, inner, hidden)
    experts.w_down[...] = w_down[:, channels].reshape(hidden, n, inner).transpose(1, 0, 2)
    return experts, channels.reshape(n, inner)


def _reinit_half(experts: SwigluWeights, e: int, rng: Rng) -> None:
    """Redraw in place exactly floor(count/2) scalars of expert ``e`` of a
    stack from Normal(0, REINIT_STD).

    The scalars are chosen as the first half of a seeded permutation over the
    flattened gate/up/down concatenation of that expert (row-major, in that
    order).
    """
    parts = [w[e] for w in experts]
    flat = np.concatenate([part.ravel() for part in parts])
    count = flat.shape[0]
    chosen = rng.permutation(count)[: count // 2]
    flat[chosen] = sample_normal(rng, count // 2, 0.0, REINIT_STD)
    ends = np.cumsum([part.size for part in parts])
    for part, new in zip(parts, np.split(flat, ends[:-1])):
        part[...] = new.reshape(part.shape)


def upcycle_from_dense(w_gate, w_up, w_down, cfg: MoeConfig, rng: Rng) -> ExpertBank:
    """Initialize an expert bank from a dense FFN's weights.

    The dense FFN is replicated ceil(n_routed * expert_dim / h_ffn) times,
    each copy's intermediate channels are shuffled by a per-copy permutation,
    routed experts are sliced out of the concatenation, and half of each
    expert's scalars (exactly floor(count/2), chosen by a seeded permutation)
    are redrawn from Normal(0, REINIT_STD). Shared experts and the router are
    drawn entirely from Normal(0, REINIT_STD).

    The rng is consumed in a pinned order: copy permutations, then per routed
    expert one selection permutation plus its redraws, then per shared
    expert its gate, up and down, then the router: :func:`_upcycle_draws`
    raw outputs in all. Its arguments are checked as by
    :func:`replicate_and_slice`.
    """
    routed, _ = replicate_and_slice(w_gate, w_up, w_down, cfg, rng)
    for e in range(cfg.n_routed):
        _reinit_half(routed, e, rng)
    shared = _empty_stack(cfg.n_shared, cfg)
    for s in range(cfg.n_shared):
        for w in shared:
            w[s] = sample_normal(rng, w[s].size, 0.0, REINIT_STD).reshape(w.shape[1:])
    router = np.asfortranarray(sample_normal(rng, cfg.n_routed * cfg.hidden, 0.0, REINIT_STD)
                               .reshape(cfg.n_routed, cfg.hidden))
    return ExpertBank(routed=routed, shared=shared, router=router)


def _upcycle_draws(cfg: MoeConfig, h_ffn: int) -> int:
    """Raw outputs one :func:`upcycle_from_dense` call consumes from its
    rng, for a dense FFN of ``h_ffn`` channels, in its draw order."""
    count = 3 * cfg.expert_dim * cfg.hidden  # scalars of one expert
    return (replication_count(cfg.n_routed, cfg.expert_dim, h_ffn) * _permutation_draws(h_ffn)
            + cfg.n_routed * (_permutation_draws(count) + _normal_draws(count // 2))
            + cfg.n_shared * 3 * _normal_draws(cfg.expert_dim * cfg.hidden)
            + _normal_draws(cfg.n_routed * cfg.hidden))
