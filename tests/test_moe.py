import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff, rand_f32
from qwenkit.errors import ConfigError, DimensionError, ParameterError
from qwenkit.layers import SwigluWeights, swiglu_ffn
from qwenkit.moe import (
    ExpertBank,
    MoeConfig,
    gate_probs,
    moe_forward,
    replicate_and_slice,
    replication_count,
    topk_select,
    upcycle_from_dense,
    validate_bank,
)
from qwenkit.ops import Rng


# --- independent oracle: softmax, top-k, weighted sum written from scratch ----


def _expert(stack, e):
    """Expert e of a stacked triple."""
    return SwigluWeights(stack.w_gate[e], stack.w_up[e], stack.w_down[e])


def _stack(triples, cfg):
    """Per-expert (gate, up, down) triples as one stacked triple; none gives
    stacks with a leading axis of 0."""
    shapes = [(cfg.expert_dim, cfg.hidden), (cfg.expert_dim, cfg.hidden),
              (cfg.hidden, cfg.expert_dim)]
    return SwigluWeights(*(np.array([t[i] for t in triples], dtype=np.float32)
                           .reshape(len(triples), *shape) for i, shape in enumerate(shapes)))


def _oracle_expert(stack, e, x):
    inter, d = stack.w_gate[e].shape
    y = [0.0] * d
    for c in range(inter):
        g = sum(float(stack.w_gate[e, c, j]) * float(x[j]) for j in range(d))
        u = sum(float(stack.w_up[e, c, j]) * float(x[j]) for j in range(d))
        act = g / (1.0 + math.exp(-g)) * u
        for j in range(d):
            y[j] += float(stack.w_down[e, j, c]) * act
    return y


def oracle_moe(x, cfg, bank):
    d, n = cfg.hidden, cfg.n_routed
    logits = [sum(float(bank.router[i, j]) * float(x[j]) for j in range(d))
              for i in range(n)]
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    total = sum(exps)
    p = [e / total for e in exps]
    chosen = sorted(range(n), key=lambda i: (-p[i], i))[: cfg.k_active]
    y = [0.0] * d
    for s in range(cfg.n_shared):
        contrib = _oracle_expert(bank.shared, s, x)
        y = [a + b for a, b in zip(y, contrib)]
    for i in chosen:
        contrib = _oracle_expert(bank.routed, i, x)
        y = [a + p[i] * b for a, b in zip(y, contrib)]
    return np.array(y)


def _random_bank(rng, cfg, scale=0.3):
    def triple():
        return (
            scale * rand_f32(rng, cfg.expert_dim, cfg.hidden),
            scale * rand_f32(rng, cfg.expert_dim, cfg.hidden),
            scale * rand_f32(rng, cfg.hidden, cfg.expert_dim),
        )

    return ExpertBank(
        routed=_stack([triple() for _ in range(cfg.n_routed)], cfg),
        shared=_stack([triple() for _ in range(cfg.n_shared)], cfg),
        router=scale * rand_f32(rng, cfg.n_routed, cfg.hidden),
    )


class TestGateProbs:
    def test_zero_router_is_uniform(self):
        p = gate_probs(rand_f32(Rng(0), 6), np.zeros((5, 6)))
        assert np.allclose(p, 0.2, atol=1e-7)

    def test_closed_form(self):
        router = np.array([[0.0], [math.log(3.0)]], dtype=np.float32)
        p = gate_probs(np.ones(1), router)
        assert np.allclose(p, [0.25, 0.75], atol=1e-6)

    def test_sums_to_one(self):
        rng = Rng(1)
        p = gate_probs(rand_f32(rng, 8), rand_f32(rng, 16, 8))
        assert p.sum() == pytest.approx(1.0, abs=1e-6)

    def test_constant_shift_invariance(self):
        rng = Rng(2)
        x = rand_f32(rng, 8)
        router = rand_f32(rng, 4, 8)
        shifted = router + x / max(float(x @ x), 1e-6)  # adds a constant to logits
        assert np.allclose(gate_probs(x, router), gate_probs(x, shifted), atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gate_probs(np.zeros(3), np.zeros((4, 5)))


class TestTopkSelect:
    def test_full_selection(self):
        assert topk_select(np.array([0.2, 0.5, 0.3]), 3) == [0, 1, 2]

    def test_two_largest(self):
        assert topk_select(np.array([0.1, 0.5, 0.4]), 2) == [1, 2]

    def test_tie_prefers_lower_index(self):
        assert topk_select(np.array([0.3, 0.3, 0.4]), 2) == [0, 2]

    def test_close_float64_probabilities_are_not_tied(self):
        # Equal in float32, so a cast would pick index 0.
        assert topk_select(np.array([0.5, 0.5 + 1e-12]), 1) == [1]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    def test_integer_weights_ranked_without_wrapping(self, dtype):
        # Negating an unsigned 0 or int8's -128 wraps to the top of the order.
        low = np.iinfo(dtype).min
        assert topk_select(np.array([low, 5], dtype), 1) == [1]

    def test_out_of_range_k(self):
        with pytest.raises(ParameterError):
            topk_select(np.array([0.5, 0.5]), 3)
        with pytest.raises(ParameterError):
            topk_select(np.array([0.5, 0.5]), 0)


class TestMoeForward:
    def test_degenerate_equals_dense_exactly(self):
        rng = Rng(3)
        cfg = MoeConfig(n_routed=1, k_active=1, n_shared=0, expert_dim=16, hidden=8)
        bank = _random_bank(rng, cfg)
        x = rand_f32(rng, 8)
        got = moe_forward(x, cfg, bank)
        want = swiglu_ffn(x, *_expert(bank.routed, 0))
        assert np.array_equal(got, want)

    def test_identical_experts_collapse(self):
        rng = Rng(4)
        cfg = MoeConfig(n_routed=6, k_active=6, n_shared=0, expert_dim=8, hidden=8)
        shared_triple = SwigluWeights(
            0.3 * rand_f32(rng, 8, 8), 0.3 * rand_f32(rng, 8, 8), 0.3 * rand_f32(rng, 8, 8)
        )
        bank = ExpertBank(routed=_stack([shared_triple] * 6, cfg), shared=_stack([], cfg),
                          router=rand_f32(rng, 6, 8))
        x = rand_f32(rng, 8)
        # k = n: selected probabilities sum to 1, so the mixture is one expert.
        assert max_abs_diff(moe_forward(x, cfg, bank), swiglu_ffn(x, *shared_triple)) <= 1e-5

    def test_matches_bruteforce_oracle(self):
        rng = Rng(5)
        cfg = MoeConfig(n_routed=16, k_active=4, n_shared=2, expert_dim=8, hidden=8)
        for _ in range(25):
            bank = _random_bank(rng, cfg)
            x = rand_f32(rng, 8)
            assert max_abs_diff(moe_forward(x, cfg, bank), oracle_moe(x, cfg, bank)) <= 1e-5

    def test_published_moe_shape_accepted(self):
        cfg = MoeConfig(n_routed=64, k_active=8, n_shared=8, expert_dim=2560,
                        hidden=3584)
        assert cfg.params_per_expert == 3 * 2560 * 3584

    def test_inconsistent_bank_rejected(self):
        rng = Rng(6)
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=0, expert_dim=4, hidden=4)
        bank = _random_bank(rng, cfg)
        bank.routed = SwigluWeights(np.zeros((2, 3, 4), dtype=np.float32),
                                    np.zeros((2, 3, 4), dtype=np.float32),
                                    np.zeros((2, 4, 3), dtype=np.float32))
        with pytest.raises(ConfigError):
            moe_forward(rand_f32(rng, 4), cfg, bank)

    def test_wrong_expert_count_rejected(self):
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=1, expert_dim=4, hidden=4)
        wider = MoeConfig(n_routed=3, k_active=1, n_shared=2, expert_dim=4, hidden=4)
        bank = _random_bank(Rng(6), cfg)
        extra = _random_bank(Rng(7), wider)
        for kind in ("routed", "shared"):
            bad = ExpertBank(bank.routed, bank.shared, bank.router)
            setattr(bad, kind, getattr(extra, kind))
            with pytest.raises(ConfigError, match=f"{kind} w_gate has shape"):
                validate_bank(cfg, bad)

    def test_parameter_accounting(self):
        cfg = MoeConfig(n_routed=64, k_active=8, n_shared=8, expert_dim=2560,
                        hidden=3584)
        assert cfg.total_expert_params == (64 + 8) * 3 * 2560 * 3584
        assert cfg.active_expert_params == (8 + 8) * 3 * 2560 * 3584


class TestBatchedDispatch:
    @given(rows=st.integers(1, 40), n_routed=st.integers(1, 8), k_frac=st.floats(0, 1),
           n_shared=st.integers(0, 2), hidden=st.sampled_from([4, 8]),
           expert_dim=st.sampled_from([4, 8]), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_every_row_matches_oracle(self, rows, n_routed, k_frac, n_shared, hidden,
                                      expert_dim, seed):
        k = 1 + min(n_routed - 1, int(k_frac * n_routed))
        cfg = MoeConfig(n_routed=n_routed, k_active=k, n_shared=n_shared,
                        expert_dim=expert_dim, hidden=hidden)
        rng = Rng(seed)
        bank = _random_bank(rng, cfg)
        x = rand_f32(rng, rows, hidden)
        got = moe_forward(x, cfg, bank)
        assert got.shape == (rows, hidden)
        for t in range(rows):
            assert max_abs_diff(got[t], oracle_moe(x[t], cfg, bank)) <= 1e-5

    def test_zero_router_ties_pick_lowest_experts(self):
        # With a zero router every probability is 1/n, so each row must take
        # experts 0..k-1. The other experts hold NaN: touching one would show.
        rng = Rng(14)
        cfg = MoeConfig(n_routed=6, k_active=2, n_shared=1, expert_dim=8, hidden=8)
        bank = _random_bank(rng, cfg)
        bank.router = np.zeros((6, 8), dtype=np.float32)
        for w in bank.routed:
            w[2:] = np.nan
        x = rand_f32(rng, 9, 8)
        want = swiglu_ffn(x, *_expert(bank.shared, 0))
        for e in range(2):
            want = want + np.float32(1 / 6) * swiglu_ffn(x, *_expert(bank.routed, e))
        assert max_abs_diff(moe_forward(x, cfg, bank), want) <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 3, 8), (5, 7), (7,), ()])
    def test_bad_input_shape_rejected(self, shape):
        rng = Rng(16)
        cfg = MoeConfig(n_routed=4, k_active=2, n_shared=0, expert_dim=4, hidden=8)
        bank = _random_bank(rng, cfg)
        with pytest.raises(DimensionError):
            moe_forward(np.zeros(shape, dtype=np.float32), cfg, bank)


class TestUpcycle:
    def test_replication_count_published_sizes(self):
        assert replication_count(64, 2560, 18_944) == 9

    def test_replication_count_random_triples(self):
        rng = Rng(7)
        for _ in range(10):
            n = 1 + int(rng.uint64s(1)[0] % 64)
            h_e = 1 + int(rng.uint64s(1)[0] % 512)
            h_ffn = 1 + int(rng.uint64s(1)[0] % 2048)
            assert replication_count(n, h_e, h_ffn) == math.ceil(n * h_e / h_ffn)

    def test_exact_division_slices_one_copy(self):
        rng = Rng(8)
        w_gate, w_up = rand_f32(rng, 8, 4), rand_f32(rng, 8, 4)
        w_down = rand_f32(rng, 4, 8)
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=0, expert_dim=4, hidden=4)
        seed = 99
        experts, channels = replicate_and_slice(w_gate, w_up, w_down, cfg, Rng(seed))
        perm = Rng(seed).permutation(8)
        assert np.array_equal(channels[0], perm[:4])
        assert np.array_equal(channels[1], perm[4:])
        assert np.array_equal(experts.w_gate[0], w_gate[perm[:4]])
        assert np.array_equal(experts.w_down[1], w_down[:, perm[4:]])

    def test_shuffle_consistency_before_reinit(self):
        # Each sliced expert must compute the dense FFN restricted to its
        # selected intermediate channels (with multiplicity).
        rng = Rng(9)
        h_ffn, d, h_e, n = 6, 4, 4, 3  # experts straddle copy boundaries
        w_gate, w_up = rand_f32(rng, h_ffn, d), rand_f32(rng, h_ffn, d)
        w_down = rand_f32(rng, d, h_ffn)
        cfg = MoeConfig(n_routed=n, k_active=1, n_shared=0, expert_dim=h_e, hidden=d)
        experts, channels = replicate_and_slice(w_gate, w_up, w_down, cfg, Rng(17))
        x = rand_f32(rng, d)
        for e, chans in enumerate(channels):
            got = swiglu_ffn(x, *_expert(experts, e))
            want = np.zeros(d)
            for c in chans:
                g = float(w_gate[c] @ x)
                u = float(w_up[c] @ x)
                want += (g / (1.0 + math.exp(-g)) * u) * w_down[:, c].astype(np.float64)
            assert max_abs_diff(got, want) <= 1e-5

    def test_masked_dense_equivalence_unique_channels(self):
        rng = Rng(10)
        h_ffn, d = 8, 4
        w_gate, w_up = rand_f32(rng, h_ffn, d), rand_f32(rng, h_ffn, d)
        w_down = rand_f32(rng, d, h_ffn)
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=0, expert_dim=4, hidden=d)
        experts, channels = replicate_and_slice(w_gate, w_up, w_down, cfg, Rng(18))
        x = rand_f32(rng, d)
        for e, chans in enumerate(channels):
            masked_down = np.zeros_like(w_down)
            masked_down[:, chans] = w_down[:, chans]
            want = swiglu_ffn(x, w_gate, w_up, masked_down)
            assert max_abs_diff(swiglu_ffn(x, *_expert(experts, e)), want) <= 1e-5

    def test_reinit_fraction_is_exact_half(self):
        rng_w = Rng(11)
        h_ffn, d = 8, 6
        w_gate, w_up = rand_f32(rng_w, h_ffn, d), rand_f32(rng_w, h_ffn, d)
        w_down = rand_f32(rng_w, d, h_ffn)
        cfg = MoeConfig(n_routed=3, k_active=1, n_shared=1, expert_dim=4, hidden=d)
        seed = 23
        bank = upcycle_from_dense(w_gate, w_up, w_down, cfg, Rng(seed))
        before, _ = replicate_and_slice(w_gate, w_up, w_down, cfg, Rng(seed))
        count = cfg.params_per_expert
        for e in range(cfg.n_routed):
            changed = sum(
                int(np.sum(pre != post))
                for pre, post in zip(_expert(before, e), _expert(bank.routed, e))
            )
            assert changed == count // 2
            assert changed / count == (count // 2) / count

    def test_expert_diversity_before_reinit(self):
        rng_w = Rng(12)
        h_ffn, d = 8, 4
        w_gate, w_up = rand_f32(rng_w, h_ffn, d), rand_f32(rng_w, h_ffn, d)
        w_down = rand_f32(rng_w, d, h_ffn)
        cfg = MoeConfig(n_routed=4, k_active=1, n_shared=0, expert_dim=4, hidden=d)
        experts, channels = replicate_and_slice(w_gate, w_up, w_down, cfg, Rng(19))
        for a in range(cfg.n_routed):
            for b in range(a + 1, cfg.n_routed):
                if np.array_equal(channels[a], channels[b]):
                    continue  # identical channel order would copy weights too
                assert not np.array_equal(experts.w_gate[a], experts.w_gate[b])

    def test_upcycled_bank_validates_and_runs(self):
        rng_w = Rng(13)
        w_gate, w_up = rand_f32(rng_w, 16, 8), rand_f32(rng_w, 16, 8)
        w_down = rand_f32(rng_w, 8, 16)
        cfg = MoeConfig(n_routed=4, k_active=2, n_shared=2, expert_dim=8, hidden=8)
        bank = upcycle_from_dense(w_gate, w_up, w_down, cfg, Rng(1))
        out = moe_forward(rand_f32(rng_w, 8), cfg, bank)
        assert out.shape == (8,)
        assert np.isfinite(out).all()

    def test_upcycled_bank_is_pinned(self):
        # Digest recorded before the permutation loop was rewritten: seeded
        # upcycling must keep reproducing the same bank byte for byte.
        rng = Rng(5)
        w_gate = rng.normals(24 * 16).astype(np.float32).reshape(24, 16)
        w_up = rng.normals(24 * 16).astype(np.float32).reshape(24, 16)
        w_down = rng.normals(16 * 24).astype(np.float32).reshape(16, 24)
        cfg = MoeConfig(n_routed=5, k_active=2, n_shared=1, expert_dim=12, hidden=16)
        bank = upcycle_from_dense(w_gate, w_up, w_down, cfg, Rng(31))
        digest = hashlib.sha256()
        experts = [_expert(bank.routed, e) for e in range(cfg.n_routed)]
        experts += [_expert(bank.shared, s) for s in range(cfg.n_shared)]
        for triple in experts:
            for arr in triple:
                digest.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        digest.update(np.ascontiguousarray(bank.router, dtype="<f4").tobytes())
        assert digest.hexdigest() == (
            "24fed0dd184f5b607f4edc1a25a6f73d9d29920ce96924f78d82de87ce6dfdd4"
        )

    def test_hidden_mismatch_rejected(self):
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=0, expert_dim=4, hidden=5)
        with pytest.raises(ConfigError):
            upcycle_from_dense(np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((4, 8)),
                               cfg, Rng(0))

    def test_inconsistent_dense_weights_rejected(self):
        cfg = MoeConfig(n_routed=2, k_active=1, n_shared=0, expert_dim=4, hidden=4)
        with pytest.raises(DimensionError):
            upcycle_from_dense(np.zeros((8, 4)), np.zeros((7, 4)), np.zeros((4, 8)),
                               cfg, Rng(0))


class TestMoeConfig:
    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            MoeConfig(n_routed=4, k_active=5, n_shared=0, expert_dim=4, hidden=4)
        with pytest.raises(ConfigError):
            MoeConfig(n_routed=4, k_active=0, n_shared=0, expert_dim=4, hidden=4)

    def test_negative_shared_rejected(self):
        with pytest.raises(ConfigError):
            MoeConfig(n_routed=4, k_active=1, n_shared=-1, expert_dim=4, hidden=4)
