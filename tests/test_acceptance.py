"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``."""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from helpers import max_abs_diff, rand_f32
from test_decontam import oracle_lcs
from test_layers import ref_mha
from test_model import TABLE
from test_moe import oracle_moe, _expert, _random_bank
from test_tokenizer import MULTILINGUAL

import qwenkit as qk


def criterion(num, name, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                ok = elapsed < limit_s
            except BaseException:
                print(f"[acceptance] {num:2d} {name}: FAIL")
                raise
            if not ok:
                print(f"[acceptance] {num:2d} {name}: FAIL (runtime {elapsed:.2f}s "
                      f"over {limit_s}s budget)")
                pytest.fail(f"criterion {num} exceeded its {limit_s}s budget")
            print(f"[acceptance] {num:2d} {name}: PASS ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "dual-chunk single-chunk identity", 10)
def test_criterion_1_dca_identity():
    rope = qk.RopeParams(10_000.0, 16)
    dca = qk.DcaParams(64)
    for nq, nkv in ((14, 2), (12, 2), (28, 4), (64, 8)):
        params = qk.AttentionParams(nq, nkv, 16)
        rng = qk.Rng(nq * 1000 + nkv)
        for seq in (1, 8, 64):
            q = rand_f32(rng, nq, seq, 16)
            k = rand_f32(rng, nkv, seq, 16)
            v = rand_f32(rng, nkv, seq, 16)
            vanilla = qk.gqa_attention(q, k, v, params, list(range(seq)), rope)
            chunked = qk.dca_attention(q, k, v, params, dca, rope)
            assert max_abs_diff(vanilla, chunked) <= 1e-5


@criterion(2, "grouped-query equals multi-head oracle", 5)
def test_criterion_2_gqa_mha():
    rng = qk.Rng(202)
    for trial in range(50):
        heads = (1, 2, 4)[trial % 3]
        hd = (4, 8, 16)[(trial // 3) % 3]
        seq = 1 + trial % 12
        params = qk.AttentionParams(heads, heads, hd)
        q = rand_f32(rng, heads, seq, hd)
        k = rand_f32(rng, heads, seq, hd)
        v = rand_f32(rng, heads, seq, hd)
        got = qk.gqa_attention(q, k, v, params, list(range(seq)),
                               qk.RopeParams(10_000.0, hd))
        assert max_abs_diff(got, ref_mha(q, k, v, 10_000.0, list(range(seq)))) <= 1e-5


@criterion(3, "kv-cache decode equals full forward", 10)
def test_criterion_3_kv_cache():
    cfg = qk.preset("nano")
    weights = qk.build_model(cfg, seed=303)
    rng = qk.Rng(303)
    ids = [int(v % cfg.vocab_size) for v in rng.uint64s(32)]

    cache = qk.KvCache(cfg.n_layers)
    from qwenkit.model import _blocks, _logits, _rotary

    rotary = _rotary(cfg, 32)
    for length in range(1, 33):
        step_logits = _logits(weights, cfg,
                              _blocks(weights, cfg, [ids[length - 1]], cache, rotary)[-1])
        full = qk.forward(weights, cfg, ids[:length])
        assert max_abs_diff(step_logits, full[-1]) <= 1e-5


@criterion(4, "mixture-of-experts combination fidelity", 5)
def test_criterion_4_moe():
    rng = qk.Rng(404)
    cfg = qk.MoeConfig(n_routed=16, k_active=4, n_shared=0, expert_dim=8, hidden=8)
    for _ in range(100):
        bank = _random_bank(rng, cfg)
        x = rand_f32(rng, 8)
        assert max_abs_diff(qk.moe_forward(x, cfg, bank), oracle_moe(x, cfg, bank)) <= 1e-5
    # degenerate single-expert mixture is the dense FFN, bit for bit
    dcfg = qk.MoeConfig(n_routed=1, k_active=1, n_shared=0, expert_dim=16, hidden=8)
    bank = _random_bank(rng, dcfg)
    x = rand_f32(rng, 8)
    assert np.array_equal(qk.moe_forward(x, dcfg, bank),
                          qk.swiglu_ffn(x, *_expert(bank.routed, 0)))


@criterion(5, "dense-to-moe upcycling procedure", 5)
def test_criterion_5_upcycle():
    assert qk.replication_count(64, 2560, 18_944) == 9
    rng = qk.Rng(505)
    for _ in range(10):
        n = 1 + int(rng.uint64s(1)[0] % 64)
        h_e = 1 + int(rng.uint64s(1)[0] % 512)
        h_ffn = 1 + int(rng.uint64s(1)[0] % 2048)
        assert qk.replication_count(n, h_e, h_ffn) == math.ceil(n * h_e / h_ffn)

    from qwenkit.moe import replicate_and_slice

    h_ffn, d = 12, 6
    w_gate, w_up = rand_f32(rng, h_ffn, d), rand_f32(rng, h_ffn, d)
    w_down = rand_f32(rng, d, h_ffn)
    cfg = qk.MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=5, hidden=d)
    experts, channels = replicate_and_slice(w_gate, w_up, w_down, cfg, qk.Rng(51))
    x = rand_f32(rng, d)
    for e, chans in enumerate(channels):
        want = np.zeros(d)
        for c in chans:
            g = float(w_gate[c] @ x)
            u = float(w_up[c] @ x)
            want += (g / (1.0 + math.exp(-g)) * u) * w_down[:, c].astype(np.float64)
        assert max_abs_diff(qk.swiglu_ffn(x, *_expert(experts, e)), want) <= 1e-5

    bank = qk.upcycle_from_dense(w_gate, w_up, w_down, cfg, qk.Rng(51))
    before, _ = replicate_and_slice(w_gate, w_up, w_down, cfg, qk.Rng(51))
    count = cfg.params_per_expert
    for e in range(cfg.n_routed):
        changed = sum(int(np.sum(pre != post))
                      for pre, post in zip(_expert(before, e), _expert(bank.routed, e)))
        assert changed == count // 2


@criterion(6, "yarn identity and scaling", 1)
def test_criterion_6_yarn():
    rope = qk.RopeParams(10_000.0, 64)
    base = qk.rope_freqs(rope)
    inv, mult = qk.yarn_adjust(rope, qk.YarnParams(1.0, 4096))
    assert np.array_equal(inv, base) and mult == 1.0
    _, mult4 = qk.yarn_adjust(rope, qk.YarnParams(4.0, 32_768))
    assert abs(math.sqrt(mult4) - 1.13863) <= 1e-4
    yarn = qk.YarnParams(4.0, 4096)
    inv4, _ = qk.yarn_adjust(rope, yarn)
    rho = yarn.native_ctx * base.astype(np.float64) / (2.0 * np.pi)
    fast = rho >= 32.0
    assert fast.any()
    assert np.array_equal(inv4[fast], base[fast])


@criterion(7, "published presets validate", 1)
def test_criterion_7_presets():
    for name, row in TABLE.items():
        cfg = qk.preset(name)
        cfg.validate()
        hidden, layers, nq, nkv, hd, inter, moe, tie, vocab, _ = row
        assert (cfg.hidden, cfg.n_layers, cfg.n_q_heads, cfg.n_kv_heads,
                cfg.head_dim, cfg.ffn_intermediate, cfg.tie_embeddings,
                cfg.vocab_size) == (hidden, layers, nq, nkv, hd, inter, tie, vocab)
        if moe is not None:
            assert (cfg.moe.n_routed, cfg.moe.k_active, cfg.moe.n_shared) == moe
        else:
            assert cfg.moe is None
        assert cfg.vocab_size == 151_646


@criterion(8, "tokenizer roundtrip and compression", 10)
def test_criterion_8_tokenizer():
    vocab = qk.bpe_train(
        [b"roundtrip fixture corpus with words words words", bytes(range(256))], 300)
    rng = qk.Rng(808)
    seen = bytearray(256)
    fixtures = [bytes(range(256))]
    for _ in range(10_000 - len(fixtures)):
        n = int(rng.uint64s(1)[0] % 257)
        data = bytes(int(v % 256) for v in rng.uint64s(n))
        fixtures.append(data)
    for data in fixtures:
        for b in data:
            seen[b] = 1
        assert qk.decode(vocab, qk.encode(vocab, data)) == data
    assert all(seen), "all 256 byte values must be exercised"
    for text in MULTILINGUAL:
        raw = text.encode("utf-8")
        assert qk.decode(vocab, qk.encode(vocab, raw)) == raw
    aaaa = qk.bpe_train([b"aaaa"], 260)
    assert len(aaaa.merges) == 1
    assert qk.compression_rate(aaaa, [b"aaaa"]) == 2.0


@criterion(9, "contamination criterion", 30)
def test_criterion_9_decontam():
    alphabet = ("x", "y", "z")
    seqs = [s for n in range(5) for s in itertools.product(alphabet, repeat=n)]
    for a in seqs:
        for b in seqs:
            assert qk.lcs_len(a, b) == oracle_lcs(a, b)
    rng = qk.Rng(909)
    for _ in range(400):
        la = int(rng.uint64s(1)[0] % 13)
        lb = int(rng.uint64s(1)[0] % 13)
        a = tuple(alphabet[int(v % 3)] for v in rng.uint64s(la))
        b = tuple(alphabet[int(v % 3)] for v in rng.uint64s(lb))
        assert qk.lcs_len(a, b) == oracle_lcs(a, b)

    # threshold boundary table
    thirteen = tuple(f"w{i}" for i in range(13))
    assert qk.lcs_contaminated(qk.TokenSeq(thirteen), qk.TokenSeq(thirteen))
    twelve = thirteen[:12]
    assert not qk.lcs_contaminated(qk.TokenSeq(twelve), qk.TokenSeq(twelve))
    shared = tuple(f"s{i}" for i in range(13))
    train30 = qk.TokenSeq(shared + tuple(f"t{i}" for i in range(17)))
    test30 = qk.TokenSeq(shared + tuple(f"e{i}" for i in range(17)))
    assert qk.lcs_len(train30, test30) == 13  # < 0.6 * 30 = 18
    assert not qk.lcs_contaminated(train30, test30)
    seventeen = tuple(f"w{i}" for i in range(17))
    train_mixed = qk.TokenSeq(seventeen + tuple(f"t{i}" for i in range(13)))
    test_exact = qk.TokenSeq(seventeen)  # LCS 17 >= 13 and >= 0.6 * 17 = 10.2
    assert qk.lcs_contaminated(train_mixed, test_exact)

    from test_decontam import _planted_fixture

    train, tests, planted = _planted_fixture()
    _, removed, _ = qk.filter_corpus(train, tests, "train-side-lcs")
    assert {d.source_id for d in removed} == {f"train{i}" for i in planted}


@criterion(10, "causal masking is exact", 10)
def test_criterion_10_causality():
    cfg = qk.preset("nano")
    rng = qk.Rng(1010)
    for seed in range(20):
        weights = qk.build_model(cfg, seed=seed)
        ids = [int(v % cfg.vocab_size) for v in rng.uint64s(12)]
        base = qk.forward(weights, cfg, ids)
        t = 1 + seed % 11
        mutated = list(ids)
        mutated[t] = (mutated[t] + 7) % cfg.vocab_size
        out = qk.forward(weights, cfg, mutated)
        assert np.array_equal(out[:t], base[:t])


@criterion(11, "weight container persistence", 2)
def test_criterion_11_persistence(tmp_path):
    for name in ("nano", "nano-moe"):
        cfg = qk.preset(name)
        weights = qk.build_model(cfg, seed=1111)
        path = tmp_path / f"{name}.qw2t"
        qk.save_weights(weights, cfg, path)
        restored, cfg2 = qk.load_weights(path)
        assert cfg2 == cfg
        assert np.array_equal(weights.embedding, restored.embedding)
        assert np.array_equal(weights.final_gamma, restored.final_gamma)
        for lw, lw2 in zip(weights.layers, restored.layers):
            assert np.array_equal(lw.wq, lw2.wq)
            if lw.ffn is not None:
                assert np.array_equal(lw.ffn.w_gate, lw2.ffn.w_gate)
            else:
                assert np.array_equal(lw.moe_bank.router, lw2.moe_bank.router)
                assert np.array_equal(lw.moe_bank.routed.w_down, lw2.moe_bank.routed.w_down)

    blob = bytearray((tmp_path / "nano.qw2t").read_bytes())
    corrupted = tmp_path / "bad_magic.qw2t"
    bad = bytearray(blob)
    bad[:4] = b"XXXX"
    corrupted.write_bytes(bytes(bad))
    with pytest.raises(qk.FormatError):
        qk.load_weights(corrupted)
    truncated = tmp_path / "truncated.qw2t"
    truncated.write_bytes(bytes(blob[: len(blob) - 1000]))
    with pytest.raises(qk.FormatError):
        qk.load_weights(truncated)
