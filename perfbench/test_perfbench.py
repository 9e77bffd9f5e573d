"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qwenkit as qk  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import END, NAME, NOTE, PARENT, REQUEST, START  # noqa: E402


# --- percentile rule --------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values[::-1], 90) == 90
    assert metrics.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_percentile_index_points_at_the_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile_index(values, 50) == 4
    assert metrics.percentile_index(values, 90) == 0


@pytest.mark.parametrize("n, supported", [(99, False), (100, True), (250, True), (10, False)])
def test_tail_needs_ten_samples_beyond(n, supported):
    assert metrics.tail_supported(n, 90) is supported
    values = list(range(n))
    p90 = metrics.percentile(values, 90)
    assert sum(v > p90 for v in values) == metrics.beyond(n, 90)


class _FakeWorkload:
    """Instant requests in blocks of seven."""

    def blocks(self):
        while True:
            yield list(range(7))

    def execute(self, req):
        return req

    def check(self, req, out):
        return out == req

    def work(self, req, out):
        return 1


def test_loop_serves_whole_blocks_until_the_tail_is_supported():
    loop = run.Loop(_FakeWorkload())
    loop.run(0.0, min_requests=run.MIN_REQUESTS)
    assert metrics.tail_supported(run.MIN_REQUESTS, 90)
    assert not metrics.tail_supported(run.MIN_REQUESTS - 1, 90)
    assert len(loop.latencies) == 105 == 7 * len(loop.blocks)
    assert loop.attempted == 105 and loop.failed == 0 and loop.work == 105


def test_requests_carry_their_cost_class():
    for classes, make in ((inputs.PREFILL_CLASSES, inputs.prefill_block),
                          (inputs.DECODE_CLASSES, inputs.decode_block)):
        got = sorted(r.slot for r in make(np.random.default_rng(0)))
        assert got == sorted(cls for cls, slots in classes.items() for _ in slots)


@pytest.mark.parametrize("name", ["prefill", "decode", "corpus"])
def test_rank_slots_read_the_top_of_a_cost_class(name):
    # Classes are listed cheapest first; a block holds every slot once.
    sizes = {"prefill": {c: len(s) for c, s in inputs.PREFILL_CLASSES.items()},
             "decode": {c: len(s) for c, s in inputs.DECODE_CLASSES.items()},
             "corpus": {c: n for c, (n, _) in inputs.SHARD_CLASSES.items()}}[name]
    ranked = [cls for cls, count in sizes.items() for _ in range(count)]
    for q, cls in inputs.RANK_SLOTS[name].items():
        rank = metrics.percentile_index(list(range(len(ranked))), q)
        assert ranked[rank] == cls
        # Read as a quantile within its own class, the rank sits near the top.
        assert (rank + 1 - ranked.index(cls)) / sizes[cls] >= 0.9


# --- self time ---------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_of_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.0, 1),
        _span("a.y", 2.5, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.z", 5.0, 9.0, 4),
        _span("other_root", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [_span("p", 0.0, 10.0, -1), _span("c1", 1.0, 5.0, 0), _span("c2", 3.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


# --- dual-chunk pair counts ----------------------------------------------------

@pytest.mark.parametrize("seq, chunk, window", [(1, 4, 2), (4, 4, 2), (11, 4, 2),
                                                (13, 4, 4), (17, 5, 1), (30, 8, None)])
def test_dca_pair_counts_follow_dca_relpos(seq, chunk, window):
    dca = qk.DcaParams(chunk, window)
    true_distance = collapsed = same_chunk = 0
    for i in range(seq):
        for j in range(i + 1):
            d = qk.dca_relpos(i, j, dca)
            if d == i - j:
                true_distance += 1
                same_chunk += i // chunk == j // chunk
            else:
                collapsed += 1
                assert d == (chunk - 1) - (j % chunk)
    intra, succ, inter = oracles.dca_pair_counts(seq, chunk, dca.local_window)
    # An inter-chunk pair never keeps its true distance, so the rule's first
    # two branches are exactly the pairs whose distance is kept.
    assert (intra, succ, inter) == (same_chunk, true_distance - same_chunk, collapsed)


# --- generator determinism -----------------------------------------------------

def test_request_streams_repeat_per_seed():
    for block in (inputs.prefill_block, inputs.decode_block):
        a = [block(np.random.default_rng([5, 1])) for _ in range(2)]
        b = [block(np.random.default_rng([5, 1])) for _ in range(2)]
        c = block(np.random.default_rng([6, 1]))
        assert a == b
        assert a[0] != c


def test_request_mix_is_fixed_per_block():
    reqs = inputs.prefill_block(np.random.default_rng(0))
    assert sorted(r.variant for r in reqs) == sorted(v for v, _ in inputs.PREFILL_BLOCK)
    assert max(len(r.ids) for r in reqs) <= max(n for _, n in inputs.PREFILL_BLOCK)
    reqs = inputs.decode_block(np.random.default_rng(0))
    assert len(reqs) == sum(len(slots) for slots in inputs.DECODE_CLASSES.values())
    assert max(len(r.prompt) + r.max_new for r in reqs) <= inputs.MODEL["max_ctx"]


def test_corpus_repeats_per_seed_and_plants_leaks():
    a, b, c = inputs.make_corpus(3), inputs.make_corpus(3), inputs.make_corpus(4)
    assert a == b
    assert a.leaks != c.leaks
    assert len(a.leaks) == sum(min(len(shard), len(inputs.LEAK_KINDS)) for shard in a.shards)
    assert [len(shard) for shard in a.shards] == [
        len(inputs.SHARD_CLASSES[cls][1]) for cls in inputs.SHARD_CLASS]
    for leak in a.leaks:
        assert a.test_sets[leak.test_set][leak.sample] in a.shards[leak.shard][leak.doc]
    lengths = [len(s.split()) for samples in a.test_sets.values() for s in samples]
    assert min(lengths) < inputs.NGRAM_N <= max(lengths)


def test_write_corpus_round_trips(tmp_path):
    corpus = inputs.make_corpus(1)
    inputs.write_corpus(corpus, tmp_path / "train.txt", tmp_path / "tests")
    lines = (tmp_path / "train.txt").read_text(encoding="utf-8").splitlines()
    assert lines == [d for shard in corpus.shards for d in shard]
    sets = qk.decontam.load_test_sets(tmp_path / "tests")
    assert {k: len(v) for k, v in sets.items()} == {
        k: len(v) for k, v in corpus.test_sets.items()}


# --- independent oracles ---------------------------------------------------------

def _dp_lcs(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(cur[j], prev[j + 1]))
        prev = cur
    return prev[-1]


def test_bit_parallel_lcs_matches_dp():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = list(rng.integers(0, 4, rng.integers(0, 40)))
        b = list(rng.integers(0, 4, rng.integers(0, 40)))
        assert oracles.lcs_length(a, b) == _dp_lcs(a, b) == qk.lcs_len(a, b)


def test_ngram_verdict():
    docs = [tuple("a b c d e f".split())]
    assert oracles.ngram_verdict(("c", "d"), docs, 3)
    assert not oracles.ngram_verdict(("c", "e"), docs, 3)
    assert oracles.ngram_verdict(("x", "b", "c", "d"), docs, 3)
    assert not oracles.ngram_verdict(("b", "c", "x", "d"), docs, 3)


# --- tracing ----------------------------------------------------------------------

def _tiny():
    cfg = qk.ModelConfig(hidden=16, n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=4,
                         ffn_intermediate=32, vocab_size=64, regular_tokens=60, max_ctx=64)
    return qk.build_model(cfg, 0), cfg


def test_tracer_records_nested_spans_and_restores_bindings():
    w, cfg = _tiny()
    original = qk.model.gqa_attention
    expected = qk.forward(w, cfg, [1, 2, 3])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qk.model.gqa_attention is not original
        assert qk.longctx.gqa_attention is qk.model.gqa_attention
        tracer.request = 7
        got = qk.forward(w, cfg, [1, 2, 3])
        out = qk.greedy_decode(w, cfg, [1, 2], 3)
    finally:
        tracer.uninstall()
    assert tracer.restored() and not tracing.leftover_wrappers()
    assert qk.model.gqa_attention is original and qk.layers.gqa_attention is original
    assert np.array_equal(got, expected)

    spans = tracer.spans
    root = [i for i, s in enumerate(spans) if s[NAME] == "model.forward"]
    attn = [s for s in spans if s[NAME] == "layers.gqa_attention"]
    assert len(root) == 1 and len(attn) == cfg.n_layers
    assert all(s[PARENT] == root[0] and s[REQUEST] == 7 for s in attn)
    assert all(spans[root[0]][START] <= s[START] <= s[END] <= spans[root[0]][END] for s in attn)

    values = metrics.layer_metrics(spans, tracing.self_times(spans))
    assert values["model.tokens.prefill"][0] == 3
    assert values["model.tokens.decode"][0] == len(out) - 2
    assert values["layers.gqa_attention.computed_mb"][0] == pytest.approx(4 * 4 * 9 / 1e6)
    assert values["layers.kv_cache.peak_mb"][0] == pytest.approx(
        2 * 4 * cfg.n_layers * 4 * 2 * 4 / 1e6)
    assert values["model.greedy_decode.ms_per_token.ctx_0-256"][0] > 0
    assert values["tokenizer.bpe_train.self_s"][0] == 0.0
    decode_steps = [s for s in spans if s[NAME] == "layers.decode_step"]
    assert [s[NOTE][0] for s in decode_steps if s[NOTE][1] == 0] == [0, 1, 2, 3]


def test_tracer_counts_prefilter_skips():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        long_a = tuple(str(i) for i in range(20))
        qk.lcs_contaminated(long_a, long_a)          # runs the DP
        qk.lcs_contaminated(long_a, ("x",) * 20)     # skipped by the prefilter
    finally:
        tracer.uninstall()
    values = metrics.layer_metrics(tracer.spans, tracing.self_times(tracer.spans))
    assert values["decontam.lcs_contaminated.calls"][0] == 2
    assert values["decontam.lcs_len.calls"][0] == 1
    assert values["decontam.prefilter.skip_ratio"][0] == 0.5
