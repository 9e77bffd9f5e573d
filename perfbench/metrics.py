"""Latency statistics and the per-layer metrics derived from trace spans."""

from __future__ import annotations

import math
from collections import defaultdict

from oracles import dca_pair_counts
from tracing import END, NAME, NOTE, PARENT, START

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
MB = 1e6
CTX_BUCKETS = ((0, 256), (256, 512), (512, 1024))


def percentile_index(values, q: float) -> int:
    """Index in ``values`` of the nearest-rank q-th percentile: the smallest
    sample with at least q% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[max(1, math.ceil(q / 100 * len(values))) - 1]


def percentile(values, q: float) -> float:
    return values[percentile_index(values, q)]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_supported(n: int, q: float) -> bool:
    return beyond(n, q) >= MIN_BEYOND


def _decode_ms_per_token(spans) -> dict[str, float]:
    """Mean ms per generated or prompt token, by the context position the
    token is fed at: the gap between consecutive layer-0 decode steps of one
    greedy_decode call, the last step running to the call's end."""
    steps = defaultdict(list)
    for s in spans:
        if s[NAME] == "layers.decode_step" and s[NOTE][1] == 0:
            steps[s[PARENT]].append((s[NOTE][0], s[START]))
    sums = defaultdict(float)
    counts = defaultdict(int)
    for parent, seq in steps.items():
        seq.sort()
        ends = [start for _, start in seq[1:]] + [spans[parent][END]]
        for (pos, start), end in zip(seq, ends):
            for lo, hi in CTX_BUCKETS:
                if lo <= pos < hi:
                    sums[lo] += end - start
                    counts[lo] += 1
    return {
        f"model.greedy_decode.ms_per_token.ctx_{lo}-{hi}":
            1e3 * sums[lo] / counts[lo] if counts[lo] else 0.0
        for lo, hi in CTX_BUCKETS
    }


def layer_metrics(spans, selfs) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over one traced pass; zero for layers not called."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    noted = defaultdict(list)
    for s, own in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += own
        total_s[s[NAME]] += s[END] - s[START]
        if s[NOTE] is not None:
            noted[s[NAME]].append(s[NOTE])

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "model.forward", "model.greedy_decode", "layers.gqa_attention",
        "layers.decode_step", "layers.KvCache.keys", "layers.KvCache.values",
        "layers.apply_rope", "layers.rms_norm", "layers.swiglu_ffn",
        "ops.softmax_rows", "ops.silu", "ops.Rng.permutation",
        "longctx.dca_attention", "moe.moe_forward", "moe.upcycle_from_dense",
        "serialize.save_weights", "serialize.load_weights", "tokenizer.bpe_train",
        "tokenizer.encode", "tokenizer.decode", "decontam.normalize",
        "decontam.lcs_len", "decontam.find_ngram_match",
    ):
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("moe.moe_forward", "moe.validate_bank", "moe.topk_select",
                 "decontam.lcs_contaminated", "decontam.lcs_len",
                 "decontam.NgramIndex.contains_run"):
        out[f"{name}.calls"] = (calls[name], "count")

    out.update((k, (v, "ms")) for k, v in _decode_ms_per_token(spans).items())
    out["model.tokens.prefill"] = (sum(noted["model.forward"]), "count")
    out["model.tokens.decode"] = (
        sum(done - prompt for prompt, done in noted["model.greedy_decode"]), "count")

    # Largest [heads, seq, seq] float32 score tensor one call computes.
    out["layers.gqa_attention.computed_mb"] = (
        max((4 * q[0] * q[1] ** 2 / MB for q in noted["layers.gqa_attention"]),
            default=0.0), "MB")
    dca = noted["longctx.dca_attention"]
    out["longctx.dca_attention.computed_mb"] = (
        max((4 * q[0] * q[1] ** 2 / MB for q, _ in dca), default=0.0), "MB")
    pairs = [0, 0, 0]
    for q, params in dca:
        for b, n in enumerate(dca_pair_counts(q[1], params.chunk_size, params.local_window)):
            pairs[b] += n
    for b, branch in enumerate(("intra", "successive", "inter")):
        out[f"longctx.dca.pairs.{branch}"] = (pairs[b], "count")

    # Keys and values of every layer at the longest context one cache held.
    out["layers.kv_cache.peak_mb"] = (
        max((2 * (pos + 1) * n_layers * 4 * shape[0] * shape[1] / MB
             for pos, _, n_layers, shape in noted["layers.decode_step"]), default=0.0),
        "MB")

    topk = noted["moe.topk_select"]
    load = defaultdict(int)
    for chosen, _ in topk:
        for e in chosen:
            load[e] += 1
    mean_load = sum(load.values()) / len(load) if load else 0.0
    out["moe.expert_load.max_over_mean"] = (
        max(load.values()) / mean_load if load else 0.0, "ratio")
    out["moe.topk.tie_breaks"] = (sum(tie for _, tie in topk), "count")

    for name in ("serialize.save_weights", "serialize.load_weights"):
        size = sum(noted[name])
        out[f"{name}.mb_per_s"] = (size / MB / total_s[name] if total_s[name] else 0.0, "MB/s")
    enc_bytes = sum(noted["tokenizer.encode"])
    out["tokenizer.encode.kb_per_s"] = (
        enc_bytes / 1e3 / total_s["tokenizer.encode"] if total_s["tokenizer.encode"] else 0.0,
        "KB/s")
    rates = noted["tokenizer.compression_rate"]
    out["tokenizer.compression_rate"] = (sum(rates) / len(rates) if rates else 0.0, "B/token")

    lcs_calls = [i for i, s in enumerate(spans) if s[NAME] == "decontam.lcs_contaminated"]
    ran_dp = {s[PARENT] for s in spans if s[NAME] == "decontam.lcs_len"}
    out["decontam.prefilter.skip_ratio"] = (
        sum(i not in ran_dp for i in lcs_calls) / len(lcs_calls) if lcs_calls else 0.0,
        "ratio")
    out["decontam.NgramIndex.build_s"] = (total_s["decontam.NgramIndex.__init__"], "s")
    return out
