"""The three workloads: set-up, one request, and the checks on its output.

Every workload drives qwenkit only through its public API. A workload
yields requests in blocks (see ``inputs``); :meth:`execute` is the only
timed call, and every check runs outside it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import qwenkit as qk
import inputs
import oracles

# Logit agreement between two evaluation orders of the same model.
LOGIT_TOL = 1e-5


def _unit_gains(w):
    """Set every RMSNorm gain to 1, as in a trained model. With the N(0, 0.02)
    gains build_model draws, activations shrink so far that attention is
    near uniform and logits sit near 1e-3, too flat for a 1e-5 check to
    catch a wrong mask, position or scale."""
    for lw in w.layers:
        lw.attn_gamma[:] = 1.0
        lw.ffn_gamma[:] = 1.0
    w.final_gamma[:] = 1.0
    return w


class ModelWorkload:
    """Set-up shared by prefill and decode: build the dense model, round-trip
    it through the weight container, upcycle it to MoE and round-trip that."""

    # A set-up takes seconds and holds a second copy of every model, so
    # timed set-ups run back to back before the requests.
    setup_between_blocks = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.variants: dict[str, tuple] = {}

    def setup(self) -> tuple[float, bool]:
        cfg = qk.ModelConfig(**inputs.MODEL)
        moe = qk.MoeConfig(hidden=cfg.hidden, **inputs.MOE)
        dense_path = self.workdir / "dense.qw2t"
        moe_path = self.workdir / "moe.qw2t"
        t0 = perf_counter()
        dense = _unit_gains(qk.build_model(cfg, inputs.WEIGHT_SEED))
        qk.save_weights(dense, cfg, dense_path)
        dense_back, dense_cfg = qk.load_weights(dense_path)
        moe_w, moe_cfg = qk.upcycle_model(dense_back, dense_cfg, moe, inputs.UPCYCLE_SEED)
        qk.save_weights(moe_w, moe_cfg, moe_path)
        moe_back, moe_cfg_back = qk.load_weights(moe_path)
        elapsed = perf_counter() - t0
        ok = (dense_cfg == cfg and oracles.weights_equal(dense, dense_back)
              and moe_cfg_back == moe_cfg and oracles.weights_equal(moe_w, moe_back))
        dca_cfg = replace(cfg, yarn=qk.YarnParams(**inputs.YARN),
                          dca=qk.DcaParams(inputs.DCA_CHUNK))
        self.variants = {
            "dense": (dense_back, dense_cfg),
            "moe": (moe_back, moe_cfg_back),
            "dca": (dense_back, dca_cfg),
        }
        return elapsed, ok


class PrefillWorkload(ModelWorkload):
    name = "prefill"

    def blocks(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield inputs.prefill_block(rng)

    def warmup(self) -> None:
        """One longest request per variant, so lazy imports and the largest
        attention buffers are paid for before timing."""
        for variant in self.variants:
            n = max(length for v, length in inputs.PREFILL_BLOCK if v == variant)
            self.execute(inputs.PrefillRequest(variant, tuple(range(n))))

    def execute(self, req):
        w, cfg = self.variants[req.variant]
        return qk.forward(w, cfg, req.ids)

    def check(self, req, logits) -> bool:
        return (logits.shape == (len(req.ids), inputs.MODEL["vocab_size"])
                and bool(np.isfinite(logits).all()))

    @staticmethod
    def work(req, out) -> int:
        return len(req.ids)

    @staticmethod
    def label(req) -> str:
        return f"{req.variant}:{len(req.ids)}"

    @staticmethod
    def slot(req) -> tuple:
        return req.slot

    def final_checks(self, done) -> list[tuple[str, bool]]:
        """Causality on one sampled request per variant, and dual-chunk
        attention against vanilla attention on one request within a chunk."""
        rng = np.random.default_rng([self.seed, 2])
        results = []
        for variant in self.variants:
            pool = [r for r in done if r.variant == variant and 2 <= len(r.ids) <= 600]
            if not pool:
                continue
            req = pool[rng.integers(len(pool))]
            k = int(rng.integers(1, len(req.ids)))
            full = self.execute(req)
            prefix = self.execute(inputs.PrefillRequest(variant, req.ids[:k]))
            results.append((f"causality.{variant}",
                            float(np.abs(full[:k] - prefix).max()) <= LOGIT_TOL))
        short = [r for r in done if len(r.ids) <= inputs.DCA_CHUNK]
        if short:
            req = short[rng.integers(len(short))]
            w, dca_cfg = self.variants["dca"]
            vanilla = qk.forward(w, replace(dca_cfg, dca=None), req.ids)
            dca = qk.forward(w, dca_cfg, req.ids)
            results.append(("dca_single_chunk", float(np.abs(dca - vanilla).max()) <= LOGIT_TOL))
        return results


class DecodeWorkload(ModelWorkload):
    name = "decode"
    max_checked_context = 320

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.outputs: dict = {}

    def blocks(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield inputs.decode_block(rng)

    def warmup(self) -> None:
        for variant in ("dense", "moe"):
            self.execute(inputs.DecodeRequest(variant, tuple(range(32)), 32))

    def execute(self, req):
        w, cfg = self.variants[req.variant]
        return qk.greedy_decode(w, cfg, req.prompt, req.max_new)

    def check(self, req, out) -> bool:
        self.outputs[req] = out
        n = len(req.prompt)
        eot = inputs.MODEL["eot_id"]
        full = len(out) == n + req.max_new
        return (tuple(out[:n]) == req.prompt and n < len(out) <= n + req.max_new
                and (full or out[-1] == eot)
                and all(0 <= t < inputs.MODEL["vocab_size"] for t in out))

    @staticmethod
    def work(req, out) -> int:
        return len(out) - len(req.prompt)

    @staticmethod
    def label(req) -> str:
        return f"{req.variant}:{len(req.prompt)}+{req.max_new}"

    @staticmethod
    def slot(req) -> tuple:
        return req.slot

    def final_checks(self, done) -> list[tuple[str, bool]]:
        """The greedy chain of one sampled request per variant, rebuilt with
        one causal forward pass: each emitted token is the argmax of the
        logits of the position before it, up to ties within LOGIT_TOL."""
        rng = np.random.default_rng([self.seed, 2])
        results = []
        for variant in ("dense", "moe"):
            pool = [r for r in done
                    if r.variant == variant
                    and len(r.prompt) + r.max_new <= self.max_checked_context]
            if not pool:
                continue
            req = pool[rng.integers(len(pool))]
            out = self.outputs[req]
            w, cfg = self.variants[variant]
            logits = qk.forward(w, cfg, out[:-1])
            ok = all(logits[t - 1][out[t]] >= logits[t - 1].max() - LOGIT_TOL
                     for t in range(len(req.prompt), len(out)))
            results.append((f"argmax_chain.{variant}", ok))
        return results


class CorpusWorkload:
    """One data-prep job per request, each on one shard of the corpus: train
    BPE, encode/decode every document, measure compression, normalize, and
    filter in both decontamination modes against all test sets."""

    name = "corpus"
    # A set-up only reads the files: cheap enough to time after every block.
    setup_between_blocks = True
    merges = 40

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus = inputs.make_corpus(seed)
        self.train_path = workdir / "train.txt"
        self.tests_dir = workdir / "tests"
        inputs.write_corpus(self.corpus, self.train_path, self.tests_dir)
        # Index of each shard's first document in the training file.
        self.starts = np.cumsum([0] + [len(docs) for docs in self.corpus.shards]).tolist()
        self.expected: dict[int, dict] = {}
        self.first_output: dict[int, tuple] = {}

    def setup(self) -> tuple[float, bool]:
        t0 = perf_counter()
        lines = self.train_path.read_text(encoding="utf-8").splitlines()
        docs = qk.decontam.load_docs(self.train_path)
        test_sets = qk.decontam.load_test_sets(self.tests_dir)
        elapsed = perf_counter() - t0
        bounds = list(zip(self.starts, self.starts[1:]))
        self.raw = [lines[a:b] for a, b in bounds]
        self.loaded = [docs[a:b] for a, b in bounds]
        self.test_sets = test_sets
        ok = (len(lines) == len(docs) == self.starts[-1]
              and list(test_sets) == list(self.corpus.test_sets)
              and lines == [d for shard in self.corpus.shards for d in shard])
        return elapsed, ok

    def blocks(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield [int(s) for s in rng.permutation(inputs.N_SHARDS)]

    def warmup(self) -> None:
        self.execute(0)

    def execute(self, shard: int):
        raw = self.raw[shard]
        vocab = qk.bpe_train(raw, 256 + len(qk.tokenizer.DEFAULT_CONTROL_TOKENS) + self.merges)
        encoded = [qk.encode(vocab, doc) for doc in raw]
        decoded = [qk.decode(vocab, ids) for ids in encoded]
        rate = qk.compression_rate(vocab, raw)
        first = self.starts[shard] + 1
        docs = [qk.normalize(doc, source_id=f"{self.train_path.name}:{first + i}")
                for i, doc in enumerate(raw)]
        _, _, lcs_report = qk.filter_corpus(docs, self.test_sets, qk.decontam.MODE_TRAIN_LCS)
        _, _, ngram_report = qk.filter_corpus(docs, self.test_sets, qk.decontam.MODE_TEST_NGRAM)
        return encoded, decoded, rate, docs, lcs_report, ngram_report

    @staticmethod
    def work(shard, out) -> float:
        """Kilobytes of raw training text the job processed."""
        return sum(len(d) for d in out[1]) / 1e3

    @staticmethod
    def label(shard) -> str:
        return f"{inputs.SHARD_CLASS[shard]}:{shard}"

    @staticmethod
    def slot(shard) -> str:
        return inputs.SHARD_CLASS[shard]

    def _expected(self, shard: int) -> dict:
        """Verdicts re-derived by the benchmark's own oracles, once per shard."""
        if shard not in self.expected:
            docs = self.loaded[shard]
            lcs = {}
            for doc in docs:
                for name, samples in self.test_sets.items():
                    hits = {s.source_id: oracles.lcs_length(doc.tokens, s.tokens)
                            for s in samples
                            if oracles.lcs_verdict(doc.tokens, s.tokens, inputs.LCS_MIN_LEN,
                                                   inputs.LCS_MIN_FRAC)}
                    if hits:
                        lcs[(doc.source_id, name)] = hits
            ngram = {s.source_id for samples in self.test_sets.values() for s in samples
                     if oracles.ngram_verdict(s.tokens, [d.tokens for d in docs],
                                              inputs.NGRAM_N)}
            planted_ngram = {self.test_sets[leak.test_set][leak.sample].source_id
                             for leak in self.corpus.leaks if leak.shard == shard}
            self.expected[shard] = dict(lcs=lcs, ngram=ngram, planted_ngram=planted_ngram)
        return self.expected[shard]

    def check(self, shard: int, out) -> bool:
        encoded, decoded, rate, docs, lcs_report, ngram_report = out
        raw = self.raw[shard]
        exp = self._expected(shard)
        lcs_found = {(v.doc_id, v.test_set): (v.counterpart, v.detail)
                     for v in lcs_report.verdicts}
        ngram_found = {v.doc_id for v in ngram_report.verdicts}
        ok = (
            decoded == [d.encode("utf-8") for d in raw]
            and rate == sum(len(d) for d in decoded) / sum(len(e) for e in encoded)
            and docs == self.loaded[shard]
            and exp["planted_ngram"] <= ngram_found
            # The oracle's LCS verdicts cover every (document, sample) pair,
            # so equality also flags every planted leak that meets the
            # thresholds.
            and set(lcs_found) == set(exp["lcs"])
            and all(exp["lcs"][key].get(sample) == detail
                    for key, (sample, detail) in lcs_found.items())
            and ngram_found == exp["ngram"]
        )
        # A job repeated on the same shard must give the same answer.
        summary = (rate, tuple(map(tuple, encoded)), sorted(lcs_found), sorted(ngram_found))
        return ok and self.first_output.setdefault(shard, summary) == summary

    def final_checks(self, done) -> list[tuple[str, bool]]:
        return []


WORKLOADS = {w.name: w for w in (PrefillWorkload, DecodeWorkload, CorpusWorkload)}
