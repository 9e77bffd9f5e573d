"""Seeded inputs for the three benchmark workloads.

Everything here is the benchmark's own input generation: it uses numpy's
PCG64 generator seeded from ``--seed`` and never calls into qwenkit, so the
same seed always yields the same request streams and corpus files.

Request streams are built from fixed per-block templates (the request mix
recorded in ``BENCHMARK.json``). The seed picks token ids, jitters lengths
within each template slot and shuffles the order inside a block. Keeping the
mix fixed per block keeps latency percentiles comparable across seeds, so
seed-to-seed spread measures the program, not the luck of the draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Mid-size model shared by the prefill and decode workloads.
MODEL = dict(
    hidden=256, n_layers=4, n_q_heads=8, n_kv_heads=2, head_dim=32,
    ffn_intermediate=512, vocab_size=2048, regular_tokens=2000,
    rope_base=10_000.0, max_ctx=2048, eot_id=2047,
)
# Weights are part of the system under test, not of the request stream, so
# they use one fixed seed on every run.
WEIGHT_SEED = 20240710
UPCYCLE_SEED = 20240711
MOE = dict(n_routed=8, k_active=2, n_shared=1, expert_dim=32)
DCA_CHUNK = 128
YARN = dict(scale=4.0, native_ctx=512)
PROMPT_VOCAB = MODEL["regular_tokens"]

# Each workload's block of requests is made of cost classes, listed
# cheapest first, whose members cost alike. Neighbouring classes differ in
# cost by about 3x or more, more than the swings in speed of a shared
# 2-vCPU VM (a fixed piece of pure-Python work took from 1x to 2.3x its
# best time, in spells of a fraction of a second to minutes), so the
# classes never trade places in the sorted latencies. The class sizes put
# the p50 and p90 ranks at about the 94th percentile of one class each
# (RANK_SLOTS). The middle of a class snaps between the fast and the slow
# level with the share of the run spent in slow spells; a quantile near
# the top of the class reads the slow level unless the run had almost no
# slow spell, and moved about half as much from run to run. A run records
# the class each percentile read and warns when it is not the one named
# here.

# (variant, prompt length) slots of one prefill block, 40 of them. p50
# reads the top of "light" (MoE, ranks 5-21), p90 the top of "heavy"
# (dense and DCA, ranks 22-37). The costs of MoE requests, a per-token
# Python loop, swing with the machine's speed more than those of dense
# and DCA requests, mostly BLAS, so each class holds requests of one kind;
# MoE at 512 tokens cost 1.2x to 1.5x dense at 640 and would split the
# heavy class. DCA requests span 4 and 9 chunks. The top requests are
# 1064 to 1120 tokens long, so their [8, S, S] float32 score arrays are
# over 32 MiB, glibc's largest automatic mmap threshold, and always go back
# to the system when freed; at 1024 tokens they sat on that threshold, and
# peak RSS grew by 21 MiB late in the run on some seeds and not others.
PREFILL_CLASSES = {
    "tiny": [("dense", 16), ("dense", 32), ("dense", 64), ("moe", 16)],
    "light": [("moe", 128)] * 17,
    "heavy": [("dense", 640)] * 8 + [("dca", 512)] * 8,
    "top": [("dense", 1120), ("dense", 1120), ("dca", 1120)],
}
# (variant, prompt length, new tokens) slots of one decode block, 40 of
# them: 30 dense and 10 MoE, prompts 16 to 512, outputs 32 to 256, one
# request reaching context 768. p50 reads the top of "light" (context 48,
# ranks 1-21), p90 the top of "heavy" (context 128, long prompts and long
# outputs, ranks 22-37).
DECODE_CLASSES = {
    "light": [("dense", 16, 32)] * 16 + [("moe", 16, 32)] * 5,
    "heavy": [("dense", 64, 64), ("dense", 32, 96), ("dense", 48, 80), ("moe", 64, 64)] * 4,
    "top": [("dense", 512, 256), ("dense", 160, 64), ("moe", 160, 64)],
}
PREFILL_BLOCK = [slot for slots in PREFILL_CLASSES.values() for slot in slots]
LENGTH_JITTER = 0.05
# The class each latency percentile is built to read, per workload.
RANK_SLOTS = {
    "prefill": {50: "light", 90: "heavy"},
    "decode": {50: "light", 90: "heavy"},
    "corpus": {50: "light", 90: "heavy"},
}


@dataclass(frozen=True)
class PrefillRequest:
    variant: str
    ids: tuple[int, ...]
    # The cost class of the block slot the request was drawn from.
    slot: str = field(default=None, compare=False)


@dataclass(frozen=True)
class DecodeRequest:
    variant: str
    prompt: tuple[int, ...]
    max_new: int
    slot: str = field(default=None, compare=False)


def _jitter(rng: np.random.Generator, base: int, cap: int) -> int:
    lo = max(1, int(base * (1 - LENGTH_JITTER)))
    hi = min(cap, int(base * (1 + LENGTH_JITTER)))
    return int(rng.integers(lo, hi + 1))


def _ids(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, PROMPT_VOCAB, n))


def prefill_block(rng: np.random.Generator) -> list[PrefillRequest]:
    """One shuffled block of prefill requests; lengths never exceed a slot's
    base by more than the jitter, and never exceed the largest slot."""
    cap = max(n for _, n in PREFILL_BLOCK)
    reqs = [PrefillRequest(v, _ids(rng, _jitter(rng, n, cap)), cls)
            for cls, slots in PREFILL_CLASSES.items() for v, n in slots]
    return [reqs[i] for i in rng.permutation(len(reqs))]


def decode_block(rng: np.random.Generator) -> list[DecodeRequest]:
    reqs = [DecodeRequest(variant, _ids(rng, _jitter(rng, p, p)), _jitter(rng, n, n), cls)
            for cls, slots in DECODE_CLASSES.items() for variant, p, n in slots]
    return [reqs[i] for i in rng.permutation(len(reqs))]


# --- corpus ---------------------------------------------------------------

CORPUS_SEED = 20240712
DOC_WORDS = (60, 70, 80, 90, 100, 110)
# Shard classes, cheapest first, as above: (shards, document lengths in
# words of each shard). Every shard of one class has the same document
# lengths, so its jobs cost alike. One block is one job per shard; p50
# reads the top of "light", p90 the top of "heavy".
SHARD_CLASSES = {
    "light": (21, (80, 90)),
    "heavy": (16, DOC_WORDS),
    "top": (3, DOC_WORDS * 3),
}
SHARD_CLASS = [name for name, (count, _) in SHARD_CLASSES.items() for _ in range(count)]
N_SHARDS = len(SHARD_CLASS)
# One planted leak per entry, in distinct documents (a light shard takes
# the first two): a sample of at least 13 words ("long") or shorter
# ("short"). Only long leaks can meet the LCS thresholds.
LEAK_KINDS = ("long", "short", "long")
LEXICON_SIZE = 1500
ZIPF_EXPONENT = 1.1
# name: (sample count, share of samples shorter than 13 words)
TEST_SETS = {"arith": (12, 0.25), "reading": (12, 0.25), "trivia": (160, 0.9)}
SAMPLE_WORDS = (14, 30)
SHORT_SAMPLE_WORDS = (4, 12)
NGRAM_N = 13
LCS_MIN_LEN = 13
LCS_MIN_FRAC = 0.6

_ONSETS = ["", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "st", "tr", "ch", "sh", "th", "pl", "gr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "é"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "nd", "st"]
_PUNCT = [",", ".", ";", "?", "!", ":"]


@dataclass(frozen=True)
class Leak:
    """Test sample ``sample`` of ``test_set`` copied verbatim into a document."""

    shard: int
    doc: int  # index inside the shard
    test_set: str
    sample: int  # index inside the test set


@dataclass(frozen=True)
class Corpus:
    shards: list[list[str]]  # raw training document lines per shard
    test_sets: dict[str, list[str]]  # raw sample lines per test set
    leaks: list[Leak]


def _lexicon(rng: np.random.Generator) -> list[str]:
    words: set[str] = set()
    out = []
    while len(out) < LEXICON_SIZE:
        n_syll = int(rng.integers(1, 4))
        w = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(n_syll)
        )
        if w not in words:
            words.add(w)
            out.append(w)
    return out


def _text(rng: np.random.Generator, lexicon: list[str], probs: np.ndarray, n: int) -> str:
    picks = rng.choice(len(lexicon), size=n, p=probs)
    words = []
    for i, k in enumerate(picks):
        w = lexicon[k]
        if i == 0 or rng.random() < 0.05:
            w = w.capitalize()
        if rng.random() < 0.1:
            w += _PUNCT[rng.integers(len(_PUNCT))]
        words.append(w)
    return " ".join(words)


def make_corpus(seed: int) -> Corpus:
    """Zipfian training shards with planted test-sample leaks.

    The lexicon and the test sets are the same for every seed, so the cost
    of a job does not hinge on one seed's vocabulary; the seed draws the
    training documents and which samples leak where. Each shard holds one
    verbatim copy of a test sample per entry of ``LEAK_KINDS``; most samples
    of the largest test set are shorter than 13 words, so both the 13-gram
    path and the short-sample path of the test-side scan are exercised.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    lexicon = _lexicon(rng)
    ranks = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_EXPONENT
    probs /= probs.sum()

    test_sets = {}
    for name, (count, short_share) in TEST_SETS.items():
        samples = []
        for _ in range(count):
            span = SHORT_SAMPLE_WORDS if rng.random() < short_share else SAMPLE_WORDS
            samples.append(_text(rng, lexicon, probs, int(rng.integers(span[0], span[1] + 1))))
        test_sets[name] = samples

    rng = np.random.default_rng([seed, 3])
    by_kind = {"long": [], "short": []}
    for name, samples in test_sets.items():
        for k, sample in enumerate(samples):
            kind = "long" if len(sample.split(" ")) >= NGRAM_N else "short"
            by_kind[kind].append((name, k))
    shards, leaks = [], []
    for s, cls in enumerate(SHARD_CLASS):
        words_per_doc = SHARD_CLASSES[cls][1]
        docs = [_text(rng, lexicon, probs, n) for n in rng.permutation(words_per_doc)]
        kinds = LEAK_KINDS[:len(docs)]
        targets = rng.choice(len(docs), size=len(kinds), replace=False)
        for d, kind in zip(targets, kinds):
            name, k = by_kind[kind][rng.integers(len(by_kind[kind]))]
            words = docs[d].split(" ")
            at = int(rng.integers(0, len(words) + 1))
            docs[d] = " ".join(words[:at] + [test_sets[name][k]] + words[at:])
            leaks.append(Leak(s, int(d), name, k))
        shards.append(docs)
    return Corpus(shards, test_sets, leaks)


def write_corpus(corpus: Corpus, train_path, tests_dir) -> None:
    """One training document per line; one file per test set, one sample per line."""
    train_path.write_text(
        "".join(doc + "\n" for shard in corpus.shards for doc in shard), encoding="utf-8")
    tests_dir.mkdir(parents=True, exist_ok=True)
    for name, samples in corpus.test_sets.items():
        (tests_dir / f"{name}.txt").write_text(
            "".join(s + "\n" for s in samples), encoding="utf-8")
