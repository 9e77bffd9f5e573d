"""Independent checks of qwenkit outputs, written without its code.

The decontamination verdicts are re-derived here with a bit-parallel LCS
(Allison & Dix 1986; Hyyro 2004) and plain n-gram sets, so an extra or a
missing verdict cannot hide behind the implementation that produced it.
"""

from __future__ import annotations

import numpy as np


def lcs_length(a, b) -> int:
    """Longest common subsequence length of two token sequences.

    Bit i of ``v`` is 0 where row i of the DP table steps up; each token of
    ``b`` advances all rows at once with one add.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict = {}
    for i, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - bin(v).count("1")


def lcs_verdict(train, test, min_len: int, min_frac: float) -> bool:
    if min(len(train), len(test)) < min_len:
        return False
    n = lcs_length(train, test)
    return n >= min_len and n >= min_frac * min(len(train), len(test))


def ngram_verdict(sample, docs, n: int) -> bool:
    """A sample of at least n tokens shares an n-gram with some document; a
    shorter one appears in some document as a contiguous run."""
    if not sample:
        return False
    if len(sample) < n:
        needle = " " + " ".join(sample) + " "
        return any(needle in " " + " ".join(d) + " " for d in docs)
    grams = {tuple(d[i:i + n]) for d in docs for i in range(len(d) - n + 1)}
    return any(tuple(sample[i:i + n]) in grams for i in range(len(sample) - n + 1))


def weights_equal(a, b) -> bool:
    """Every tensor of two ModelWeights has the same dtype, shape and bits."""
    def flat(w):
        out = [w.embedding, w.final_gamma, w.lm_head]
        for lw in w.layers:
            out += [lw.attn_gamma, lw.wq, lw.bq, lw.wk, lw.bk, lw.wv, lw.bv, lw.wo,
                    lw.ffn_gamma]
            if lw.ffn is not None:
                out += list(lw.ffn)
            else:
                bank = lw.moe_bank
                out.append(bank.router)
                for triple in bank.routed + bank.shared:
                    out += list(triple)
        return out

    fa, fb = flat(a), flat(b)
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if (x is None) != (y is None):
            return False
        if x is not None and (x.dtype != y.dtype or x.shape != y.shape
                              or x.tobytes() != y.tobytes()):
            return False
    return True


def dca_pair_counts(seq: int, chunk: int, window: int) -> tuple[int, int, int]:
    """Causal (query i, key j) pairs per dual-chunk branch: intra-chunk,
    successive-chunk within the local window, and inter-chunk. A sequence
    that fits in one chunk is all intra-chunk."""
    if seq <= chunk:
        return seq * (seq + 1) // 2, 0, 0
    i = np.arange(seq)[:, None]
    j = np.arange(seq)[None, :]
    causal = j <= i
    intra = causal & (i // chunk == j // chunk)
    succ = causal & (i // chunk == j // chunk + 1) & (i - j <= window)
    n_causal = seq * (seq + 1) // 2
    n_intra, n_succ = int(intra.sum()), int(succ.sum())
    return n_intra, n_succ, n_causal - n_intra - n_succ
