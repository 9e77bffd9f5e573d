"""Long calls run in two halves on two threads, bit for bit as on one.

``ops._halves`` cuts the rows of a long block call, and attention its KV
heads, in two, and ``ops._on_halves`` runs the second half on one worker
thread. The split path must equal the inline path that a one-CPU process
takes, logit for logit and cache entry for cache entry, over dense, MoE and
dual-chunk models. Short calls, and everything outside the model, must
start no thread, and a forked child must get a worker of its own.
"""

import contextlib
import functools
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_blas_thread
from test_model import _pinned_layouts, _seeded_ids, _with_dca
import qwenkit
from qwenkit import model, ops
from qwenkit.config import ModelConfig
from qwenkit.errors import NumericError, StateError
from qwenkit.layers import ATTN_BLOCK, KvCache
from qwenkit.model import build_model, forward, greedy_decode
from qwenkit.moe import MoeConfig

MAX_CTX = 420


@contextlib.contextmanager
def _cpus(n):
    """Run as if the process may use ``n`` CPUs and BLAS runs one thread:
    1 forces the inline path, 2 the split path of every call long enough."""
    with mock.patch.object(ops, "_CPUS", n), mock.patch.object(ops, "_BLAS_ONE_THREAD", True):
        yield


@functools.lru_cache(maxsize=None)
def _model(variant: str, n_kv: int, bias: bool):
    """A small dense or MoE model with unit norm gains; callers must not
    modify it."""
    moe = MoeConfig(n_routed=4, k_active=2, n_shared=1, expert_dim=32, hidden=64)
    cfg = ModelConfig(hidden=64, n_layers=2, n_q_heads=4, n_kv_heads=n_kv, head_dim=16,
                      ffn_intermediate=32 if variant == "moe" else 96, vocab_size=256,
                      regular_tokens=253, rope_base=10_000.0, max_ctx=MAX_CTX,
                      use_qkv_bias=bias, moe=moe if variant == "moe" else None)
    w = build_model(cfg, 11)
    for lw in w.layers:
        lw.attn_gamma[:] = 1.0
        lw.ffn_gamma[:] = 1.0
    w.final_gamma[:] = 1.0
    return w, cfg


@st.composite
def _models(draw):
    """A dense, MoE or dual-chunk (YaRN on or off) model with 1 or 2 KV
    heads, biases on or off."""
    variant = draw(st.sampled_from(["dense", "moe", "dca"]))
    w, cfg = _model("dense" if variant == "dca" else variant,
                    draw(st.sampled_from([1, 2])), draw(st.booleans()))
    if variant == "dca":
        cfg = draw(_with_dca(cfg))
    return w, cfg


def _first_split() -> int:
    """The fewest rows that run in two halves."""
    with _cpus(2):
        return next(n for n in range(1, MAX_CTX + 1) if len(ops._halves(n)) == 2)


@st.composite
def _lengths(draw, cfg, low=1, high=MAX_CTX):
    """A length in [low, high], often next to the split threshold, a query
    block edge or a chunk edge."""
    edges = [_first_split(), *range(ATTN_BLOCK, MAX_CTX, ATTN_BLOCK)]
    if cfg.dca is not None:
        edges += range(cfg.dca.chunk_size, MAX_CTX, cfg.dca.chunk_size)[:8]
    near = [n + d for n in edges for d in (-1, 0, 1) if low <= n + d <= high]
    return draw(st.one_of(st.integers(low, high), st.sampled_from(near)))


def test_lengths_reach_both_paths():
    assert _first_split() < MAX_CTX
    with _cpus(1):
        assert ops._halves(MAX_CTX) == (slice(0, MAX_CTX),)


def test_pinned_dca_layout_takes_the_split_path():
    cfg = _pinned_layouts()["nano-yarn-dca"]
    with _cpus(2):
        assert len(ops._halves(cfg.max_ctx)) == 2
        assert cfg.n_kv_heads > 1  # so attention splits too


def test_no_split_while_blas_may_run_several_threads():
    with mock.patch.object(ops, "_CPUS", 2), mock.patch.object(ops, "_BLAS_ONE_THREAD", False):
        assert ops._halves(MAX_CTX) == (slice(0, MAX_CTX),)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("values, want", [
    ((None, None, None), None),
    (("1", None, None), 1),
    ((None, None, "1"), 1),
    (("4", None, "1"), 4),
    (("0", "2", "1"), 2),
    (("", None, "1"), 1),
    (("many", None, None), None),
])
def test_blas_threads_read_as_openblas_reads_them(monkeypatch, values, want):
    for var, value in zip(_BLAS_VARS, values):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert ops._blas_threads() == want


def test_decode_verify_calls_stay_inline():
    with _cpus(2):
        assert ops._halves(model.MAX_DRAFT + 1) == (slice(0, model.MAX_DRAFT + 1),)


def test_halves_cover_the_rows_cut_on_a_tile():
    for n in range(1, 2000):
        with _cpus(2):
            parts = ops._halves(n)
        assert parts[0].start == 0 and parts[-1].stop == n
        if len(parts) == 2:
            assert parts[0].stop == parts[1].start
            assert parts[0].stop % ops._ROW_TILE == 0
            assert min(parts[0].stop, n - parts[0].stop) >= ops._MIN_HALF_ROWS


@given(st.data(), _models())
@settings(max_examples=40, deadline=None)
def test_split_forward_matches_inline(data, m):
    w, cfg = m
    ids = _seeded_ids(data, cfg, data.draw(_lengths(cfg)))
    with one_blas_thread():
        with _cpus(2):
            got = forward(w, cfg, ids)
        with _cpus(1):
            want = forward(w, cfg, ids)
    assert np.array_equal(got, want)


class _Recorded(KvCache):
    """A KvCache that keeps every instance made while it is patched in."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


def _decode(w, cfg, prompt, max_new):
    """greedy_decode's tokens and the keys and values its cache holds."""
    _Recorded.made = []
    with mock.patch.object(model, "KvCache", _Recorded):
        out = greedy_decode(w, cfg, prompt, max_new)
    (cache,) = _Recorded.made
    return out, [(cache.keys(li).copy(), cache.values(li).copy())
                 for li in range(cfg.n_layers)]


@given(st.data(), _models())
@settings(max_examples=25, deadline=None)
def test_split_prompt_decodes_as_inline(data, m):
    w, cfg = m
    n = data.draw(_lengths(cfg, low=_first_split(), high=MAX_CTX - 1))
    prompt = _seeded_ids(data, cfg, n)
    max_new = data.draw(st.integers(1, min(12, MAX_CTX - n)))
    with one_blas_thread():
        with _cpus(2):
            got, got_kv = _decode(w, cfg, prompt, max_new)
        with _cpus(1):
            want, want_kv = _decode(w, cfg, prompt, max_new)
    assert got == want
    assert len(got_kv) == len(want_kv)
    for (gk, gv), (wk, wv) in zip(got_kv, want_kv):
        assert np.array_equal(gk, wk) and np.array_equal(gv, wv)


def test_worker_error_keeps_its_type_and_both_halves_finish():
    done = []

    def fail_on_worker(part):
        if part == 1:
            raise NumericError("from the worker")
        done.append(part)

    with pytest.raises(NumericError, match="from the worker"):
        ops._on_halves(fail_on_worker, (0, 1))
    assert done == [0]

    def fail_here_late_worker(part):
        if part == 0:
            raise StateError("from the calling thread")
        time.sleep(0.2)
        done.append(part)

    with pytest.raises(StateError):
        ops._on_halves(fail_here_late_worker, (0, 1))
    assert done == [0, 1]  # the worker's half ran to its end before the raise


def test_non_finite_logits_raise_from_the_worker_half():
    w, cfg = _model("dense", 2, True)
    w = replace(w, embedding=w.embedding.copy())
    ids = [j % 200 for j in range(MAX_CTX - 1)] + [250]
    # The inf row spreads to the rows of its query block only, all in the
    # worker's half, so only the worker's logits are not finite.
    w.embedding[250] = np.inf
    with _cpus(2):
        last_block = (len(ids) - 1) // ATTN_BLOCK * ATTN_BLOCK
        assert ops._halves(len(ids))[1].start <= last_block
        with pytest.raises(NumericError):
            forward(w, cfg, ids)


def test_concurrent_callers_share_one_worker():
    w, cfg = _model("dense", 2, True)
    ids = [[(7 * i + j) % cfg.regular_tokens for j in range(MAX_CTX - i)] for i in range(6)]
    with one_blas_thread():
        with _cpus(1):
            want = [forward(w, cfg, x) for x in ids]
        got = [None] * len(ids)

        def call(i):
            got[i] = forward(w, cfg, ids[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cpus(2):
                callers = [threading.Thread(target=call, args=(i,)) for i in range(len(ids))]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
    assert all(np.array_equal(g, x) for g, x in zip(got, want))
    workers = [t for t in threading.enumerate() if t.name.startswith("qwenkit-half")]
    assert len(workers) <= 1


_NO_THREADS = """
import threading
before = threading.active_count()
import qwenkit as qk
from qwenkit import ops
ops._CPUS = 2  # as on a machine with two cores, BLAS on one thread
ops._BLAS_ONE_THREAD = True
counts = [threading.active_count()]
raw = ["the cat sat on the mat", "a dog sat on a log", "the cat ate the fish"]
vocab = qk.bpe_train(raw, 256 + 3 + 20)
for doc in raw:
    qk.decode(vocab, qk.encode(vocab, doc))
docs = [qk.normalize(doc) for doc in raw]
sets = {"s": [qk.normalize("the cat sat on the mat")]}
for mode in qk.decontam.MODES:
    qk.filter_corpus(docs, sets, mode, ngram_n=3, lcs_min_len=3)
counts.append(threading.active_count())
cfg = qk.preset("nano")
w = qk.build_model(cfg, 1)
qk.forward(w, cfg, list(range(16)))
out = qk.greedy_decode(w, cfg, list(range(16)), cfg.max_ctx - 16)
assert len(out) > 16
counts.append(threading.active_count())
print(before, *counts, ops._worker is None)
"""


def test_short_work_starts_no_thread():
    env = dict(os.environ)
    src = str(Path(qwenkit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", _NO_THREADS], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    *counts, no_worker = run.stdout.split()
    assert len(set(counts)) == 1, counts
    assert no_worker == "True"


def _digest(w, cfg, ids) -> str:
    with one_blas_thread():
        return hashlib.sha256(forward(w, cfg, ids).tobytes()).hexdigest()


def _child(conn, w, cfg, ids):
    conn.send(_digest(w, cfg, ids))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_long_forward():
    w, cfg = _model("dense", 2, True)
    ids = [j % cfg.regular_tokens for j in range(MAX_CTX)]
    with _cpus(2):
        want = _digest(w, cfg, ids)  # the parent's worker now exists
        assert ops._worker is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() in a process with threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = ctx.Process(target=_child, args=(send, w, cfg, ids))
            child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child's forward did not finish"
            got = receive.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
    assert child.exitcode == 0
    assert got == want
