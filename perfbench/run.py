"""qwenkit benchmark: one closed-loop client driving one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prefill --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the run sets up the workload once untimed, then several
times timed (set-up time is their median; a cheap set-up is timed after
each block instead), warms up, then sends requests back to back, in whole
blocks of the request mix, for at least ``--seconds`` seconds and at least
100 requests, and reports the end-to-end metrics. With ``--trace 1`` the
untraced loop runs for half of ``--seconds`` and gives the throughput; then
span wrappers go onto qwenkit's public functions for one set-up and a
replay of the first block, each request run once untraced and once traced,
and the run reports the per-layer metrics and the tracing overhead. Every
output is checked outside the timed calls; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread: with two threads on a two-core machine, forward passes
# showed 25x tail stalls. This must happen before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_Q = 90
SETUP_REPS = 5
# The fewest requests with metrics.MIN_BEYOND samples beyond the tail.
MIN_REQUESTS = next(n for n in range(1, 10_000) if metrics.tail_supported(n, TAIL_Q))
THROUGHPUT = {"prefill": ("prefill_tok_per_s", "tok/s"),
              "decode": ("decode_tok_per_s", "tok/s"),
              "corpus": ("corpus_kb_per_s", "KB/s")}


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


class Loop:
    """Closed loop with one client: the next request is sent when the
    previous one returns. Serves whole blocks of the request mix, so
    every run has the same mix."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.blocks: list[list] = []
        self.done: list = []

    def request(self, req) -> float:
        """Serve one request; return its latency. Errors and failed output
        checks count as failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.workload.execute(req)
        except Exception:  # a failed request counts; the loop keeps serving
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        if self.workload.check(req, out):
            self.work += self.workload.work(req, out)
        else:
            print(f"perfbench: output check failed for {req!r:.200}", file=sys.stderr)
            self.failed += 1
        return elapsed

    def run(self, seconds: float, min_requests: int = 0, between=None) -> None:
        """Serve blocks until ``seconds`` have passed and at least
        ``min_requests`` requests are done; call ``between`` after each
        block."""
        stream = self.workload.blocks()
        start = perf_counter()
        while perf_counter() - start < seconds or len(self.latencies) < min_requests:
            block = next(stream)
            for req in block:
                self.latencies.append(self.request(req))
                self.done.append(req)
            self.blocks.append(block)
            if between is not None:
                between()


def traced_replay(workload, loop, outdir, stem):
    """Per-layer metrics from one traced set-up plus the first block of the
    untraced pass, each request served untraced and then traced."""
    replay = loop.blocks[0]
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    try:
        tracer.install()
        _, setup_ok = workload.setup()
        for i, req in enumerate(replay):
            tracer.uninstall()
            untraced += loop.request(req)
            tracer.request = i
            tracer.install()
            traced += loop.request(req)
    finally:
        tracer.uninstall()
    restored = tracer.restored() and not tracing.leftover_wrappers()
    tracer.save(outdir / f"spans-{stem}.npz")
    values = metrics.layer_metrics(tracer.spans, tracing.self_times(tracer.spans))
    values["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    detail = {"traced_bindings": tracer.binding_count, "traced_requests": len(replay),
              "spans": len(tracer.spans)}
    return values, [("setup.traced", setup_ok), ("wrappers_removed", restored)], detail


def measure(args, workload, outdir):
    checks: list[tuple[str, bool]] = [("no_wrappers_before_run",
                                       not tracing.leftover_wrappers())]
    # The first set-up is untimed: it pays for first-call costs. A cheap
    # set-up is timed once after each block of requests, so its median
    # spans the whole run instead of one moment of the host's speed.
    checks.append(("setup.warmup", workload.setup()[1]))
    spread = workload.setup_between_blocks and not args.trace
    setups = [workload.setup() for _ in range(0 if args.trace or spread else SETUP_REPS)]
    workload.warmup()

    loop = Loop(workload)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    if args.trace:
        loop.run(args.seconds / 2)
    else:
        loop.run(args.seconds, min_requests=MIN_REQUESTS,
                 between=(lambda: setups.append(workload.setup())) if spread else None)
    wall = perf_counter() - start
    used = resource.getrusage(resource.RUSAGE_SELF)
    setup_times = [elapsed for elapsed, _ in setups]
    checks += [("setup", ok) for _, ok in setups]
    checks += workload.final_checks(loop.done)

    n = len(loop.latencies)
    busy = sum(loop.latencies)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": n, "blocks": len(loop.blocks),
        "setup_s": setup_times,
        # CPU time well below wall time means the process waited for a CPU.
        # With set-ups between blocks, both include them.
        "loop_wall_s": wall,
        "loop_cpu_s": used.ru_utime + used.ru_stime - usage.ru_utime - usage.ru_stime,
        f"request_ms.p{TAIL_Q}.samples_beyond": metrics.beyond(n, TAIL_Q),
        "request_ms.mean": busy * 1e3 / n,
        "request_ms": [[workload.label(r), round(1e3 * t, 3)]
                       for r, t in zip(loop.done, loop.latencies)],
    }

    if not args.trace:
        ms = [1e3 * t for t in loop.latencies]
        # A percentile that drifts onto another cost class moves in a step
        # that comes from the block layout, not from the program's tail.
        for q, want in inputs.RANK_SLOTS[args.workload].items():
            got = workload.slot(loop.done[metrics.percentile_index(ms, q)])
            detail[f"request_ms.p{q}.slot"] = got
            if got != want:
                print(f"perfbench: request_ms.p{q} read slot {got}, not {want}",
                      file=sys.stderr)
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "request_ms.p50": (metrics.percentile(ms, 50), "ms"),
            f"request_ms.p{TAIL_Q}": (metrics.percentile(ms, TAIL_Q), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
        }
    else:
        values = {metric: (loop.work / busy if name == args.workload else 0.0, unit)
                  for name, (metric, unit) in THROUGHPUT.items()}
        layer_values, trace_checks, trace_detail = traced_replay(
            workload, loop, outdir, f"{args.workload}-seed{args.seed}")
        values.update(layer_values)
        checks += trace_checks
        detail.update(trace_detail)

    detail["checks"] = checks
    failed_checks = [name for name, ok in checks if not ok]
    for name in failed_checks:
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    attempted = loop.attempted + len(checks)
    failed = loop.failed + len(failed_checks)
    if args.trace:
        values["failed_frac"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THROUGHPUT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _die("--seconds must be positive")
    if not (SRC / "qwenkit" / "__init__.py").is_file():
        _die(f"qwenkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    outdir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        result, detail = measure(args, workload, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    detail["environment"] = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps({"result": result, **detail}, indent=1))
    print("env " + json.dumps(detail["environment"], sort_keys=True))
    for name, m in sorted(result["metrics"].items()):
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
