"""One workload process: set up, then measure closed-loop passes over the pool.

Started by run.py as

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --spawned-at T [--setup-only]

where T is the `time.time()` just before the process was started.  With
`--setup-only` it stops after warm-up.  It prints one JSON line.  The client
is closed-loop: one op at a time, in one thread, each op sent when the
previous one and its check have finished.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

#: Untimed ops run before the first timed one, spread over the pool.
WARMUP_OPS = 8
#: Fixed percentile grid for the tail; the highest with >= 10 samples beyond it wins.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def import_package():
    """Import spring_rods from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import spring_rods
    import spring_rods.cli  # noqa: F401  (the package __init__ does not import cli)

    if Path(spring_rods.__file__).resolve().parent != (SRC / "spring_rods").resolve():
        raise ImportError(f"spring_rods imported from {spring_rods.__file__}, not {SRC}")
    return spring_rods


def run_op(workload, item, tracer=None):
    """Time one op, check it outside the timed interval; returns (seconds, ok, error)."""
    prepared = workload.prepare(item)
    try:
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.call(workload.op, prepared) if tracer else workload.op(prepared)
        except (Exception, SystemExit) as exc:  # argparse exits on bad flags
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                workload.check(prepared, result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
    finally:
        workload.release(prepared)
    return elapsed, error is None, error


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest grid percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)

    def rank(p: float) -> int:  # nearest rank, 1-based; the epsilon absorbs p*n rounding
        return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))

    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - rank(p) >= 10:
            chosen = p
    return chosen, ordered[rank(chosen) - 1]


def latency_metrics(seconds: list[float]) -> dict:
    """Throughput, median and tail of a list of op latencies."""
    ms = [1e3 * x for x in seconds]
    pct, tail_ms = tail(ms)
    return {"ops_per_s": 1e3 * len(ms) / sum(ms), "op_p50_ms": statistics.median(ms),
            "op_tail_ms": tail_ms, "op_tail_percentile": pct, "op_tail_samples": len(ms)}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run passes over the pool in a fixed seeded order until time is up.

    The first pass (the first two with a tracer) always completes; after
    that the run stops at the first op past the deadline, so a run lasts
    `seconds` however long a pass takes.  Keeps every latency, grouped by
    pool item.  With a tracer, passes alternate untraced / traced so both
    see the same conditions; only traced passes record spans.
    """
    n = len(workload.items)
    order = [int(i) for i in workload.rng.permutation(n)]
    per_item = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    latencies: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    min_passes = 2 if tracer else 1
    while passes < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for idx in order:
                if passes >= min_passes and time.perf_counter() >= deadline:
                    break
                elapsed, ok, error = run_op(workload, workload.items[idx],
                                            tracer if traced else None)
                per_item[traced][idx].append(elapsed)
                latencies.append(elapsed)
                attempted += 1
                if not ok:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(error)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    return {"typical": item_medians(per_item[False]),
            "typical_traced": item_medians(per_item[True]),
            "best": [min(x) for x in per_item[False]], "latencies": latencies,
            "attempted": attempted, "failed": failed, "errors": errors, "passes": passes}


def item_medians(per_item: list[list[float]]) -> list[float]:
    """Each pool item's median latency over the passes that ran it."""
    return [statistics.median(x) for x in per_item if x]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sr = import_package()

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        workload = workloads.WORKLOADS[args.workload](sr, args.seed, workdir)
        warm = [workload.items[int(i * len(workload.items) / WARMUP_OPS)]
                for i in range(WARMUP_OPS)]
        for item in warm:
            run_op(workload, item)
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer(sr) if args.trace else None
        origin = time.perf_counter()
        run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "errors": run["errors"],
        "passes": run["passes"],
        **latency_metrics(run["typical"]),
        "best_of_n": latency_metrics(run["best"]),
        "all_ops": latency_metrics(run["latencies"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.summary()
        untraced = out["ops_per_s"]
        traced = latency_metrics(run["typical_traced"])["ops_per_s"]
        layers["trace.untraced_ops_per_s"] = untraced
        layers["trace.traced_ops_per_s"] = traced
        layers["trace.overhead"] = untraced / traced - 1.0
        out["layers"] = layers
        trace_path = RESULTS / f"{args.workload}.trace.jsonl"
        tracer.write(trace_path, origin)
        out["trace_file"] = str(trace_path.relative_to(BENCH.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
