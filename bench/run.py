#!/usr/bin/env python3
"""spring-rods benchmark.

    python3 bench/run.py --workload {fine-mesh,cli-studies,certify} --seed N
                         --seconds S --trace {0,1}

Runs from the root of a source checkout and imports spring_rods from its
src/ directory.  Each run starts SETUP_SAMPLES - 1 set-up-only worker
processes and then the measuring worker (see worker.py), one after the
other, and reports the median set-up time of all of them.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1).  The line before it is the run record:
environment, seed, tail percentile and sample count, failures.  Both are
also written to bench/results/.  Exit status 2 means the benchmark could
not run (for example, no src/spring_rods here).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("fine-mesh", "cli-studies", "certify")
SETUP_SAMPLES = 3
#: Every worker of a run is finished or killed within this many seconds.
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def worker_env() -> dict[str, str]:
    """Environment of the workers: BLAS pools capped at the usable cores."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc())
    return env


def start_worker(args, setup_only: bool, deadline: float) -> dict:
    """Run one worker to completion (killed at `deadline`); returns its JSON line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    env = worker_env()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "cpu": cpu_model(),
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "git_commit": git_commit(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spring_rods" / "__init__.py").is_file():
        print(f"error: no spring_rods sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [start_worker(args, True, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        run = start_worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(run["setup_s"])

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = {spec["name"]: {"value": run["layers"][spec["name"]], "unit": spec["unit"]}
                   for spec in metric_specs()}
    else:
        values = {"ops_per_s": run["ops_per_s"], "op_p50_ms": run["op_p50_ms"],
                  "op_tail_ms": run["op_tail_ms"],
                  "ok_frac": (attempted - failed) / attempted,
                  "setup_s": statistics.median(setups), "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples_s": setups,
        "failed_frac": failed / attempted,
        "errors": run["errors"],
        "passes": run["passes"],
        "op_tail_percentile": run["op_tail_percentile"],
        "op_tail_samples": run["op_tail_samples"],
        "best_of_n": run["best_of_n"],
        "all_ops": run["all_ops"],
        "trace_file": run.get("trace_file"),
    }
    if args.trace:
        record["untraced_ops_per_s"] = run["layers"]["trace.untraced_ops_per_s"]
        record["traced_ops_per_s"] = run["layers"]["trace.traced_ops_per_s"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
