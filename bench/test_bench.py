"""Tests of the benchmark itself: failure accounting, tracing, metric names.

Run with `python -m pytest bench` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sr = worker.import_package()


def make(name, tmp_path, seed=0):
    return workloads.WORKLOADS[name](sr, seed, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unmodified_results_pass_their_checks(name, tmp_path):
    workload = make(name, tmp_path)
    for item in workload.items[:2]:
        _, ok, error = worker.run_op(workload, item)
        assert ok, error


def test_perturbed_result_counts_as_failure(tmp_path):
    workload = make("fine-mesh", tmp_path)
    real_op = workload.op

    def perturbed(prepared):
        sol = real_op(prepared)
        return dataclasses.replace(sol, g1=sol.g1 + 1e-3)

    workload.op = perturbed
    run_ = worker.measure(workload, seconds=0.0)
    assert run_["attempted"] == len(workload.items)
    assert run_["failed"] == run_["attempted"]
    assert "g1" in run_["errors"][0]


@pytest.mark.parametrize("bad, value", [("--e1", "-1.0"), ("--n1", "np.float64(4.0)")])
def test_cli_error_counts_as_failure(bad, value, tmp_path):
    """A non-zero exit status and an argparse SystemExit are both failures."""
    workload = make("cli-studies", tmp_path)
    flags, want = workload.items[0]
    flags = list(flags)
    flags[flags.index(bad) + 1] = value
    _, ok, error = worker.run_op(workload, (flags, want))
    assert not ok
    assert ("exited 1" in error) if bad == "--e1" else error.startswith("SystemExit")
    assert not any(tmp_path.iterdir()), "the op's output directory is removed"


def test_tracer_counts_nonzero_cli_status_as_failed(tmp_path):
    workload = make("cli-studies", tmp_path)
    flags, want = workload.items[0]
    flags = list(flags)
    flags[flags.index("--e1") + 1] = "-1.0"
    tracer = spans.Tracer(sr)
    tracer.install()
    try:
        _, ok, _ = worker.run_op(workload, (flags, want), tracer)
    finally:
        tracer.uninstall()
    assert not ok
    summary = tracer.summary()
    for cmd in spans.CLI_COMMANDS:
        assert summary[f"cli.{cmd}.failed"] == 1


def test_every_sweep_point_is_admissible(tmp_path):
    """Configs keep E1 + E2 > 2 k L for the whole CLI sweep grid."""
    workload = make("cli-studies", tmp_path, seed=3)
    for flags, _ in workload.items:
        value = dict(zip(flags[::2], flags[1::2]))
        a, b, l = (float(value[f"--{k}"]) for k in ("a", "b", "l"))
        L = max(-l - a, b - l)
        assert float(value["--e1"]) + float(value["--e2"]) > 2.0 * max(workloads.SWEEP_GRID) * L


def test_tracer_records_nested_spans_and_restores(tmp_path):
    workload = make("fine-mesh", tmp_path)
    problem, _, want = workload.items[0]
    original = sr.solver.schur_reduce
    tracer = spans.Tracer(sr)
    tracer.install()
    try:
        sol = tracer.call(sr.solver.solve, problem, (8, 8), "exact")
    finally:
        tracer.uninstall()
    assert sr.solver.schur_reduce is original
    assert abs(sol.g1 - want[0]) < 1e-8
    names = {s[0]: (sid, s) for sid, s in enumerate(tracer.spans)}
    solve_id = names["solver.solve"][0]
    for child in ("fem.build_mesh", "fem.assemble", "fem.schur_reduce", "solver.solve_exact"):
        assert names[child][1][3] == solve_id, child
    assert names["fem.recover_full"][1][3] == names["solver.solve_exact"][0]
    summary = tracer.summary()
    layer_self = sum(summary[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layer_self + summary["op.unaccounted_ms"] == pytest.approx(summary["op.wall_ms"])
    assert summary["fem.schur_reduce.dofs"] == 16


def test_traced_run_reports_every_layer_metric(tmp_path):
    workload = make("certify", tmp_path)
    workload.items = workload.items[:1]
    tracer = spans.Tracer(sr)
    run_ = worker.measure(workload, seconds=0.0, tracer=tracer)
    assert run_["failed"] == 0
    summary = tracer.summary()
    assert [s["name"] for s in spans.metric_specs()][:-3] == list(summary)
    assert summary["solver.vi_residual.probes"] == workloads.Certify.TRIALS + 3
    assert 0.0 < summary["oracle.grid_search_minimizer.feasible_share"] <= 1.0


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(100)])[0] == 90.0
    assert worker.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert worker.tail([float(i) for i in range(10_000)])[0] == 99.9


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == spans.metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fine-mesh",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
