"""Per-layer spans around the public functions of spring_rods, from outside it.

`Tracer.install` rebinds every traced function in each spring_rods module
namespace that holds it (for example `solver.recover_full` and
`experiments.schur_reduce`), so calls between layers are recorded with
their caller as parent.  `model.ProblemSpec` is traced through its
`__post_init__` validation and `cli.main` is named after its subcommand
(`cli.solve`, `cli.sweep`, ...).  Nothing in the package changes.

A span is `(name, start, end, parent, op, failed)`: perf_counter seconds,
the index of the enclosing span (None for an op's root span) and the index
of the op it belongs to.  Spans stay in memory and are written when the run
ends.  A span's self time is its duration minus the durations of its direct
children; spans are strictly nested (one thread), so the children never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: Traced functions as (module, attribute).
FUNCTIONS = (
    ("model", "ProblemSpec"),
    ("fem", "build_mesh"), ("fem", "assemble"), ("fem", "schur_reduce"),
    ("fem", "recover_full"), ("fem", "v_norm"),
    ("solver", "solve"), ("solver", "solve_exact"), ("solver", "solve_penalized"),
    ("solver", "solve_projected_gradient"), ("solver", "solve_qvi_fixed_point"),
    ("solver", "vi_residual"),
    ("oracle", "analytic_solution"), ("oracle", "grid_search_minimizer"),
    ("experiments", "run_stiffness_sweep"), ("experiments", "run_penalty_convergence"),
    ("experiments", "export_csv"), ("experiments", "export_svg"),
    ("cli", "parse_config"), ("cli", "main"),
)
CLI_COMMANDS = ("solve", "sweep", "converge", "validate")
LAYERS = ("model", "fem", "solver", "oracle", "experiments", "cli")
OP = "op"


def span_names() -> list[str]:
    names = []
    for module, attr in FUNCTIONS:
        if (module, attr) == ("cli", "main"):
            names += [f"cli.{cmd}" for cmd in CLI_COMMANDS]
        else:
            names.append(f"{module}.{attr}")
    return names


# Work counts, computed from each call's public inputs and outputs after
# its span has closed.  Each returns {counter suffix: increment}.

def _count_dofs(args, kwargs, result):
    mesh = args[0].mesh
    return {"dofs": mesh.n1 + mesh.n2}


def _count_iterations(args, kwargs, result):
    return {"iterations": result.diagnostics.iterations}


def _count_probes(args, kwargs, result):
    system, variant = args[0], args[2]
    trials = kwargs.get("trials", args[4] if len(args) > 4 else 1000)
    l = system.mesh.geometry.l
    lo, hi = variant.bounds(l)
    return {"probes": trials + 2 + (1 if lo <= 2.0 * l <= hi else 0)}


def _count_grid(args, kwargs, result):
    """Grid points tried, and those inside the gap bounds (the useful ones).

    Only the two interface coordinates enter the gap, so the feasible count
    is the feasible share of their 2-D grid times the other axes' sizes.
    """
    system, variant, bounds, step = args[0], args[2], args[3], args[4]
    mesh = system.mesh
    ndof = mesh.n1 + mesh.n2
    if np.ndim(bounds[0]) == 0:
        bounds = [bounds] * ndof
    axes = [np.linspace(lo, hi, int(round((hi - lo) / step)) + 1) for lo, hi in bounds]
    points = int(np.prod([len(a) for a in axes]))
    l = mesh.geometry.l
    glo, ghi = variant.bounds(l)
    u1 = axes[mesh.n1 - 1]
    u2 = np.sort(axes[mesh.n1])
    # gap 2l - u1 + u2 in [glo, ghi]  <=>  u2 in [glo - 2l + u1, ghi - 2l + u1]
    lo_idx = np.searchsorted(u2, glo - 1e-12 - 2.0 * l + u1, side="left")
    hi_idx = np.searchsorted(u2, ghi + 1e-12 - 2.0 * l + u1, side="right")
    pairs = int(np.sum(hi_idx - lo_idx))
    return {"points": points, "feasible": pairs * points // (len(u1) * len(u2))}


def _count_sweep(args, kwargs, result):
    return {"points": len(result.records) + len(result.failures),
            "failed_points": len(result.failures)}


def _count_bytes(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


COUNTERS = {
    "fem.schur_reduce": _count_dofs,
    "solver.solve_projected_gradient": _count_iterations,
    "solver.solve_qvi_fixed_point": _count_iterations,
    "solver.vi_residual": _count_probes,
    "oracle.grid_search_minimizer": _count_grid,
    "experiments.run_stiffness_sweep": _count_sweep,
    "experiments.export_csv": _count_bytes,
    "experiments.export_svg": _count_bytes,
}


#: Work-count metrics as (name, unit, better, kind): "per_op" is the counter
#: over traced ops, "total" the counter itself, "share" feasible / points.
COUNT_METRICS = (
    ("fem.schur_reduce.dofs", "count/op", "lower", "per_op"),
    ("solver.solve_projected_gradient.iterations", "count/op", "lower", "per_op"),
    ("solver.solve_qvi_fixed_point.iterations", "count/op", "lower", "per_op"),
    ("solver.vi_residual.probes", "count/op", "lower", "per_op"),
    ("oracle.grid_search_minimizer.points", "count/op", "lower", "per_op"),
    ("oracle.grid_search_minimizer.feasible_share", "ratio", "higher", "share"),
    ("experiments.run_stiffness_sweep.points", "count/op", "higher", "per_op"),
    ("experiments.run_stiffness_sweep.failed_points", "count", "lower", "total"),
    ("experiments.export_csv.bytes", "B/op", "lower", "per_op"),
    ("experiments.export_svg.bytes", "B/op", "lower", "per_op"),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order.

    Values are means per traced op, except `.failed` (a total count) and
    shares.
    """
    specs = []
    for name in span_names():
        specs += [{"name": f"{name}.calls", "unit": "count/op", "better": "lower"},
                  {"name": f"{name}.busy_ms", "unit": "ms/op", "better": "lower"},
                  {"name": f"{name}.self_ms", "unit": "ms/op", "better": "lower"},
                  {"name": f"{name}.failed", "unit": "count", "better": "lower"}]
    specs += [{"name": name, "unit": unit, "better": better}
              for name, unit, better, _ in COUNT_METRICS]
    specs += [{"name": f"{layer}.self_ms", "unit": "ms/op", "better": "lower"}
              for layer in LAYERS]
    specs += [
        {"name": "op.wall_ms", "unit": "ms/op", "better": "lower"},
        {"name": "op.unaccounted_ms", "unit": "ms/op", "better": "lower"},
        {"name": "op.unaccounted_share", "unit": "ratio", "better": "lower"},
        {"name": "trace.untraced_ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.traced_ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.overhead", "unit": "ratio", "better": "lower"},
    ]
    return specs


class Tracer:
    """Records spans while installed; `call` runs one op under a root span."""

    def __init__(self, package):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self.package = package
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, name: str, start: float, failed: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (name, start, end, parent, self._op, failed)

    def call(self, fn, *args):
        """Run one op as a root span; the op's own exceptions propagate."""
        self._op = self.ops
        self.ops += 1
        sid = self._enter()
        start = perf_counter()
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self._exit(sid, OP, start, failed)
            self._op = None

    def _wrap(self, name_of, fn, counter=None, failed_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            sid = tracer._enter()
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = failed_result is not None and failed_result(result)
                return result
            finally:
                tracer._exit(sid, name, start, failed)
                if not failed and counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        tracer.counts[f"{name}.{key}"] += value

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind each traced function in every package namespace that holds it."""
        if self._restore:
            return
        pkg = self.package.__name__
        for module, attr in FUNCTIONS:
            mod = sys.modules[f"{pkg}.{module}"]
            original = getattr(mod, attr)
            name = f"{module}.{attr}"
            if (module, attr) == ("model", "ProblemSpec"):
                post_init = original.__post_init__
                wrapped = self._wrap(functools.partial(_fixed_name, name), post_init)
                self._restore.append((original, "__post_init__", post_init))
                original.__post_init__ = wrapped
                continue
            if (module, attr) == ("cli", "main"):
                # cli.main reports errors through its exit status
                wrapped = self._wrap(_cli_name, original, failed_result=bool)
            else:
                wrapped = self._wrap(functools.partial(_fixed_name, name), original,
                                     COUNTERS.get(name))
            for m in self.modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics as means per traced op (see `metric_specs`)."""
        ops = max(self.ops, 1)
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        failed = defaultdict(int)
        for name, start, end, parent, _, bad in self.spans:
            calls[name] += 1
            busy[name] += end - start
            failed[name] += bad
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, (name, start, end, _, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[sid]

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_ms"] = 1e3 * busy[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self_time[name] / ops
            out[f"{name}.failed"] = failed[name]
        c = self.counts
        for name, _, _, kind in COUNT_METRICS:
            if kind == "per_op":
                out[name] = c[name] / ops
            elif kind == "total":
                out[name] = c[name]
            else:  # share of the grid points tried that were feasible
                grid = name.rsplit(".", 1)[0]
                points = c[f"{grid}.points"]
                out[name] = c[f"{grid}.feasible"] / points if points else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(out[f"{n}.self_ms"] for n in span_names()
                                          if n.split(".", 1)[0] == layer)
        wall = 1e3 * busy[OP] / ops
        unaccounted = 1e3 * self_time[OP] / ops
        out["op.wall_ms"] = wall
        out["op.unaccounted_ms"] = unaccounted
        out["op.unaccounted_share"] = unaccounted / wall if wall > 0.0 else 0.0
        return out

    def write(self, path: Path, origin: float) -> None:
        """One JSON object per span, times in seconds since `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, bad) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "op": op,
                                     "failed": bad}) + "\n")


def _fixed_name(name, args, kwargs):
    return name


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else None
    return f"cli.{command}" if command in CLI_COMMANDS else "cli.main"
