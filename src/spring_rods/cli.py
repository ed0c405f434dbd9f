"""Command-line front end: solve, sweep, converge and validate workflows."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError, SpringRodsError, ValidationError
from .experiments import (_fmt, export_csv, export_svg, run_penalty_convergence,
                          run_stiffness_sweep)
from .fem import build_mesh, interface_stress
from .model import (BodyForce, ConstraintVariant, Geometry, Material, PenaltyLaw,
                    PenaltyVariant, ProblemSpec, SpringLaw)
from .oracle import analytic_solution
from .solver import PenaltyProblem, SolverConfig, solve

#: Floor of the validate tolerance; each column's tolerance grows with its load scale.
_TRIAD_TOL = 1e-6


def _option(default, key: str, flag: str, help: str, choices=None, kind=None):
    """A RunConfig field with its config-file key, flag, help, choices and value type."""
    return field(default=default, metadata={"key": key, "flag": flag, "help": help,
                                            "choices": choices, "kind": kind or type(default)})


@dataclass
class RunConfig:
    """Benchmark defaults: symmetric rods of unit modulus, unit spring, no load."""

    a: float = _option(-1.0, "geometry.a", "--a", "left fixed end")
    b: float = _option(1.0, "geometry.b", "--b", "right fixed end")
    l: float = _option(0.5, "geometry.l", "--l", "spring half-length")
    e1: float = _option(1.0, "material.e1", "--e1", "Young modulus of rod 1")
    e2: float = _option(1.0, "material.e2", "--e2", "Young modulus of rod 2")
    k1: float = _option(1.0, "spring.k1", "--k1", "compression stiffness")
    k2: float = _option(1.0, "spring.k2", "--k2", "extension stiffness")
    f1: float = _option(0.0, "force.f1", "--f1", "force density on rod 1")
    f2: float = _option(0.0, "force.f2", "--f2", "force density on rod 2")
    variant: str = _option("non-penetration", "constraint.variant", "--variant",
                           "gap constraint variant", tuple(v.value for v in ConstraintVariant))
    penalty: str = _option("compression", "penalty.variant", "--penalty",
                           "penalty law variant", tuple(v.value for v in PenaltyVariant))
    lam: float | None = _option(None, "penalty.lambda", "--lambda",
                                "penalty parameter for a single penalized solve", kind=float)
    n_max: int = _option(12, "penalty.n_max", "--n-max", "last index of the penalty schedule")
    n1: int = _option(4, "mesh.n1", "--n1", "elements on rod 1")
    n2: int = _option(4, "mesh.n2", "--n2", "elements on rod 2")
    method: str = _option("exact", "solver.method", "--method", "solver backend",
                          ("exact", "gradient", "fixed-point"))
    tol: float = _option(1e-8, "solver.tolerance", "--tol", "iterative solver tolerance")
    max_iter: int = _option(100_000, "solver.max_iter", "--max-iter",
                            "iteration cap for iterative solvers")
    outdir: str = _option("out", "output.dir", "--outdir", "output directory root")
    formats: str = _option("both", "output.formats", "--format", "artifact formats to write",
                           ("csv", "svg", "both"))

    def problem(self) -> ProblemSpec:
        return ProblemSpec(Geometry(self.a, self.b, self.l),
                           Material(self.e1, self.e2),
                           SpringLaw(self.k1, self.k2, 2.0 * self.l),
                           BodyForce(self.f1, self.f2),
                           ConstraintVariant(self.variant))

    def penalty_law(self) -> PenaltyLaw:
        return PenaltyLaw(PenaltyVariant(self.penalty), 2.0 * self.l)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tolerance=self.tol, max_iterations=self.max_iter)


#: Each RunConfig attribute's option metadata, in field order (the --help order).
_OPTIONS = {f.name: f.metadata for f in fields(RunConfig)}
_ATTR_OF_KEY = {option["key"]: attr for attr, option in _OPTIONS.items()}


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config-file keys, then explicit flag overrides.

    File values are converted and checked against the choices of their flag.
    """
    config = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _ATTR_OF_KEY:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            attr = _ATTR_OF_KEY[key]
            choices = _OPTIONS[attr]["choices"]
            try:
                value = _OPTIONS[attr]["kind"](raw)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad value {raw!r} for {key}") from None
            if choices is not None and value not in choices:
                raise ParseError(f"{path}:{lineno}: bad value {raw!r} for {key} "
                                 f"(choose from {', '.join(choices)})")
            setattr(config, attr, value)
    for attr, value in (overrides or {}).items():
        if value is not None:
            setattr(config, attr, value)
    return config


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, usage and error writes raise on a closed stream.

    From Python 3.11 argparse drops an OSError of its own writes, so `--help`
    into a closed pipe would exit 0; here the BrokenPipeError reaches `main`.
    """

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:  # no stream at all under pythonw
            file.write(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser: the subcommand is a positional choice, options go before or after it.

    Built once per process: `parse_args` returns a fresh namespace each call.
    """
    parser = _Parser(
        prog="spring-rods",
        description="Equilibrium of two elastic rods coupled by a nonlinear spring "
                    "with a non-penetration constraint.")
    parser.add_argument("command", choices=_COMMANDS,
                        help="; ".join(f"{name}: {text}" for name, (_, text)
                                       in _COMMANDS.items()))
    parser.add_argument("--config", help="flat config file with dotted keys")
    for attr, option in _OPTIONS.items():
        parser.add_argument(option["flag"], dest=attr, type=option["kind"],
                            choices=option["choices"], help=option["help"])
    return parser


def _run_dir(config: RunConfig, command: str) -> Path:
    """A fresh run directory's path; it is made by the first file written into it."""
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{time.time_ns() % 1_000_000:06d}"
    return Path(config.outdir) / f"{command}-{stamp}"


def _formats(config: RunConfig) -> set[str]:
    return {"csv", "svg"} if config.formats == "both" else {config.formats}


def _write_study(config: RunConfig, command: str, result, csv_name: str, panels) -> None:
    """Export the study into a new run directory; an empty study is refused before it exists."""
    rundir = _run_dir(config, command)
    wanted = _formats(config)
    if "csv" in wanted:
        print(f"wrote {export_csv(result, rundir / csv_name)}")
    if "svg" in wanted:
        for panel in panels:
            print(f"wrote {export_svg(result, rundir / f'{panel}.svg', panel)}")


def _cmd_solve(config: RunConfig, command: str) -> int:
    problem = config.problem()
    posed = problem if config.lam is None else PenaltyProblem(problem, config.penalty_law(),
                                                               config.lam)
    sol = solve(posed, (config.n1, config.n2), config.method, config.solver_config())
    print(f"method = {sol.diagnostics.method}  regime = {sol.diagnostics.regime}")
    print(f"g1 = {_fmt(sol.g1)}")
    print(f"g2 = {_fmt(sol.g2)}")
    print(f"theta = {_fmt(sol.theta)}")
    print(f"s = {_fmt(sol.s)}")
    print(f"contact = {'true' if sol.contact else 'false'}")
    if "csv" in _formats(config):
        rundir = _run_dir(config, command)
        rundir.mkdir(parents=True, exist_ok=True)
        mesh = build_mesh(problem.geometry, config.n1, config.n2)
        # one bound format per rod over Python floats: _fmt's digits, row by row
        lines = ["rod,x,u",
                 *map("1,{:.11e},{:.11e}".format, mesh.nodes1.tolist(),
                      [0.0, *sol.u.rod1.tolist()]),
                 *map("2,{:.11e},{:.11e}".format, mesh.nodes2.tolist(),
                      [*sol.u.rod2.tolist(), 0.0])]
        out = rundir / "solution.csv"
        out.write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {out}")
    if not sol.diagnostics.converged:
        print(f"error: {config.method} did not converge in "
              f"{sol.diagnostics.iterations} iterations", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(config: RunConfig, command: str) -> int:
    problem = config.problem()
    grid = [round(0.1 * i, 10) for i in range(1, 20)]
    result = run_stiffness_sweep(problem, problem.forces, grid, (config.n1, config.n2))
    for k, message in result.failures:  # before the write, which refuses an empty sweep
        print(f"note: k={k} failed: {message}", file=sys.stderr)
    _write_study(config, command, result, "sweep.csv", ("displacements", "stress", "gap"))
    return 0


def _cmd_converge(config: RunConfig, command: str) -> int:
    if config.n_max < 1:
        raise ValidationError(f"need --n-max of at least 1, got {config.n_max}")
    problem = config.problem()
    study = run_penalty_convergence(problem, config.penalty_law().variant,
                                    range(1, config.n_max + 1), (config.n1, config.n2))
    _write_study(config, command, study, "convergence.csv", ("error", "gap"))
    last = study.records[-1]
    print(f"final error = {_fmt(last.error)} at n = {last.n}")
    if study.non_convergence:
        print("note: error stalled over the last records "
              "(load may never activate the penalized side)", file=sys.stderr)
    return 0


def _cmd_validate(config: RunConfig, command: str) -> int:
    problem = config.problem()
    cfg = SolverConfig(tolerance=min(config.tol, 1e-9), max_iterations=config.max_iter)
    mesh_sizes = (config.n1, config.n2)
    states = [
        ("exact", solve(problem, mesh_sizes, "exact")),
        ("gradient", solve(problem, mesh_sizes, "gradient", cfg)),
        ("fixed-point", solve(problem, mesh_sizes, "fixed-point", cfg)),
    ]
    exact = analytic_solution(problem)
    rows = [(name, (sol.g1, sol.g2, sol.theta, sol.s)) for name, sol in states]
    rows.append(("closed-form", (exact.g1, exact.g2, exact.theta, exact.s)))
    for name, vals in rows:
        print(f"{name:>12}: " + "  ".join(_fmt(v) for v in vals))
    # the rows carry a few roundings of loads of size f*L (stress) and f*L^2/E
    # (displacements), so each column's tolerance scales with its own load
    geo, mat, f = problem.geometry, problem.material, problem.forces
    disp = abs(f.f1) * geo.L1 * geo.L1 / mat.E1 + abs(f.f2) * geo.L2 * geo.L2 / mat.E2
    stress = abs(f.f1) * geo.L1 + abs(f.f2) * geo.L2
    rounding = 64 * (config.n1 + config.n2) * sys.float_info.epsilon
    deviations = [max(col) - min(col) for col in zip(*(vals for _, vals in rows))]
    print(f"max pairwise deviation = {_fmt(max(deviations))}")
    # the exact solve's field must carry its s to both inner ends (sigma1(-l) = sigma2(l) = s)
    sol = states[0][1]
    traces = interface_stress(build_mesh(geo, *mesh_sizes), sol.u, mat, f)
    deviations.append(max(abs(trace - sol.s) for trace in traces))
    failed = False
    for column, dev, scale in zip(("g1", "g2", "theta", "s", "field stress trace"),
                                  deviations, (disp, disp, disp, stress, stress)):
        tol = max(_TRIAD_TOL, rounding * scale)
        if dev > tol:
            print(f"FAIL: {column} deviation {_fmt(dev)} above {_fmt(tol)}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


#: Each subcommand as (handler(config, name), help text); name prefixes the run directory.
_COMMANDS = {
    "solve": (_cmd_solve, "solve one equilibrium"),
    "sweep": (_cmd_sweep, "stiffness sweep"),
    "converge": (_cmd_converge, "penalty convergence study"),
    "validate": (_cmd_validate, "cross-check all solvers against the closed form"),
}


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help meets a closed reader here, not at interpreter exit
            raise
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        config = parse_config(args.config, overrides)
        status = _COMMANDS[args.command][0](config, args.command)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return status
    except SpringRodsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout left early: the Python docs' recipe points stdout
        # at devnull, so the flush at exit cannot fail again, and exits 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
