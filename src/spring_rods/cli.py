"""Command-line front end: solve, sweep, converge and validate workflows."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SpringRodsError, ValidationError
from .experiments import (_fmt, export_csv, export_svg, run_penalty_convergence,
                          run_stiffness_sweep)
from .fem import build_mesh
from .model import (BodyForce, ConstraintVariant, Geometry, Material, PenaltyLaw,
                    PenaltyVariant, ProblemSpec, SpringLaw)
from .oracle import analytic_solution
from .solver import PenaltyProblem, SolverConfig, solve

_TRIAD_TOL = 1e-6


@dataclass
class RunConfig:
    """Benchmark defaults: symmetric rods of unit modulus, unit spring, no load."""

    a: float = -1.0
    b: float = 1.0
    l: float = 0.5
    e1: float = 1.0
    e2: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    f1: float = 0.0
    f2: float = 0.0
    variant: str = "non-penetration"
    penalty: str = "compression"
    lam: float | None = None
    n_max: int = 12
    n1: int = 4
    n2: int = 4
    method: str = "exact"
    tol: float = 1e-8
    max_iter: int = 100_000
    outdir: str = "out"
    formats: str = "both"

    def problem(self) -> ProblemSpec:
        try:
            variant = ConstraintVariant(self.variant)
        except ValueError:
            raise ValidationError(f"unknown constraint variant {self.variant!r}") from None
        return ProblemSpec(Geometry(self.a, self.b, self.l),
                           Material(self.e1, self.e2),
                           SpringLaw(self.k1, self.k2, 2.0 * self.l),
                           BodyForce(self.f1, self.f2),
                           variant)

    def penalty_law(self) -> PenaltyLaw:
        try:
            variant = PenaltyVariant(self.penalty)
        except ValueError:
            raise ValidationError(f"unknown penalty variant {self.penalty!r}") from None
        return PenaltyLaw(variant, 2.0 * self.l)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tolerance=self.tol, max_iterations=self.max_iter)


#: Each RunConfig attribute as (config-file key, flag, type, choices, help).
_OPTIONS = {
    "a": ("geometry.a", "--a", float, None, "left fixed end"),
    "b": ("geometry.b", "--b", float, None, "right fixed end"),
    "l": ("geometry.l", "--l", float, None, "spring half-length"),
    "e1": ("material.e1", "--e1", float, None, "Young modulus of rod 1"),
    "e2": ("material.e2", "--e2", float, None, "Young modulus of rod 2"),
    "k1": ("spring.k1", "--k1", float, None, "compression stiffness"),
    "k2": ("spring.k2", "--k2", float, None, "extension stiffness"),
    "f1": ("force.f1", "--f1", float, None, "force density on rod 1"),
    "f2": ("force.f2", "--f2", float, None, "force density on rod 2"),
    "variant": ("constraint.variant", "--variant", str,
                tuple(v.value for v in ConstraintVariant), "gap constraint variant"),
    "penalty": ("penalty.variant", "--penalty", str,
                tuple(v.value for v in PenaltyVariant), "penalty law variant"),
    "lam": ("penalty.lambda", "--lambda", float, None,
            "penalty parameter for a single penalized solve"),
    "n_max": ("penalty.n_max", "--n-max", int, None, "last index of the penalty schedule"),
    "n1": ("mesh.n1", "--n1", int, None, "elements on rod 1"),
    "n2": ("mesh.n2", "--n2", int, None, "elements on rod 2"),
    "method": ("solver.method", "--method", str, ("exact", "gradient", "fixed-point"),
               "solver backend"),
    "tol": ("solver.tolerance", "--tol", float, None, "iterative solver tolerance"),
    "max_iter": ("solver.max_iter", "--max-iter", int, None,
                 "iteration cap for iterative solvers"),
    "outdir": ("output.dir", "--outdir", str, None, "output directory root"),
    "formats": ("output.formats", "--format", str, ("csv", "svg", "both"),
                "artifact formats to write"),
}

_ATTR_OF_KEY = {key: attr for attr, (key, *_) in _OPTIONS.items()}


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
            _, _, kind, choices, _ = _OPTIONS[attr]
            try:
                value = kind(raw)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spring-rods",
        description="Equilibrium of two elastic rods coupled by a nonlinear spring "
                    "with a non-penetration constraint.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat config file with dotted keys")
    for attr, (_, flag, kind, choices, text) in _OPTIONS.items():
        common.add_argument(flag, dest=attr, type=kind, choices=choices, help=text)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="solve one equilibrium")
    sub.add_parser("sweep", parents=[common], help="stiffness sweep")
    sub.add_parser("converge", parents=[common], help="penalty convergence study")
    sub.add_parser("validate", parents=[common],
                   help="cross-check all solvers against the closed form")
    return parser


def _run_dir(config: RunConfig, subcommand: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{time.time_ns() % 1_000_000:06d}"
    path = Path(config.outdir) / f"{subcommand}-{stamp}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(config: RunConfig) -> int:
    problem = config.problem()
    penalty = None
    if config.lam is not None:
        penalty = PenaltyProblem(problem, config.penalty_law(), config.lam)
    sol = solve(problem, (config.n1, config.n2), config.method,
                config.solver_config(), penalty)
    print(f"method = {sol.diagnostics.method}  regime = {sol.diagnostics.regime}")
    print(f"g1 = {_fmt(sol.g1)}")
    print(f"g2 = {_fmt(sol.g2)}")
    print(f"theta = {_fmt(sol.theta)}")
    print(f"s = {_fmt(sol.s)}")
    print(f"contact = {'true' if sol.contact else 'false'}")
    if "csv" in _formats(config):
        rundir = _run_dir(config, "solve")
        mesh = build_mesh(problem.geometry, config.n1, config.n2)
        lines = ["rod,x,u"]
        for x, u in zip(mesh.nodes1, np.concatenate(([0.0], sol.u.rod1))):
            lines.append(f"1,{_fmt(x)},{_fmt(u)}")
        for x, u in zip(mesh.nodes2, np.concatenate((sol.u.rod2, [0.0]))):
            lines.append(f"2,{_fmt(x)},{_fmt(u)}")
        out = rundir / "solution.csv"
        out.write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {out}")
    if not sol.diagnostics.converged:
        print(f"error: {config.method} did not converge in "
              f"{sol.diagnostics.iterations} iterations", file=sys.stderr)
        return 1
    return 0


def _formats(config: RunConfig) -> set[str]:
    return {"csv", "svg"} if config.formats == "both" else {config.formats}


def _cmd_sweep(config: RunConfig) -> int:
    problem = config.problem()
    grid = [round(0.1 * i, 10) for i in range(1, 20)]
    result = run_stiffness_sweep(problem, problem.forces, grid, (config.n1, config.n2))
    rundir = _run_dir(config, "sweep")
    wanted = _formats(config)
    if "csv" in wanted:
        print(f"wrote {export_csv(result, rundir / 'sweep.csv')}")
    if "svg" in wanted:
        for panel in ("displacements", "stress", "gap"):
            print(f"wrote {export_svg(result, rundir / f'{panel}.svg', panel)}")
    for k, message in result.failures:
        print(f"note: k={k} failed: {message}", file=sys.stderr)
    return 0


def _cmd_converge(config: RunConfig) -> int:
    if config.n_max < 1:
        raise ValidationError(f"need --n-max of at least 1, got {config.n_max}")
    problem = config.problem()
    law = config.penalty_law()
    study = run_penalty_convergence(problem, law.variant,
                                    range(1, config.n_max + 1),
                                    (config.n1, config.n2))
    rundir = _run_dir(config, "converge")
    wanted = _formats(config)
    if "csv" in wanted:
        print(f"wrote {export_csv(study, rundir / 'convergence.csv')}")
    if "svg" in wanted:
        for panel in ("error", "gap"):
            print(f"wrote {export_svg(study, rundir / f'{panel}.svg', panel)}")
    last = study.records[-1]
    print(f"final error = {_fmt(last.error)} at n = {last.n}")
    if study.non_convergence:
        print("note: error stalled over the last records "
              "(load may never activate the penalized side)")
    return 0


def _cmd_validate(config: RunConfig) -> int:
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
    deviation = max(abs(x - y)
                    for i, (_, p) in enumerate(rows)
                    for _, q in rows[i + 1:]
                    for x, y in zip(p, q))
    for name, vals in rows:
        print(f"{name:>12}: " + "  ".join(_fmt(v) for v in vals))
    print(f"max pairwise deviation = {_fmt(deviation)}")
    if deviation > _TRIAD_TOL:
        print(f"FAIL: deviation above {_TRIAD_TOL}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "converge": _cmd_converge,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        config = parse_config(args.config, overrides)
        return _COMMANDS[args.command](config)
    except (SpringRodsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
