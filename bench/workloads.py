"""Seeded inputs, timed operations and result checks of the three workloads.

Every workload draws a fixed pool of valid problems from its seed and
computes the expected answers from `oracle.analytic_solution` while it sets
up, so no reference is computed inside a timed operation or a traced pass.
Operations call the package through module attributes (`sr.solver.solve`,
never a name bound at import) so the tracer can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
from pathlib import Path

import numpy as np

VARIANTS = ("non-penetration", "rigid-compression", "rigid-extension", "fully-rigid")
PENALTIES = ("compression", "extension", "two-sided")
LIMIT_OF_PENALTY = {"compression": "rigid-compression", "extension": "rigid-extension",
                    "two-sided": "fully-rigid"}

#: Stiffness grid of `spring-rods sweep` (k = 0.1 .. 1.9).
SWEEP_GRID = tuple(round(0.1 * i, 10) for i in range(1, 20))
#: Last index of the penalty schedule passed to `converge` (lambda = 2**(3 - n)).
N_MAX = 12
#: Agreement with the closed form required of every exact interface value.
MATCH_TOL = 1e-8


class CheckFailed(Exception):
    """An operation returned a result that disagrees with its reference."""


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (tol {tol})")


def mesh_sizes(rng: np.random.Generator, count: int, lo: float, hi: float) -> list:
    """`count` pairs (n1, n2) with log2 of each drawn once from each of `count`
    equal strata of [lo, hi).

    Stratifying, and pairing the strata of n1 and n2 by a fixed permutation,
    keeps the pool's size distribution, and so its cost, nearly the same
    from one seed to the next.
    """
    def strata():
        return lo + (hi - lo) * (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count

    log1, log2 = strata(), strata()
    stride = 5 if count % 5 else 7  # coprime to count, so i -> stride*i is a permutation
    return [(round(2.0 ** log1[i]), round(2.0 ** log2[(stride * i) % count]))
            for i in range(count)]


def draw_config(rng: np.random.Generator, variant: str, min_modulus_ratio: float = 0.0,
                n1: int = 4, n2: int = 4) -> dict:
    """A valid problem as plain Python floats and ints.

    Rod lengths in [0.5, 1.5], half-gap l in [0.2, 0.8], moduli log-uniform
    in [0.5, 4] (or at least `min_modulus_ratio * L` each), spring
    stiffnesses a fraction in (0.05, 0.95) of the smallness bound
    (E1 + E2) / (2 L), forces uniform in +-8.
    """
    l = float(rng.uniform(0.2, 0.8))
    L1, L2 = (float(x) for x in rng.uniform(0.5, 1.5, 2))
    L = max(L1, L2)
    e1, e2 = (float(max(x, min_modulus_ratio * L)) for x in np.exp(rng.uniform(
        math.log(0.5), math.log(4.0), 2)))
    bound = (e1 + e2) / (2.0 * L)
    k1, k2 = (float(x) * bound for x in rng.uniform(0.05, 0.95, 2))
    f1, f2 = (float(x) for x in rng.uniform(-8.0, 8.0, 2))
    return {"a": -l - L1, "b": l + L2, "l": l, "e1": e1, "e2": e2, "k1": k1, "k2": k2,
            "f1": f1, "f2": f2, "variant": variant, "n1": int(n1), "n2": int(n2)}


def make_problem(sr, cfg: dict, variant: str | None = None, k: float | None = None):
    m = sr.model
    k1, k2 = (cfg["k1"], cfg["k2"]) if k is None else (k, k)
    return m.ProblemSpec(m.Geometry(cfg["a"], cfg["b"], cfg["l"]),
                         m.Material(cfg["e1"], cfg["e2"]),
                         m.SpringLaw(k1, k2, 2.0 * cfg["l"]),
                         m.BodyForce(cfg["f1"], cfg["f2"]),
                         m.ConstraintVariant(variant or cfg["variant"]))


def _interface(sol) -> tuple[float, float, float, float]:
    return (sol.g1, sol.g2, sol.theta, sol.s)


def _check_interface(got, want, tol: float, what: str) -> None:
    for name, x, y in zip(("g1", "g2", "theta", "s"), got, want):
        _close(x, y, tol, f"{what} {name}")


class Workload:
    """A seeded pool of items and the operation run on each.

    `prepare` and `release` run outside the timed interval around `op`;
    `check` raises CheckFailed when the result is wrong.
    """

    name = ""

    def __init__(self, sr, seed: int, workdir: Path):
        self.sr = sr
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.items: list = []

    def prepare(self, item):
        return item

    def op(self, prepared):
        raise NotImplementedError

    def check(self, prepared, result) -> None:
        raise NotImplementedError

    def release(self, prepared) -> None:
        pass


class FineMesh(Workload):
    """One `solver.solve(problem, (n1, n2), "exact")` per op at 2^10..2^15 elements."""

    name = "fine-mesh"
    POOL = 128

    def __init__(self, sr, seed, workdir):
        super().__init__(sr, seed, workdir)
        sizes = mesh_sizes(self.rng, self.POOL, 10.0, 15.0)
        for i, (n1, n2) in enumerate(sizes):
            cfg = draw_config(self.rng, VARIANTS[i % len(VARIANTS)], n1=n1, n2=n2)
            problem = make_problem(sr, cfg)
            want = _interface(sr.oracle.analytic_solution(problem))
            self.items.append((problem, (cfg["n1"], cfg["n2"]), want))

    def op(self, prepared):
        problem, mesh_sizes, _ = prepared
        return self.sr.solver.solve(problem, mesh_sizes, "exact")

    def check(self, prepared, result):
        _check_interface(_interface(result), prepared[2], MATCH_TOL, "solve")


class Certify(Workload):
    """Exact solve at 8..256 elements, its VI certificate and a brute-force grid.

    The grid covers +-HALF_WIDTH around the oracle interface values of the
    1+1-element instance (where the discrete and continuum values agree),
    shifted by a random fraction of a step so the answer is not a grid node.
    """

    name = "certify"
    POOL = 100
    TRIALS = 1000
    STEP = 4e-3
    HALF_WIDTH = 1.0

    def __init__(self, sr, seed, workdir):
        super().__init__(sr, seed, workdir)
        sizes = mesh_sizes(self.rng, self.POOL, 3.0, 8.0)
        for i, (n1, n2) in enumerate(sizes):
            # fully-rigid leaves no grid point on the line gap = 2l
            cfg = draw_config(self.rng, VARIANTS[i % 3], n1=n1, n2=n2)
            problem = make_problem(sr, cfg)
            ref = sr.oracle.analytic_solution(problem)
            shift = self.rng.uniform(-0.5, 0.5, 2) * self.STEP
            bounds = [(ref.g1 + float(shift[0]) - self.HALF_WIDTH,
                       ref.g1 + float(shift[0]) + self.HALF_WIDTH),
                      (ref.g2 + float(shift[1]) - self.HALF_WIDTH,
                       ref.g2 + float(shift[1]) + self.HALF_WIDTH)]
            self.items.append((problem, (cfg["n1"], cfg["n2"]), bounds, i, _interface(ref)))

    def op(self, prepared):
        problem, (n1, n2), bounds, probe_seed, _ = prepared
        fem, solver, oracle = self.sr.fem, self.sr.solver, self.sr.oracle
        system = fem.assemble(fem.build_mesh(problem.geometry, n1, n2),
                              problem.material, problem.forces)
        sol = solver.solve_exact(fem.schur_reduce(system), problem.spring,
                                 problem.variant, problem.geometry.l)
        residual = solver.vi_residual(system, problem.spring, problem.variant, sol.u,
                                      trials=self.TRIALS, seed=probe_seed)
        tiny = fem.assemble(fem.build_mesh(problem.geometry, 1, 1),
                            problem.material, problem.forces)
        best = oracle.grid_search_minimizer(tiny, problem.spring, problem.variant,
                                            bounds, self.STEP)
        return sol, residual, best

    def check(self, prepared, result):
        want = prepared[4]
        sol, residual, best = result
        _check_interface(_interface(sol), want, MATCH_TOL, "exact solve")
        if not residual >= -1e-8:
            raise CheckFailed(f"VI residual {residual!r} below -1e-8")
        for name, got, ref in (("g1", best.g1, want[0]), ("g2", best.g2, want[1])):
            if not abs(got - ref) <= 2.0 * self.STEP:
                raise CheckFailed(f"grid {name} {got!r} more than two steps from {ref!r}")


_STDOUT_VALUE = re.compile(r"^(g1|g2|theta|s) = (\S+)$", re.MULTILINE)


class CliStudies(Workload):
    """`cli.main` runs solve, sweep, converge and validate on one coarse config.

    One op is the whole four-command study of a config.  Single commands
    differ in cost by up to 10x, so a median over a mix of them would sit
    between two clusters and jump between runs.
    """

    name = "cli-studies"
    POOL = 128
    COMMANDS = ("solve", "sweep", "converge", "validate")

    def __init__(self, sr, seed, workdir):
        super().__init__(sr, seed, workdir)
        sizes = mesh_sizes(self.rng, self.POOL, 0.0, 6.0)
        self.serial = 0
        for i, (n1, n2) in enumerate(sizes):
            # E1 + E2 >= 4.2 L > 2 * 1.9 * L: every point of the sweep grid is valid
            cfg = draw_config(self.rng, VARIANTS[i % len(VARIANTS)], min_modulus_ratio=2.1,
                              n1=n1, n2=n2)
            penalty = PENALTIES[i % len(PENALTIES)]
            row = int(self.rng.integers(len(SWEEP_GRID)))
            flags = []
            for key in ("a", "b", "l", "e1", "e2", "k1", "k2", "f1", "f2"):
                flags += [f"--{key}", repr(cfg[key])]
            flags += ["--variant", cfg["variant"], "--n1", str(cfg["n1"]),
                      "--n2", str(cfg["n2"]), "--penalty", penalty, "--n-max", str(N_MAX)]
            oracle = sr.oracle.analytic_solution
            want = {
                "solve": _interface(oracle(make_problem(sr, cfg))),
                "sweep": (row, _interface(oracle(make_problem(sr, cfg, k=SWEEP_GRID[row])))),
                "converge": _interface(oracle(make_problem(sr, cfg, LIMIT_OF_PENALTY[penalty]))),
            }
            self.items.append((flags, want))

    def prepare(self, item):
        self.serial += 1
        outdir = self.workdir / f"study-{self.serial}"
        outdir.mkdir(parents=True)
        flags, want = item
        argvs = [[cmd, *flags, "--outdir", str(outdir)] for cmd in self.COMMANDS]
        return argvs, want, outdir

    def op(self, prepared):
        outcomes = []
        for argv in prepared[0]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sr.cli.main(argv)
            outcomes.append((code, out.getvalue(), err.getvalue()))
        return outcomes

    def check(self, prepared, result):
        _, want, outdir = prepared
        for cmd, (code, _, err) in zip(self.COMMANDS, result):
            if code != 0:
                raise CheckFailed(f"{cmd} exited {code}: {err.strip()}")
        printed = dict(_STDOUT_VALUE.findall(result[0][1]))
        if set(printed) != {"g1", "g2", "theta", "s"}:
            raise CheckFailed(f"solve printed {sorted(printed)}")
        got = tuple(float(printed[k]) for k in ("g1", "g2", "theta", "s"))
        _check_interface(got, want["solve"], MATCH_TOL, "solve stdout")

        row, ref = want["sweep"]
        rows = _csv_rows(outdir, "sweep-*/sweep.csv")
        if len(rows) != len(SWEEP_GRID):
            raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected {len(SWEEP_GRID)}")
        k, g1, g2, theta, s = (float(x) for x in rows[row][:5])
        _close(k, SWEEP_GRID[row], 1e-12, "sweep k")
        _check_interface((g1, g2, theta, s), ref, MATCH_TOL, f"sweep row k={k}")

        last = _csv_rows(outdir, "converge-*/convergence.csv")[-1]
        lam, theta, g1, g2 = (float(x) for x in last[1:5])
        # the penalized interface state differs from the rigid limit by at
        # most lam * |s_limit| in the gap and in each end displacement
        g1_ref, g2_ref, theta_ref, s_ref = want["converge"]
        slack = 2.0 * lam * (1.0 + abs(s_ref))
        for name, got_v, ref_v in (("theta", theta, theta_ref), ("g1", g1, g1_ref),
                                   ("g2", g2, g2_ref)):
            if not abs(got_v - ref_v) <= slack:
                raise CheckFailed(f"converge last {name} {got_v!r} not within {slack:.3g} "
                                  f"of the rigid limit {ref_v!r}")

    def release(self, prepared):
        shutil.rmtree(prepared[2], ignore_errors=True)


def _csv_rows(outdir: Path, pattern: str) -> list[list[str]]:
    paths = sorted(outdir.glob(pattern))
    if len(paths) != 1:
        raise CheckFailed(f"expected one {pattern} under the run directory, found {len(paths)}")
    lines = paths[0].read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


WORKLOADS = {cls.name: cls for cls in (FineMesh, CliStudies, Certify)}
