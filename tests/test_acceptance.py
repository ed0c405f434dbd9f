"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np

from spring_rods import (BodyForce, ConstraintVariant, Geometry, Material,
                         PenaltyProblem, PenaltyVariant, SolverConfig,
                         SpringLaw, analytic_solution, assemble, build_mesh,
                         grid_search_minimizer, make_problem, run_penalty_convergence,
                         run_stiffness_sweep, schur_reduce, solve_exact,
                         solve_penalized, solve_projected_gradient,
                         solve_qvi_fixed_point, vi_residual)
from spring_rods.cli import main as cli_main
from spring_rods.fem import v_norm

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)
NP_ = ConstraintVariant.NON_PENETRATION
VARIANTS = list(ConstraintVariant)


def report(num, description, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def reduced_for(f1, f2, n=4):
    mesh = build_mesh(GEO, n, n)
    system = assemble(mesh, MAT, BodyForce(f1, f2))
    return mesh, system, schur_reduce(system)


def test_criterion_1_contact_threshold():
    start = time.perf_counter()
    _, _, red = reduced_for(6.0, -6.0)
    contact_grid = np.linspace(0.05, 0.50, 10)
    free_grid = np.linspace(0.55, 1.90, 28)
    ok = True
    for k in contact_grid:
        sol = solve_exact(red, SpringLaw(k, k, 1.0), NP_, GEO.l)
        ok = ok and sol.theta <= 1e-9
    for k in free_grid:
        sol = solve_exact(red, SpringLaw(k, k, 1.0), NP_, GEO.l)
        ok = ok and sol.theta > 1e-9
    elapsed = time.perf_counter() - start
    report(1, "contact exactly for k1 <= 0.5 under f=(6,-6)",
           ok and elapsed < 1.0, f" ({elapsed:.3f}s)")


def test_criterion_2_contact_branch_constancy():
    _, _, red = reduced_for(6.0, -6.0)
    ok = True
    for k in np.linspace(0.05, 0.50, 10):
        sol = solve_exact(red, SpringLaw(k, k, 1.0), NP_, GEO.l)
        ok = ok and abs(sol.g1 - 0.5) <= 1e-8 and abs(sol.g2 + 0.5) <= 1e-8
    report(2, "contact-branch displacements fixed at (0.5, -0.5) within 1e-8", ok)


def test_criterion_3_rigid_translation():
    start = time.perf_counter()
    _, _, red = reduced_for(1.0, 1.0)
    ok = True
    for k in np.linspace(0.05, 1.95, 39):
        sol = solve_exact(red, SpringLaw(k, k, 1.0), NP_, GEO.l)
        ok = ok and abs(sol.s) <= 1e-10 and abs(sol.theta - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    report(3, "equal forces translate the spring rigidly (s=0, gap=2l)",
           ok and elapsed < 1.0, f" ({elapsed:.3f}s)")


def test_criterion_4_penalty_convergence():
    start = time.perf_counter()
    mesh, _, red = reduced_for(1.0, -1.0)
    spring = SpringLaw(1.0, 1.0, 1.0)
    base = make_problem(GEO, MAT, spring, BodyForce(1.0, -1.0), NP_)
    penalty = PenaltyVariant.COMPRESSION_ONLY
    limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
    ok = abs(limit.g1) <= 1e-10 and abs(limit.g2) <= 1e-10
    errors = []
    for n in range(1, 13):
        sol = solve_penalized(red, PenaltyProblem(base, penalty, 2.0 ** (3 - n)))
        K = 1.0 + 2.0 ** (n - 3)
        ok = ok and abs(sol.theta - (0.75 + K) / (1.0 + K)) <= 1e-9
        errors.append(v_norm(mesh, sol.u - limit.u))
    ok = ok and all(b <= a for a, b in zip(errors[1:], errors[2:]))
    ok = ok and errors[-1] < 5e-3
    elapsed = time.perf_counter() - start
    report(4, "penalty schedule converges to the rigid-compression limit",
           ok and elapsed < 2.0, f" (final error {errors[-1]:.2e}, {elapsed:.3f}s)")


def _random_cases(count, seed, force_scale=8.0):
    rng = np.random.default_rng(seed)
    for i in range(count):
        k1, k2 = rng.uniform(0.05, 1.95, 2)
        f1, f2 = rng.uniform(-force_scale, force_scale, 2)
        yield i, k1, k2, f1, f2


def test_criterion_5_solver_triad_agreement():
    start = time.perf_counter()
    cfg = SolverConfig(tolerance=1e-9)
    worst = 0.0
    for i, k1, k2, f1, f2 in _random_cases(200, seed=2024):
        variant = VARIANTS[i % 4]
        prob = make_problem(GEO, MAT, SpringLaw(k1, k2, 1.0), BodyForce(f1, f2), variant)
        mesh = build_mesh(GEO, 4, 4)
        system = assemble(mesh, MAT, prob.forces)
        red = schur_reduce(system)
        states = [
            solve_exact(red, prob.spring, variant, GEO.l),
            solve_projected_gradient(system, prob.spring, variant, config=cfg),
            solve_qvi_fixed_point(system, prob.spring, variant, cfg),
        ]
        quads = [(s.g1, s.g2, s.theta, s.s) for s in states]
        exact = analytic_solution(prob)
        quads.append((exact.g1, exact.g2, exact.theta, exact.s))
        for a in quads:
            for b in quads:
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    elapsed = time.perf_counter() - start
    report(5, "three solvers and the closed form agree on 200 seeded configs",
           worst <= 1e-6 and elapsed < 10.0,
           f" (worst deviation {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_6_complementarity_and_vi():
    ok = True
    worst_vi = 0.0
    mesh = build_mesh(GEO, 4, 4)
    for i, k1, k2, f1, f2 in _random_cases(60, seed=7):
        spring = SpringLaw(k1, k2, 1.0)
        make_problem(GEO, MAT, spring, BodyForce(f1, f2), NP_)
        system = assemble(mesh, MAT, BodyForce(f1, f2))
        red = schur_reduce(system)
        cfg = SolverConfig(tolerance=1e-9)
        sols = [
            solve_exact(red, spring, NP_, GEO.l),
            solve_projected_gradient(system, spring, NP_, config=cfg),
            solve_qvi_fixed_point(system, spring, NP_, cfg),
        ]
        for sol in sols:
            excess = sol.s + spring.force(sol.theta)
            ok = ok and sol.theta >= -1e-10 and excess <= 1e-8
            ok = ok and abs(excess * sol.theta) <= 1e-8
        residual = vi_residual(system, spring, NP_, sols[0].u, trials=1000, seed=i)
        worst_vi = min(worst_vi, residual)
        ok = ok and residual >= -1e-8
    report(6, "contact complementarity and inequality certificate hold",
           ok, f" (worst residual {worst_vi:.2e})")


def test_criterion_7_contraction():
    rng = np.random.default_rng(101)
    cfg = SolverConfig(tolerance=1e-8)
    ok = True
    mesh = build_mesh(GEO, 4, 4)
    for _ in range(50):
        ratio_target = rng.uniform(0.21, 0.94)
        k = 2.0 * ratio_target  # alpha/m = k/2 for the benchmark geometry
        f1, f2 = rng.uniform(-3.0, 3.0, 2)
        spring = SpringLaw(k, k, 1.0)
        prob = make_problem(GEO, MAT, spring, BodyForce(f1, f2), NP_)
        system = assemble(mesh, MAT, prob.forces)
        sol = solve_qvi_fixed_point(system, spring, NP_, cfg)
        bound = prob.contraction_ratio + 0.05
        ok = ok and all(r <= bound for r in sol.diagnostics.step_ratios)
        cap = math.log(cfg.tolerance) / math.log(prob.contraction_ratio) + 5
        ok = ok and sol.diagnostics.converged and sol.diagnostics.iterations <= cap
    report(7, "fixed-point ratios and iteration counts within contraction bounds", ok)


def test_criterion_8_mesh_independence():
    start = time.perf_counter()
    ok = True
    cases = [(1.0, (1.0, -1.0)), (0.25, (6.0, -6.0)), (1.3, (-2.0, 5.0))]
    for k, f in cases:
        prob = make_problem(GEO, MAT, SpringLaw(k, k, 1.0), BodyForce(*f), NP_)
        exact = analytic_solution(prob)
        for n in (1, 4, 16, 256):
            mesh = build_mesh(GEO, n, n)
            red = schur_reduce(assemble(mesh, MAT, prob.forces))
            sol = solve_exact(red, prob.spring, NP_, GEO.l)
            dev = max(abs(sol.g1 - exact.g1), abs(sol.g2 - exact.g2),
                      abs(sol.theta - exact.theta), abs(sol.s - exact.s))
            ok = ok and dev <= 1e-9
    elapsed = time.perf_counter() - start
    report(8, "interface response is mesh independent for constant loads",
           ok and elapsed < 1.0, f" ({elapsed:.3f}s)")


def test_criterion_9_brute_force_equivalence():
    mesh = build_mesh(GEO, 1, 1)
    ok = True
    for i, k1, k2, f1, f2 in _random_cases(20, seed=3, force_scale=4.0):
        spring = SpringLaw(k1, k2, 1.0)
        system = assemble(mesh, MAT, BodyForce(f1, f2))
        sol = solve_exact(schur_reduce(system), spring, NP_, GEO.l)
        dof = grid_search_minimizer(system, spring, NP_, (-1.0, 1.0), 1e-3)
        ok = ok and abs(dof.g1 - sol.g1) <= 2e-3 and abs(dof.g2 - sol.g2) <= 2e-3
    report(9, "brute-force grid minimizer tracks the exact solver within 2e-3", ok)


def test_criterion_10_determinism(tmp_path, capsys):
    for sub, flags in (("sweep", ["--f1", "6", "--f2", "-6"]),
                       ("converge", ["--f1", "1", "--f2", "-1",
                                     "--penalty", "compression"])):
        blobs = []
        for _ in range(2):
            assert cli_main([sub, *flags, "--format", "csv",
                             "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        name = "sweep.csv" if sub == "sweep" else "convergence.csv"
        files = sorted(tmp_path.glob(f"{sub}-*/{name}"))
        blobs = [p.read_bytes() for p in files[-2:]]
        ok = len(blobs) == 2 and blobs[0] == blobs[1]
        if sub == "sweep":
            sweep_ok = ok
        else:
            conv_ok = ok
    report(10, "repeated sweep and converge runs emit byte-identical tables",
           sweep_ok and conv_ok)
