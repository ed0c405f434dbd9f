import math

import numpy as np
import pytest

from spring_rods import (BodyForce, ConstraintVariant, ContractionFailure, Geometry,
                         InfeasibleCandidate, Material, NoConsistentRegime,
                         NonPositiveLambda, PenaltyLaw,
                         PenaltyProblem, PenaltyVariant, SolverConfig, SpringLaw,
                         analytic_solution, assemble, build_mesh, effective_spring,
                         interface_stress, make_problem, recover_full, schur_reduce,
                         solve, solve_exact, solve_penalized, solve_projected_gradient,
                         solve_qvi_fixed_point, theta_of, v_norm, vi_residual)
import spring_rods.fem as fem_module
import spring_rods.solver as solver_module
from spring_rods import run_stiffness_sweep
from spring_rods.fem import DofVector

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)
NP_ = ConstraintVariant.NON_PENETRATION


def setup_case(k=1.0, f=(0.0, 0.0), n=4):
    mesh = build_mesh(GEO, n, n)
    system = assemble(mesh, MAT, BodyForce(*f))
    return mesh, system, schur_reduce(system), SpringLaw(k, k, 1.0)


class TestSolveExact:
    def test_compression_benchmark(self):
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        assert sol.s == pytest.approx(-0.125, abs=1e-12)
        assert sol.theta == pytest.approx(0.875, abs=1e-12)
        assert sol.g1 == pytest.approx(0.0625, abs=1e-12)
        assert sol.g2 == pytest.approx(-0.0625, abs=1e-12)
        assert sol.diagnostics.regime == "compression"
        assert not sol.contact

    def test_full_contact(self):
        _, _, red, spring = setup_case(0.25, (6.0, -6.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        assert sol.theta == 0.0
        assert sol.s == pytest.approx(-0.5, abs=1e-12)
        assert sol.g1 == pytest.approx(0.5, abs=1e-12)
        assert sol.g2 == pytest.approx(-0.5, abs=1e-12)
        assert sol.contact
        assert sol.active_bound == "lower"

    def test_rigid_compression_bound(self):
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        assert sol.theta == 1.0
        assert sol.g1 == pytest.approx(0.0, abs=1e-12)
        assert sol.g2 == pytest.approx(0.0, abs=1e-12)
        assert sol.s == pytest.approx(-0.25, abs=1e-12)
        assert sol.s <= 0.0  # bound reaction only pushes

    def test_equal_forces_breakpoint(self):
        for k in (0.3, 1.0, 1.7):
            _, _, red, _ = setup_case(k, (1.0, 1.0))
            sol = solve_exact(red, SpringLaw(k, k, 1.0), NP_, GEO.l)
            assert sol.s == pytest.approx(0.0, abs=1e-12)
            assert sol.theta == pytest.approx(1.0, abs=1e-12)
            assert sol.g1 == pytest.approx(0.125, abs=1e-12)
            assert sol.g2 == pytest.approx(0.125, abs=1e-12)
            assert sol.diagnostics.regime == "breakpoint"

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(12)
        for variant in ConstraintVariant:
            for _ in range(10):
                k = rng.uniform(0.05, 1.95)
                f = tuple(rng.uniform(-8.0, 8.0, 2))
                _, _, red, spring = setup_case(k, f)
                sol = solve_exact(red, spring, variant, GEO.l)
                assert sol.diagnostics.residual <= 1e-10

    def test_interface_stress_matches_s(self):
        mesh, system, red, spring = setup_case(1.2, (3.0, -2.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        s1, s2 = interface_stress(mesh, sol.u, MAT, BodyForce(3.0, -2.0))
        assert s1 == pytest.approx(sol.s, abs=1e-10)
        assert s2 == pytest.approx(sol.s, abs=1e-10)

    def test_scaling_exact_in_linear_regime(self):
        # doubling the load scales the linear-regime response exactly
        _, _, red1, spring = setup_case(0.8, (1.0, -0.5))
        _, _, red2, _ = setup_case(0.8, (2.0, -1.0))
        a = solve_exact(red1, spring, NP_, GEO.l)
        b = solve_exact(red2, spring, NP_, GEO.l)
        assert b.g1 == 2.0 * a.g1
        assert b.g2 == 2.0 * a.g2
        assert b.s == 2.0 * a.s


class TestSolvePenalized:
    def base(self, k=1.0, f=(1.0, -1.0)):
        return make_problem(GEO, MAT, SpringLaw(k, k, 1.0), BodyForce(*f), NP_)

    def test_unit_parameter_adds_unit_stiffness(self):
        prob = self.base()
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0), 1.0)
        sol = solve_penalized(red, spring, pen)
        assert sol.s == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert sol.theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert sol.g1 == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_vanishing_penalty_recovers_base_problem(self):
        prob = self.base()
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        base_sol = solve_exact(red, spring, NP_, GEO.l)
        for variant in PenaltyVariant:
            pen = PenaltyProblem(prob, PenaltyLaw(variant, 1.0), 1e6)
            sol = solve_penalized(red, spring, pen)
            assert sol.g1 == pytest.approx(base_sol.g1, abs=1e-5)
            assert sol.g2 == pytest.approx(base_sol.g2, abs=1e-5)

    def test_schedule_tail(self):
        prob = self.base()
        mesh, _, red, spring = setup_case(1.0, (1.0, -1.0))
        law = PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0)
        limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        sol = solve_penalized(red, spring, PenaltyProblem(prob, law, 2.0 ** (3 - 12)))
        assert abs(sol.theta - 1.0) <= 2e-3
        assert v_norm(mesh, sol.u - limit.u) <= 5e-3

    def test_schedule_values_and_monotone_error(self):
        # frozen closed form: theta_n = (0.75 + K)/(1 + K), K = 1 + 2**(n-3)
        prob = self.base()
        mesh, _, red, spring = setup_case(1.0, (1.0, -1.0))
        law = PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0)
        limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        errors = []
        for n in range(1, 13):
            sol = solve_penalized(red, spring, PenaltyProblem(prob, law, 2.0 ** (3 - n)))
            K = 1.0 + 2.0 ** (n - 3)
            assert sol.theta == pytest.approx((0.75 + K) / (1.0 + K), abs=1e-9)
            errors.append(v_norm(mesh, sol.u - limit.u))
        assert all(b <= a + 1e-15 for a, b in zip(errors[1:], errors[2:]))
        assert errors[-1] < 5e-3

    def test_limit_selectivity(self):
        # each penalty variant drives the gap into its own rigid set
        cases = [
            (PenaltyVariant.COMPRESSION_ONLY, (1.0, -1.0),
             lambda t: t >= 1.0 - 1e-3),
            (PenaltyVariant.EXTENSION_ONLY, (-1.0, 1.0),
             lambda t: t <= 1.0 + 1e-3),
            (PenaltyVariant.TWO_SIDED, (1.0, -1.0),
             lambda t: abs(t - 1.0) <= 1e-3),
        ]
        for variant, f, ok in cases:
            prob = self.base(f=f)
            _, _, red, spring = setup_case(1.0, f)
            sol = solve_penalized(red, spring,
                                  PenaltyProblem(prob, PenaltyLaw(variant, 1.0),
                                                 2.0 ** (3 - 12)))
            assert ok(sol.theta), (variant, sol.theta)

    def test_contact_and_penalty_coexist(self):
        # penalized problems keep the non-penetration bound
        prob = self.base(k=0.1, f=(6.0, -6.0))
        _, _, red, spring = setup_case(0.1, (6.0, -6.0))
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.EXTENSION_ONLY, 1.0), 0.5)
        sol = solve_penalized(red, spring, pen)
        assert sol.theta == 0.0
        assert sol.contact

    def test_nonpositive_lambda(self):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(NonPositiveLambda):
                PenaltyProblem(self.base(), PenaltyLaw(PenaltyVariant.TWO_SIDED, 1.0), lam)

    def test_base_must_be_non_penetration(self):
        rigid = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(0.0, 0.0),
                             ConstraintVariant.FULLY_RIGID)
        with pytest.raises(ValueError):
            PenaltyProblem(rigid, PenaltyLaw(PenaltyVariant.TWO_SIDED, 1.0), 1.0)

    def test_effective_spring_sides(self):
        spring = SpringLaw(1.0, 0.5, 1.0)
        comp = effective_spring(spring, PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0), 0.25)
        assert (comp.k1, comp.k2) == (5.0, 0.5)
        ext = effective_spring(spring, PenaltyLaw(PenaltyVariant.EXTENSION_ONLY, 1.0), 0.25)
        assert (ext.k1, ext.k2) == (1.0, 4.5)
        both = effective_spring(spring, PenaltyLaw(PenaltyVariant.TWO_SIDED, 1.0), 0.25)
        assert (both.k1, both.k2) == (5.0, 4.5)


class TestProjectedGradient:
    def test_matches_exact(self):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        exact = solve_exact(red, spring, NP_, GEO.l)
        sol = solve_projected_gradient(system, spring, NP_,
                                       config=SolverConfig(tolerance=1e-10))
        assert sol.g1 == pytest.approx(exact.g1, abs=1e-8)
        assert sol.g2 == pytest.approx(exact.g2, abs=1e-8)
        assert sol.diagnostics.converged

    def test_zero_forces_immediate(self):
        _, system, _, spring = setup_case(1.0, (0.0, 0.0))
        sol = solve_projected_gradient(system, spring, NP_)
        assert sol.diagnostics.iterations <= 1
        assert sol.g1 == 0.0 and sol.g2 == 0.0

    def test_error_within_ten_tolerances(self):
        rng = np.random.default_rng(31)
        tol = 1e-9
        for _ in range(10):
            k = rng.uniform(0.1, 1.9)
            f = tuple(rng.uniform(-6.0, 6.0, 2))
            _, system, red, spring = setup_case(k, f)
            exact = solve_exact(red, spring, NP_, GEO.l)
            sol = solve_projected_gradient(system, spring, NP_,
                                           config=SolverConfig(tolerance=tol))
            assert abs(sol.g1 - exact.g1) <= 10 * tol
            assert abs(sol.g2 - exact.g2) <= 10 * tol

    def test_contact_lands_on_bound(self):
        _, system, red, spring = setup_case(0.25, (6.0, -6.0))
        sol = solve_projected_gradient(system, spring, NP_,
                                       config=SolverConfig(tolerance=1e-12))
        assert sol.theta == 0.0
        assert sol.contact
        assert sol.g1 == pytest.approx(0.5, abs=1e-8)

    def test_penalized_route(self):
        prob = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0), NP_)
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0), 1.0)
        direct = solve_penalized(red, spring, pen)
        sol = solve_projected_gradient(system, spring, NP_, pen,
                                       SolverConfig(tolerance=1e-11))
        assert sol.theta == pytest.approx(direct.theta, abs=1e-8)

    def test_iteration_cap_flag(self):
        _, system, _, spring = setup_case(1.0, (1.0, -0.5))
        sol = solve_projected_gradient(system, spring, NP_,
                                       config=SolverConfig(tolerance=1e-300,
                                                           max_iterations=2))
        assert not sol.diagnostics.converged
        assert sol.diagnostics.iterations == 2
        assert abs(sol.g1) < 1.0  # best iterate still returned


class TestFixedPoint:
    def test_benchmark_and_ratio(self):
        _, system, _, spring = setup_case(1.0, (1.0, -1.0))
        prob = make_problem(GEO, MAT, spring, BodyForce(1.0, -1.0), NP_)
        sol = solve_qvi_fixed_point(system, spring, NP_)
        assert sol.g1 == pytest.approx(0.0625, abs=1e-8)
        assert sol.g2 == pytest.approx(-0.0625, abs=1e-8)
        assert all(r < prob.contraction_ratio for r in sol.diagnostics.step_ratios)

    def test_zero_forces_one_iteration(self):
        _, system, _, spring = setup_case(1.0, (0.0, 0.0))
        sol = solve_qvi_fixed_point(system, spring, NP_)
        assert sol.diagnostics.iterations == 1
        assert sol.g1 == 0.0 and sol.g2 == 0.0

    def test_stiff_compression_case(self):
        _, system, _, spring = setup_case(1.5, (6.0, -6.0))
        sol = solve_qvi_fixed_point(system, spring, NP_)
        assert sol.s == pytest.approx(-0.9, abs=1e-8)
        assert sol.theta == pytest.approx(0.4, abs=1e-8)
        assert sol.g1 == pytest.approx(0.3, abs=1e-8)

    def test_contraction_ratio_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = rng.uniform(0.45, 1.85)
            f = tuple(rng.uniform(-2.0, 2.0, 2))
            _, system, _, spring = setup_case(k, f)
            prob = make_problem(GEO, MAT, spring, BodyForce(*f), NP_)
            sol = solve_qvi_fixed_point(system, spring, NP_)
            bound = prob.contraction_ratio + 0.05
            assert all(r <= bound for r in sol.diagnostics.step_ratios), (k, f)

    def test_undamped_divergence_detected(self):
        # with damping forced to 1 the gap map has slope -k*C = -1.5: grows
        _, system, _, spring = setup_case(1.5, (-1.0, 1.0))
        cfg = SolverConfig(fixed_point_damping=1.0)
        with pytest.raises(ContractionFailure):
            solve_qvi_fixed_point(system, spring, NP_, cfg)

    def test_iteration_cap_flag(self):
        _, system, _, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_qvi_fixed_point(system, spring, NP_,
                                    SolverConfig(tolerance=1e-300, max_iterations=1))
        assert not sol.diagnostics.converged
        assert sol.diagnostics.iterations == 1

    def test_damped_handles_every_variant(self):
        rng = np.random.default_rng(22)
        for variant in ConstraintVariant:
            for _ in range(5):
                k = rng.uniform(0.1, 1.9)
                f = tuple(rng.uniform(-6.0, 6.0, 2))
                _, system, red, spring = setup_case(k, f)
                exact = solve_exact(red, spring, variant, GEO.l)
                sol = solve_qvi_fixed_point(system, spring, variant)
                assert sol.g1 == pytest.approx(exact.g1, abs=1e-7)
                assert sol.g2 == pytest.approx(exact.g2, abs=1e-7)


class TestRegimeEnumeration:
    def test_invalid_law_raises(self):
        # a law that evaluates to nan satisfies no regime's consistency checks
        from spring_rods.errors import NoConsistentRegime

        class BrokenLaw:
            k1 = k2 = float("nan")
            natural_length = 1.0
            lipschitz = float("nan")

            def force(self, r):
                return float("nan")

            def potential(self, r):
                return float("nan")

            def potential_slope(self, r):
                return float("nan")

        _, _, red, _ = setup_case(1.0, (1.0, -1.0))
        with pytest.raises(NoConsistentRegime):
            solve_exact(red, BrokenLaw(), NP_, GEO.l)


class TestClampTies:
    """Ties that the clamped gap must resolve as the breakpoint, exactly."""

    @pytest.mark.parametrize("variant", [ConstraintVariant.RIGID_COMPRESSION,
                                         ConstraintVariant.RIGID_EXTENSION])
    def test_rigid_variant_at_natural_length_is_breakpoint(self, variant):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, 1.0),
                               variant)
        sol = solve(problem)
        assert sol.diagnostics.regime == "breakpoint"
        assert sol.active_bound is None
        assert sol.diagnostics.regime == analytic_solution(problem).regime

    # d = W.S^-1 r is round-off, not zero, for f = 0.1, 0.3 and 0.7 on this mesh;
    # s = S11*g1 - r1 keeps the round-off of r, except for the dyadic load f = 1
    @pytest.mark.parametrize("f, s_tol", [(0.1, 1e-15), (0.3, 1e-15), (0.7, 1e-15),
                                          (1.0, 0.0)])
    def test_equal_loads_on_unequal_meshes_keep_the_gap(self, f, s_tol):
        problem = make_problem(GEO, MAT, SpringLaw(0.4, 0.4, 1.0), BodyForce(f, f), NP_)
        sol = solve(problem, (3, 7))
        assert sol.g1 == sol.g2
        assert abs(sol.s) <= s_tol


class TestViResidual:
    def test_certifies_exact_solution(self):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        assert vi_residual(system, spring, NP_, sol.u, trials=1000) >= -1e-9

    def test_detects_perturbation(self):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        bumped = DofVector(sol.u.rod1.copy(), sol.u.rod2.copy())
        bumped.rod1[-1] += 0.1
        assert vi_residual(system, spring, NP_, bumped, trials=1000) < -1e-3

    def test_infeasible_candidate(self):
        mesh, system, _, spring = setup_case(1.0, (0.0, 0.0))
        bad = DofVector(np.array([0.0, 0.0, 0.0, 1.0]), np.array([-1.0, 0.0, 0.0, 0.0]))
        assert theta_of(bad, GEO.l) < 0.0
        with pytest.raises(InfeasibleCandidate):
            vi_residual(system, spring, NP_, bad)

    def test_certifies_bound_variants(self):
        for variant in ConstraintVariant:
            _, system, red, spring = setup_case(0.8, (2.0, -3.0))
            sol = solve_exact(red, spring, variant, GEO.l)
            assert vi_residual(system, spring, variant, sol.u, trials=300) >= -1e-9


def _vi_reference(system, spring, variant, candidate, trials, seed):
    """Per-probe VI values, one DofVector per probe, in the draw order of the rng.

    Returns the minimum value and the largest term magnitude met, the scale
    against which round-off differences are measured.
    """
    mesh = system.mesh
    l = mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta_u = theta_of(candidate, l)
    force = spring.force(theta_u)
    au = system.apply(candidate)

    def shifted(v, target):
        rod2 = v.rod2.copy()
        rod2[0] += target - theta_of(v, l)
        return DofVector(v.rod1.copy(), rod2)

    probes = [shifted(candidate, lo),
              shifted(candidate, hi if math.isfinite(hi) else theta_u + 1.0)]
    if lo <= 2.0 * l <= hi:
        probes.append(shifted(candidate, 2.0 * l))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v = DofVector(candidate.rod1 + rng.normal(0.0, 0.5, mesh.n1),
                      candidate.rod2 + rng.normal(0.0, 0.5, mesh.n2))
        t = theta_of(v, l)
        probes.append(shifted(v, min(max(t, lo), hi)) if not lo <= t <= hi else v)

    values, scale = [], 0.0
    for v in probes:
        d = v - candidate
        terms = (float(au.rod1 @ d.rod1 + au.rod2 @ d.rod2),
                 -force * (theta_of(v, l) - theta_u),
                 -system.load_dot(d))
        values.append(sum(terms))
        scale = max(scale, *map(abs, terms))
    return min(values), scale


class TestViResidualMatchesPerProbeReference:
    @pytest.mark.parametrize("mesh_sizes", [(1, 1), (3, 7), (64, 5)])
    @pytest.mark.parametrize("variant", list(ConstraintVariant))
    def test_exact_and_perturbed_candidates(self, mesh_sizes, variant):
        geo = Geometry(-1.3, 0.9, 0.4)
        spring = SpringLaw(0.7, 1.3, 0.8)
        rng = np.random.default_rng(sum(mesh_sizes))
        for seed, f in enumerate([(2.0, -3.0), (-1.5, 2.5), (6.0, -6.0)]):
            system = assemble(build_mesh(geo, *mesh_sizes), Material(1.7, 0.6),
                              BodyForce(*f))
            sol = solve_exact(schur_reduce(system), spring, variant, geo.l)
            # interior noise plus an equal shift of g1 and g2 keeps the gap
            shift = rng.normal(0.0, 0.1)
            perturbed = DofVector(sol.u.rod1 + rng.normal(0.0, 0.1, mesh_sizes[0]),
                                  sol.u.rod2 + rng.normal(0.0, 0.1, mesh_sizes[1]))
            perturbed.rod1[-1] = sol.u.rod1[-1] + shift
            perturbed.rod2[0] = sol.u.rod2[0] + shift
            for candidate in (sol.u, perturbed):
                for trials in (0, 1, 1000):
                    want, scale = _vi_reference(system, spring, variant, candidate,
                                                trials, seed)
                    got = vi_residual(system, spring, variant, candidate, trials, seed)
                    assert abs(got - want) <= 1e-12 * scale, (candidate, trials)


class TestSolverTriad:
    def test_agreement_with_oracle(self):
        rng = np.random.default_rng(42)
        variants = list(ConstraintVariant)
        cfg = SolverConfig(tolerance=1e-9)
        for i in range(50):
            k1, k2 = rng.uniform(0.05, 1.95, 2)
            f = tuple(rng.uniform(-8.0, 8.0, 2))
            variant = variants[i % 4]
            prob = make_problem(GEO, MAT, SpringLaw(k1, k2, 1.0), BodyForce(*f), variant)
            mesh = build_mesh(GEO, 4, 4)
            system = assemble(mesh, MAT, prob.forces)
            red = schur_reduce(system)
            sols = [
                solve_exact(red, prob.spring, variant, GEO.l),
                solve_projected_gradient(system, prob.spring, variant, config=cfg),
                solve_qvi_fixed_point(system, prob.spring, variant, cfg),
            ]
            exact = analytic_solution(prob)
            states = [(s.g1, s.g2, s.theta, s.s) for s in sols]
            states.append((exact.g1, exact.g2, exact.theta, exact.s))
            for a in states:
                for b in states:
                    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-6, (i, variant)

    def test_agreement_on_asymmetric_rods(self):
        rng = np.random.default_rng(77)
        cfg = SolverConfig(tolerance=1e-10)
        for trial in range(24):
            geo = Geometry(-rng.uniform(0.8, 3.0), rng.uniform(0.7, 2.5),
                           rng.uniform(0.1, 0.45))
            mat = Material(*rng.uniform(0.5, 3.0, 2))
            kmax = (mat.E1 + mat.E2) / (2.0 * geo.L)
            k1, k2 = rng.uniform(0.05, 0.95, 2) * kmax
            f = tuple(rng.uniform(-6.0, 6.0, 2))
            variant = list(ConstraintVariant)[trial % 4]
            prob = make_problem(geo, mat, SpringLaw(k1, k2, 2 * geo.l),
                                BodyForce(*f), variant)
            mesh = build_mesh(geo, 5, 3)
            system = assemble(mesh, mat, prob.forces)
            red = schur_reduce(system)
            quads = [(s.g1, s.g2, s.theta, s.s) for s in (
                solve_exact(red, prob.spring, variant, geo.l),
                solve_projected_gradient(system, prob.spring, variant, config=cfg),
                solve_qvi_fixed_point(system, prob.spring, variant, cfg),
            )]
            ana = analytic_solution(prob)
            quads.append((ana.g1, ana.g2, ana.theta, ana.s))
            for p in quads:
                for q in quads:
                    assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-6

    def test_complementarity_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = rng.uniform(0.05, 1.95)
            f = tuple(rng.uniform(-8.0, 8.0, 2))
            _, system, red, spring = setup_case(k, f)
            sol = solve_exact(red, spring, NP_, GEO.l)
            assert sol.theta >= -1e-10
            excess = sol.s + spring.force(sol.theta)
            assert excess <= 1e-8
            assert abs(excess * sol.theta) <= 1e-8

    def test_energy_optimality(self):
        mesh, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        best = system.energy(sol.u) + spring.potential(sol.theta)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            dof = DofVector(rng.normal(0.0, 0.4, mesh.n1), rng.normal(0.0, 0.4, mesh.n2))
            t = theta_of(dof, GEO.l)
            if t < 0.0:
                rod2 = dof.rod2.copy()
                rod2[0] -= t
                dof = DofVector(dof.rod1, rod2)
            value = system.energy(dof) + spring.potential(theta_of(dof, GEO.l))
            assert best <= value + 1e-10


class TestSolveFrontEnd:
    def test_methods_and_penalty(self):
        prob = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0), NP_)
        for method in ("exact", "gradient", "fixed-point"):
            sol = solve(prob, (4, 4), method)
            assert sol.theta == pytest.approx(0.875, abs=1e-7)
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0), 1.0)
        sol = solve(prob, (4, 4), "exact", penalty=pen)
        assert sol.theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        with pytest.raises(ValueError):
            solve(prob, (4, 4), "fixed-point", penalty=pen)
        with pytest.raises(ValueError):
            solve(prob, (4, 4), "newton")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflow:
    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_overflowing_load(self, method):
        # the condensed load b . ramp overflows at 8+8 elements
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0),
                               BodyForce(1e308, -1e308), NP_)
        with pytest.raises(NoConsistentRegime, match="condensed load"):
            solve(problem, (8, 8), method)

    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_overflowing_field(self, method):
        # finite condensed load, but the recovered field h/E * stress overflows
        problem = make_problem(GEO, Material(1e-300, 1e-300), SpringLaw(1e-301, 1e-301, 1.0),
                               BodyForce(1e10, -1e10), NP_)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            solve(problem, (4, 4), method, SolverConfig(max_iterations=50))


class TestOffsetCache:
    def test_offset_evaluated_once_per_reduced_system(self, monkeypatch):
        original = fem_module.recover_full
        calls = {"fem": [], "solver": []}

        def counting(where):
            def wrapped(reduced, g1, g2):
                calls[where].append(reduced)  # keeps each object alive, so ids stay distinct
                return original(reduced, g1, g2)
            return wrapped

        # the offset is the only caller that goes through the fem namespace
        monkeypatch.setattr(fem_module, "recover_full", counting("fem"))
        monkeypatch.setattr(solver_module, "recover_full", counting("solver"))

        _, system, _, spring = setup_case(1.0, (1.0, -0.5))
        solve_projected_gradient(system, spring, NP_)
        base = make_problem(GEO, MAT, spring, BodyForce(6.0, -6.0), NP_)
        grid = [round(0.1 * i, 10) for i in range(1, 20)]
        sweep = run_stiffness_sweep(base, base.forces, grid)

        assert len(sweep.records) == 19 and not sweep.failures
        assert len(calls["solver"]) == 1 + 19
        systems = {id(reduced) for reduced in calls["solver"]}
        assert len(systems) == 2  # the gradient solve's and the sweep's
        offsets = [id(reduced) for reduced in calls["fem"]]
        assert len(set(offsets)) == len(offsets) and set(offsets) <= systems


def _random_problem(rng, variant):
    l = rng.uniform(0.1, 0.8)
    L1, L2 = rng.uniform(0.25, 1.5, 2)
    E1, E2 = rng.uniform(0.5, 4.0, 2)
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    k1, k2 = rng.uniform(0.02, 0.98, 2) * k_max
    f1, f2 = rng.uniform(-6.0, 6.0, 2)
    return make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                        SpringLaw(k1, k2, 2.0 * l), BodyForce(f1, f2), variant)


def _near_tie(problem, width=1e-6):
    """Whether the problem lies within `width` of a switch between two regimes.

    Computed from the continuum data: the spring-free gap change d and the
    branch gap 2l + d/(1 + k*C) for the side that d points to.
    """
    geo, mat, spring = problem.geometry, problem.material, problem.spring
    lo, hi = problem.gap_bounds()
    if lo == hi:
        return False
    two_l = 2.0 * geo.l
    compliance = geo.L1 / mat.E1 + geo.L2 / mat.E2
    d = (-problem.forces.f1 * geo.L1 ** 2 / (2.0 * mat.E1)
         + problem.forces.f2 * geo.L2 ** 2 / (2.0 * mat.E2))
    k = spring.k1 if d < 0.0 else spring.k2
    branch = two_l + d / (1.0 + k * compliance)
    switches = [x for x in (lo, hi, two_l) if math.isfinite(x)]
    return abs(d) <= width or min(abs(branch - x) for x in switches) <= width


class TestOracleLabelAgreement:
    @pytest.mark.parametrize("mesh", [(1, 1), (7, 3)])
    def test_values_and_regimes_match_oracle(self, mesh):
        rng = np.random.default_rng(20231)
        compared = 0
        for _ in range(300):
            for variant in ConstraintVariant:
                problem = _random_problem(rng, variant)
                sol = solve(problem, mesh)
                want = analytic_solution(problem)
                got = (sol.g1, sol.g2, sol.theta, sol.s)
                expected = (want.g1, want.g2, want.theta, want.s)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (problem, got)
                if _near_tie(problem):
                    continue
                assert sol.diagnostics.regime == want.regime, problem
                compared += 1
        assert compared >= 1150
