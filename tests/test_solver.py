import math
import warnings

import numpy as np
import pytest

from spring_rods import (BodyForce, ConstraintVariant, Geometry,
                         GeometryError, InfeasibleCandidate, Material, NoConsistentRegime,
                         NonPositiveLambda, PenaltyLaw,
                         PenaltyProblem, PenaltyVariant, SolverConfig, SpringLaw, ValidationError,
                         analytic_solution, assemble, build_mesh, effective_spring,
                         interface_stress, make_problem, recover_full, schur_reduce,
                         solve, solve_exact, solve_penalized, solve_projected_gradient,
                         solve_qvi_fixed_point, spring_gap, vi_residual)
import spring_rods.fem as fem_module
import spring_rods.solver as solver_module
from spring_rods import run_stiffness_sweep
from spring_rods.fem import DofVector, v_norm

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
        sol = solve_penalized(red, pen)
        assert sol.s == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert sol.theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert sol.g1 == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_vanishing_penalty_recovers_base_problem(self):
        prob = self.base()
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        base_sol = solve_exact(red, spring, NP_, GEO.l)
        for variant in PenaltyVariant:
            pen = PenaltyProblem(prob, PenaltyLaw(variant, 1.0), 1e6)
            sol = solve_penalized(red, pen)
            assert sol.g1 == pytest.approx(base_sol.g1, abs=1e-5)
            assert sol.g2 == pytest.approx(base_sol.g2, abs=1e-5)

    def test_schedule_tail(self):
        prob = self.base()
        mesh, _, red, spring = setup_case(1.0, (1.0, -1.0))
        law = PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0)
        limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        sol = solve_penalized(red, PenaltyProblem(prob, law, 2.0 ** (3 - 12)))
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
            sol = solve_penalized(red, PenaltyProblem(prob, law, 2.0 ** (3 - n)))
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
            sol = solve_penalized(red, PenaltyProblem(prob, PenaltyLaw(variant, 1.0),
                                                      2.0 ** (3 - 12)))
            assert ok(sol.theta), (variant, sol.theta)

    def test_contact_and_penalty_coexist(self):
        # penalized problems keep the non-penetration bound
        prob = self.base(k=0.1, f=(6.0, -6.0))
        _, _, red, spring = setup_case(0.1, (6.0, -6.0))
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.EXTENSION_ONLY, 1.0), 0.5)
        sol = solve_penalized(red, pen)
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

    @pytest.mark.parametrize("natural_length", [0.3, 1.0 + 1e-9, 7.0])
    def test_law_must_act_around_the_spring_length(self, natural_length):
        # effective_spring reads only the variant, so a law centred elsewhere
        # would be solved as if it were centred at 2l = 1
        law = PenaltyLaw(PenaltyVariant.TWO_SIDED, natural_length)
        with pytest.raises(GeometryError, match="natural length"):
            PenaltyProblem(self.base(), law, 1.0)
        PenaltyProblem(self.base(), PenaltyLaw(PenaltyVariant.TWO_SIDED, 1.0 + 1e-13), 1.0)

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

    @pytest.mark.parametrize("variant", list(PenaltyVariant), ids=lambda v: v.value)
    def test_penalized_route(self, variant):
        # loads that stretch the spring when only extension is penalized
        f = (-1.0, 1.0) if variant is PenaltyVariant.EXTENSION_ONLY else (1.0, -1.0)
        geo = Geometry(-1.3, 0.9, 0.4)
        prob = make_problem(geo, Material(1.7, 0.6), SpringLaw(1.0, 1.0, 0.8), BodyForce(*f),
                            NP_)
        pen = PenaltyProblem(prob, PenaltyLaw(variant, 0.8), 1.0)
        system = assemble(build_mesh(geo, 4, 4), prob.material, prob.forces)
        direct = solve_penalized(schur_reduce(system), pen)
        cfg = SolverConfig(tolerance=1e-11)
        sol = solve_projected_gradient(system, effective_spring(prob.spring, pen.law, pen.lam),
                                       NP_, cfg)
        assert sol.theta == pytest.approx(direct.theta, abs=1e-8)
        exact, gradient = solve(pen, (4, 4), "exact"), solve(pen, (4, 4), "gradient", cfg)
        assert gradient.diagnostics.regime == exact.diagnostics.regime
        assert gradient.theta == pytest.approx(exact.theta, abs=1e-8)

    @pytest.mark.parametrize("geo, mat, spring, forces, mesh, pinned", [
        (GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1e17, -1e17), (4, 4), (0.5, -0.5)),
        (GEO, Material(1.3, 0.7), SpringLaw(0.2, 0.2, 1.0), BodyForce(3e17, -1e17), (4, 4),
         None),
        (Geometry(-1.7559933639808407, 0.9336541472789581, 0.3013650612124187),
         Material(0.018811451504598425, 11.806396544155847),
         SpringLaw(3.8576722781915715, 3.033974192705237, 0.6027301224248374),
         BodyForce(664904701.773039, -1154753447.8249147), (58, 42), None),
    ], ids=("symmetric", "asymmetric", "soft-rod"))
    def test_contact_survives_huge_loads(self, geo, mat, spring, forces, mesh, pinned):
        # the iterates are ~1e16 (1e7 for the soft rod) while the contact gap
        # change is -2l: moving both ends by half the gap error rounded the
        # contact away, and so did recomputing the clamped gap as g2 - g1
        prob = make_problem(geo, mat, spring, forces, NP_)
        exact = solve(prob, mesh, "exact")
        sol = solve(prob, mesh, "gradient")
        assert sol.diagnostics.regime == exact.diagnostics.regime == "contact"
        assert sol.theta == 0.0 and sol.contact
        assert sol.g1 == pytest.approx(exact.g1, rel=1e-12)
        assert sol.g2 == pytest.approx(exact.g2, rel=1e-12)
        if pinned:
            assert (sol.g1, sol.g2) == (exact.g1, exact.g2) == pinned

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


def test_solver_config_rejects_bad_iteration_cap():
    # a NaN cap ran no iteration at all; an int past the float range leaked OverflowError
    for cap in (math.nan, 2.5, 100.0):
        with pytest.raises(ValidationError, match="integer"):
            SolverConfig(max_iterations=cap)
    with pytest.raises(ValidationError, match="finite"):
        SolverConfig(max_iterations=10 ** 400)
    assert SolverConfig(max_iterations=np.int64(3))


@pytest.mark.parametrize("kwargs", [{"tolerance": "1e-8"}], ids=("tolerance",))
def test_solver_config_rejects_non_numbers(kwargs):
    # a str used to reach `<` and escape as a bare TypeError
    with pytest.raises(ValidationError) as info:
        SolverConfig(**kwargs)
    assert not isinstance(info.value, TypeError)


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

    # every solver's gap lies within 1e-11 of the bound at 2l, and d within
    # 1e-9*C of zero: the labeller names the breakpoint first, at the gap 2l.
    # Under the small loads the iterative gaps end 1e-13 inside the bound
    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    @pytest.mark.parametrize("variant, loads", [
        (ConstraintVariant.RIGID_COMPRESSION, (1.0, 1.0)),
        (ConstraintVariant.RIGID_EXTENSION, (1.0, 1.0)),
        (ConstraintVariant.RIGID_COMPRESSION, (-8e-13, 8e-13)),
        (ConstraintVariant.RIGID_EXTENSION, (8e-13, -8e-13))])
    def test_rigid_variant_at_natural_length_is_breakpoint(self, variant, loads, method):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(*loads), variant)
        sol = solve(problem, method=method)
        assert sol.diagnostics.regime == "breakpoint"
        assert sol.active_bound is None
        assert sol.theta == 2.0 * GEO.l
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
        assert spring_gap(GEO.l, bad.g1, bad.g2) < 0.0
        with pytest.raises(InfeasibleCandidate):
            vi_residual(system, spring, NP_, bad)

    def test_certifies_bound_variants(self):
        for variant in ConstraintVariant:
            _, system, red, spring = setup_case(0.8, (2.0, -3.0))
            sol = solve_exact(red, spring, variant, GEO.l)
            assert vi_residual(system, spring, variant, sol.u, trials=300) >= -1e-9

    @pytest.mark.parametrize("trials", [-1, 1.5, True, "10", None], ids=repr)
    def test_trials_must_be_an_integer_at_least_0(self, trials):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        with pytest.raises(ValidationError, match="trials must be an integer >= 0"):
            vi_residual(system, spring, NP_, sol.u, trials=trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True, None], ids=repr)
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            vi_residual(system, spring, NP_, sol.u, trials=10, seed=seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        assert (vi_residual(system, spring, NP_, sol.u, trials=50, seed=np.int64(3))
                == vi_residual(system, spring, NP_, sol.u, trials=50, seed=3))

    def test_no_trials_leaves_the_shifted_probes(self):
        _, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        assert vi_residual(system, spring, NP_, sol.u, trials=np.int64(0)) >= -1e-9

    def test_probe_matrix_cap(self):
        # one more than 2**21 trials is refused before numpy is asked for the
        # draws (10**12 trials would need 22 TiB), on 8 DOFs as on 2
        for n in (4, 1):
            _, system, red, spring = setup_case(1.0, (1.0, -1.0), n)
            sol = solve_exact(red, spring, NP_, GEO.l)
            for trials in (2 ** 21 + 1, 10 ** 12):
                with pytest.raises(ValidationError, match="trials limited to 2\\*\\*21, got"):
                    vi_residual(system, spring, NP_, sol.u, trials=trials)


def _vi_reference(system, spring, variant, candidate, trials, seed):
    """Per-probe VI values, one DofVector per probe, in the draw order of the rng.

    Each trial draws its g1 entry a, its g2 entry b and z; its off-gap
    entries are z times the unit vector of c_rest, the off-gap part of
    A u - f, so they contribute z*|c_rest| to the VI value, a draw of the
    law of the full normal row they stand for.  Returns the minimum value
    and the largest term magnitude met, the scale against which round-off
    differences are measured.
    """
    mesh = system.mesh
    n1 = mesh.n1
    l = mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta_u = spring_gap(l, candidate.g1, candidate.g2)
    force = spring.force(theta_u)
    au = system.apply(candidate)
    c_rest = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
    c_rest[n1 - 1] = c_rest[n1] = 0.0
    norm = math.sqrt(float(c_rest @ c_rest))
    unit = c_rest / norm if norm > 0.0 else c_rest

    def shifted(v, target):
        rod2 = v.rod2.copy()
        rod2[0] += target - spring_gap(l, v.g1, v.g2)
        return DofVector(v.rod1.copy(), rod2)

    probes = [shifted(candidate, lo),
              shifted(candidate, hi if math.isfinite(hi) else theta_u + 1.0)]
    if lo <= 2.0 * l <= hi:
        probes.append(shifted(candidate, 2.0 * l))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        a, b, z = rng.normal(0.0, 0.5, 3)
        d = z * unit
        d[n1 - 1], d[n1] = a, b
        v = DofVector(candidate.rod1 + d[:n1], candidate.rod2 + d[n1:])
        t = spring_gap(l, v.g1, v.g2)
        probes.append(shifted(v, min(max(t, lo), hi)) if not lo <= t <= hi else v)

    values, scale = [], 0.0
    for v in probes:
        d = v - candidate
        terms = (float(au.rod1 @ d.rod1 + au.rod2 @ d.rod2),
                 -force * (spring_gap(l, v.g1, v.g2) - theta_u),
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


def _full_row_minimum(system, spring, variant, candidate, trials, seed):
    """vi_residual as one product of a trials x (n1+n2) normal matrix with c.

    This draws every entry of every direction; vi_residual draws one normal
    for the off-gap part of each direction, whose law this reference keeps.
    """
    mesh = system.mesh
    n1 = mesh.n1
    l = mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta_u = spring_gap(l, candidate.g1, candidate.g2)
    force = spring.force(theta_u)
    au = system.apply(candidate)
    c = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
    c[n1 - 1] += force
    c[n1] -= force
    targets = [lo, hi if math.isfinite(hi) else theta_u + 1.0]
    if lo <= 2.0 * l <= hi:
        targets.append(2.0 * l)
    shifted = min(c[n1] * (target - theta_u) for target in targets)
    D = np.random.default_rng(seed).normal(0.0, 0.5, (trials, n1 + mesh.n2))
    t = theta_u - D[:, n1 - 1] + D[:, n1]
    D[:, n1] += np.clip(t, lo, hi) - t
    return float(min(shifted, np.min(D @ c, initial=np.inf)))


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap of the two ECDFs."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate((x, y))
    return float(np.max(np.abs(np.searchsorted(x, at, side="right") / x.size
                               - np.searchsorted(y, at, side="right") / y.size)))


class TestViResidualKeepsTheFullRowLaw:
    SEEDS = 2000
    TRIALS = 50

    @pytest.mark.parametrize("mesh_sizes, variant", [
        ((3, 7), ConstraintVariant.FULLY_RIGID),
        ((64, 5), ConstraintVariant.NON_PENETRATION),
        ((40, 40), ConstraintVariant.RIGID_EXTENSION)])
    def test_minima_have_the_law_of_full_normal_rows(self, mesh_sizes, variant):
        geo = Geometry(-1.3, 0.9, 0.4)
        spring = SpringLaw(0.7, 1.3, 0.8)
        system = assemble(build_mesh(geo, *mesh_sizes), Material(1.7, 0.6),
                          BodyForce(2.0, -3.0))
        sol = solve_exact(schur_reduce(system), spring, variant, geo.l)
        rng = np.random.default_rng(sum(mesh_sizes))
        candidate = DofVector(sol.u.rod1 + rng.normal(0.0, 0.1, mesh_sizes[0]),
                              sol.u.rod2 + rng.normal(0.0, 0.1, mesh_sizes[1]))
        candidate.rod1[-1], candidate.rod2[0] = sol.u.g1, sol.u.g2  # the exact gap
        n = self.SEEDS
        new = [vi_residual(system, spring, variant, candidate, self.TRIALS, seed)
               for seed in range(n)]
        old = [_full_row_minimum(system, spring, variant, candidate, self.TRIALS, seed)
               for seed in range(n, 2 * n)]
        # the random probes, not the shifted ones, set every minimum
        floor = vi_residual(system, spring, variant, candidate, trials=0)
        assert max(new) < floor and max(old) < floor
        # critical value of the two-sample statistic at alpha = 0.001, equal sizes
        critical = math.sqrt(-0.5 * math.log(0.001 / 2)) * math.sqrt(2 / n)
        assert _ks_statistic(new, old) < critical


class TestViResidualNonFinite:
    def _solved(self):
        geo = Geometry(-1.3, 0.9, 0.4)
        spring = SpringLaw(0.7, 1.3, 0.8)
        system = assemble(build_mesh(geo, 6, 6), Material(1.7, 0.6), BodyForce(2.0, -3.0))
        return system, spring, solve_exact(schur_reduce(system), spring, NP_, geo.l).u

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_candidate_is_refused(self, value):
        system, spring, u = self._solved()
        bad = DofVector(u.rod1.copy(), u.rod2.copy())
        bad.rod1[0] = value
        with pytest.raises(ValidationError, match="non-finite"):
            vi_residual(system, spring, NP_, bad)

    @pytest.mark.parametrize("signs", [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    def test_overflowing_stiffness_product_certifies_nothing(self, signs):
        # A u overflows to inf or NaN in the rows next to the huge entries
        system, spring, u = self._solved()
        huge = DofVector(u.rod1.copy(), u.rod2.copy())
        huge.rod1[1:3] = np.array(signs) * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert vi_residual(system, spring, NP_, huge) == -math.inf

    def test_off_gap_norm_past_dbl_max_certifies_nothing(self):
        # A u is finite (entries up to 1.4e308) but the norm of its off-gap part is not
        system, spring, u = self._solved()
        big = DofVector(u.rod1.copy(), u.rod2.copy())
        big.rod1[:4] = np.array([1.0, -1.0, 1.0, -1.0]) * 3e306
        assert np.all(np.isfinite(system.apply(big).rod1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert vi_residual(system, spring, NP_, big, trials=0) > -1.0
            assert vi_residual(system, spring, NP_, big) == -math.inf


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
            t = spring_gap(GEO.l, dof.g1, dof.g2)
            if t < 0.0:
                rod2 = dof.rod2.copy()
                rod2[0] -= t
                dof = DofVector(dof.rod1, rod2)
            value = system.energy(dof) + spring.potential(spring_gap(GEO.l, dof.g1, dof.g2))
            assert best <= value + 1e-10


class TestSolveFrontEnd:
    def test_methods_and_penalty(self):
        prob = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0), NP_)
        for method in ("exact", "gradient", "fixed-point"):
            sol = solve(prob, (4, 4), method)
            assert sol.theta == pytest.approx(0.875, abs=1e-7)
        pen = PenaltyProblem(prob, PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0), 1.0)
        sol = solve(pen, (4, 4), "exact")
        assert sol.theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        with pytest.raises(ValueError):
            solve(pen, (4, 4), "fixed-point")
        with pytest.raises(ValueError):
            solve(prob, (4, 4), "newton")


class TestOverflow:
    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_overflowing_load(self, method):
        # every nodal load f1*h1 = 1.5625e308 is finite, but the condensed
        # load r1 = f1*L1/2 = 5e309 is not
        problem = make_problem(Geometry(-1e10 - 0.5, 1.0, 0.5), MAT,
                               SpringLaw(1e-11, 1e-11, 1.0), BodyForce(1e300, -1e300), NP_)
        with pytest.raises(NoConsistentRegime, match="condensed load"):
            solve(problem, (64, 64), method)

    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_representable_load_with_overflowing_sum(self, method):
        # at 8+8 the integer-weighted sum b . (n * ramp) overflows, r = 2.5e307 does not
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0),
                               BodyForce(1e308, -1e308), NP_)
        coarse, fine = solve(problem, (4, 4), method), solve(problem, (8, 8), method)
        assert (fine.g1, fine.g2, fine.s) == (coarse.g1, coarse.g2, coarse.s) == (0.5, -0.5, -2.5e307)

    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_overflowing_field(self, method):
        # finite condensed load, but the recovered field h/E * stress overflows
        problem = make_problem(GEO, Material(1e-300, 1e-300), SpringLaw(1e-301, 1e-301, 1.0),
                               BodyForce(1e10, -1e10), NP_)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            solve(problem, (4, 4), method, SolverConfig(max_iterations=50))

    def test_gradient_stops_on_a_nan_step(self, monkeypatch):
        # the first step overflows the iterates; a NaN step norm ends the loop
        # at once instead of after all max_iterations of the default config
        steps = []
        real = fem_module.ReducedSystem.interface_vnorm
        monkeypatch.setattr(fem_module.ReducedSystem, "interface_vnorm",
                            lambda self, dg: steps.append(dg) or real(self, dg))
        problem = make_problem(GEO, Material(1e-300, 1e-300), SpringLaw(1e-301, 1e-301, 1.0),
                               BodyForce(1e10, -1e10), NP_)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            solve(problem, (4, 4), "gradient")
        assert 1 <= len(steps) <= 3

    def test_fixed_point_stops_on_a_nan_step(self, monkeypatch):
        # the first relaxed gap overflows and its pair's step norm is NaN: the
        # loop ends there instead of after all max_iterations of the default config
        steps = []
        real = fem_module.ReducedSystem.interface_vnorm
        monkeypatch.setattr(fem_module.ReducedSystem, "interface_vnorm",
                            lambda self, dg: steps.append(dg) or real(self, dg))
        problem = make_problem(GEO, Material(0.01, 0.01), SpringLaw(0.004, 0.004, 1.0),
                               BodyForce(-1e307, 1e307), NP_)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            solve(problem, (4, 4), "fixed-point")
        assert 1 <= len(steps) <= 2

    def test_gradient_keeps_iterating_on_an_infinite_step(self):
        # |dg| > 1e154 squares to an infinite step norm between finite
        # iterates: that is no reason to stop early
        problem = make_problem(GEO, Material(1e3, 1e3), SpringLaw(300.0, 300.0, 1.0),
                               BodyForce(1e200, -1e200), NP_)
        sol = solve(problem, (4, 4), "gradient", SolverConfig(max_iterations=40))
        assert math.isfinite(sol.g1) and math.isfinite(sol.g2)
        assert (sol.diagnostics.iterations, sol.diagnostics.converged) == (40, False)


@pytest.mark.parametrize("scale", [1e17, 1e307])
@pytest.mark.parametrize("geo, mat, spring", [
    (GEO, MAT, SpringLaw(1.0, 1.0, 1.0)),
    (Geometry(-1.3, 0.9, 0.4), Material(1.7, 0.6), SpringLaw(0.3, 0.5, 0.8)),
], ids=("symmetric", "asymmetric"))
def test_fixed_point_keeps_contact_at_huge_loads(geo, mat, spring, scale):
    # the gap was recomputed as 2l + (g2 - g1) from rod ends of size f*L^2/E,
    # which rounded contact into compression at theta = -0.2 (asymmetric, 1e17)
    prob = make_problem(geo, mat, spring, BodyForce(scale, -scale), NP_)
    exact = solve(prob, (4, 4), "exact")
    sol = solve(prob, (4, 4), "fixed-point")
    assert sol.diagnostics.regime == exact.diagnostics.regime == "contact"
    assert sol.diagnostics.converged
    assert sol.theta == 0.0 and sol.contact
    assert (sol.g1, sol.s) == (exact.g1, exact.s)


class TestOffsetCache:
    def test_offset_evaluated_once_per_reduced_system(self, monkeypatch):
        original = fem_module.recover_full
        calls = {"fem": [], "solver": []}

        def counting(where):
            def wrapped(reduced, g1, g2):
                calls[where].append(reduced)  # keeps each object alive, so ids stay distinct
                return original(reduced, g1, g2)
            return wrapped

        # the pinned field behind the offset is the only recovery through the fem namespace
        monkeypatch.setattr(fem_module, "recover_full", counting("fem"))
        monkeypatch.setattr(solver_module, "recover_full", counting("solver"))

        _, system, _, spring = setup_case(1.0, (1.0, -0.5))
        solve_projected_gradient(system, spring, NP_)
        base = make_problem(GEO, MAT, spring, BodyForce(6.0, -6.0), NP_)
        grid = [round(0.1 * i, 10) for i in range(1, 20)]
        sweep = run_stiffness_sweep(base, base.forces, grid)

        assert len(sweep.records) == 19 and not sweep.failures
        assert len(calls["solver"]) == 1  # the gradient solve's: a sweep point recovers none
        systems = {id(reduced) for reduced in calls["solver"] + calls["fem"]}
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


# ---------------------------------------------------------------------------
# pinned results: a rewrite of the interface arithmetic must not move a bit

PIN_GEO = Geometry(-1.3, 0.9, 0.4)
PIN_MAT = Material(1.7, 0.6)
PIN_SPRING = SpringLaw(0.3, 0.7, 0.8)
_V = ConstraintVariant
_P = PenaltyVariant

#: name -> (variant, loads, mesh, method, (penalty variant, lam) or None)
PIN_CASES = {
    "contact": (NP_, (8.0, -8.0), (3, 7), "exact", None),
    "compression-1x1": (NP_, (1.0, -0.5), (1, 1), "exact", None),
    "extension-64x5": (NP_, (-1.0, 1.5), (64, 5), "exact", None),
    "bound-lower": (_V.RIGID_COMPRESSION, (2.5, -1.5), (3, 7), "exact", None),
    "bound-upper": (_V.RIGID_EXTENSION, (-2.0, 2.0), (3, 7), "exact", None),
    "rigid": (_V.FULLY_RIGID, (2.5, -1.5), (3, 7), "exact", None),
    "penalty-compression": (NP_, (2.5, -1.5), (3, 7), "exact", (_P.COMPRESSION_ONLY, 0.01)),
    "penalty-extension": (NP_, (-2.0, 3.0), (64, 5), "exact", (_P.EXTENSION_ONLY, 0.5)),
    "penalty-two-sided": (NP_, (2.5, -1.5), (1, 1), "exact", (_P.TWO_SIDED, 1e-3)),
    "fixed-point": (NP_, (2.5, -1.5), (3, 7), "fixed-point", None),
    "fixed-point-upper": (_V.RIGID_EXTENSION, (-2.0, 2.0), (64, 5), "fixed-point", None),
    "gradient": (NP_, (2.5, -1.5), (3, 7), "gradient", None),
    "gradient-contact": (NP_, (8.0, -8.0), (64, 5), "gradient", None),
}

#: name -> (regime, iterations, float.hex of g1, g2, theta, s)
PINNED = {
    "contact": ("contact", 0, "0x1.a85574c3f5afbp-1", "0x1.d77b654b82c20p-6",
                "0x0.0p+0", "-0x1.046b8e8cb539cp+1"),
    "compression-1x1": ("compression", 0, "0x1.98da0de54714fp-3", "-0x1.6395d2c00b66cp-5",
                        "0x1.1d29b8f4471e0p-1", "-0x1.2aa61b265f8ecp-4"),
    "extension-64x5": ("extension", 0, "-0x1.11fba1f993d88p-3", "0x1.2f44fa3842cb6p-3",
                       "0x1.14f4e05307a15p+0", "0x1.9413a0894972ap-3"),
    "bound-lower": ("bound-lower", 0, "0x1.f14424d5a3e9fp-3", "0x1.f14424d5a3e9fp-3",
                    "0x1.999999999999ap-1", "-0x1.552e0b0ce45fcp-1"),
    "bound-upper": ("bound-upper", 0, "-0x1.093568fa798dcp-3", "-0x1.093568fa798dcp-3",
                    "0x1.999999999999ap-1", "0x1.4f9005e4be10fp-1"),
    "rigid": ("rigid", 0, "0x1.f14424d5a3e9fp-3", "0x1.f14424d5a3e9fp-3",
              "0x1.999999999999ap-1", "-0x1.552e0b0ce45fcp-1"),
    "penalty-compression": ("compression", 0, "0x1.f683837b8ca7dp-3", "0x1.e9019497991dep-3",
                            "0x1.96391de09cb72p-1", "-0x1.52b3ac93e1228p-1"),
    "penalty-extension": ("extension", 0, "-0x1.1ebb9d86ad74bp-3", "0x1.86ad74a7fc23ap-4",
                          "0x1.090f17c8223dap+0", "0x1.4565fb4d33c79p-1"),
    "penalty-two-sided": ("compression", 0, "0x1.f1cbbabf2df2cp-3", "0x1.f06eb8dc8d021p-3",
                          "0x1.99425920f15d7p-1", "-0x1.54ee04422a4d6p-1"),
    "fixed-point": ("compression", 16, "0x1.f90d5c78ac909p-2", "-0x1.35faa7dab6f66p-3",
                    "0x1.3e51059a564f0p-3", "-0x1.8c0669c657a50p-3"),
    "fixed-point-upper": ("bound-upper", 2, "-0x1.093568fa798dep-3", "-0x1.093568fa798dep-3",
                          "0x1.999999999999ap-1", "0x1.4f9005e4be110p-1"),
    # the projected gradient's values are only as exact as its tolerance
    "gradient": ("compression", 28),
    "gradient-contact": ("contact", 29),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_pinned_results(name):
    variant, loads, mesh_sizes, method, penalty = PIN_CASES[name]
    prob = make_problem(PIN_GEO, PIN_MAT, PIN_SPRING, BodyForce(*loads), variant)
    if penalty is not None:
        prob = PenaltyProblem(prob, PenaltyLaw(penalty[0], 0.8), penalty[1])
    sol = solve(prob, mesh_sizes, method)
    regime, iterations, *values = PINNED[name]
    assert (sol.diagnostics.regime, sol.diagnostics.iterations) == (regime, iterations)
    assert [x.hex() for x in (sol.g1, sol.g2, sol.theta, sol.s)][:len(values)] == values


@pytest.mark.parametrize("f", [5.5999999972, 5.599999999])
@pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
def test_contact_flag_is_the_contact_regime(method, f):
    # the exact gaps, 5e-10 and 1.8e-10, lie above the 1e-11 snap to the contact bound
    problem = make_problem(GEO, MAT, SpringLaw(0.4, 0.4, 1.0), BodyForce(f, -f), NP_)
    sol = solve(problem, (4, 4), method)
    assert sol.contact == (sol.diagnostics.regime == "contact")
