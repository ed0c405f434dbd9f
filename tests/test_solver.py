import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spring_rods import (BodyForce, ConstraintVariant, Geometry,
                         GeometryError, InfeasibleCandidate, Material, NoConsistentRegime,
                         NonPositiveLambda,
                         PenaltyProblem, PenaltyVariant, SolverConfig, SpringLaw, ValidationError,
                         analytic_solution, assemble, build_mesh, effective_spring,
                         interface_stress, make_problem, recover_full, schur_reduce,
                         solve, solve_exact, solve_penalized, solve_projected_gradient,
                         solve_qvi_fixed_point, vi_residual)
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

    def test_half_gap_of_another_mesh_is_refused(self):
        # the mesh's half-gap is 0.5: 0.7 would set the bounds and 2l of another geometry
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        with pytest.raises(ValidationError, match="half-gap"):
            solve_exact(red, spring, NP_, 0.7)

    def test_scaling_exact_in_linear_regime(self):
        # doubling the load scales the linear-regime response exactly
        _, _, red1, spring = setup_case(0.8, (1.0, -0.5))
        _, _, red2, _ = setup_case(0.8, (2.0, -1.0))
        a = solve_exact(red1, spring, NP_, GEO.l)
        b = solve_exact(red2, spring, NP_, GEO.l)
        assert b.g1 == 2.0 * a.g1
        assert b.g2 == 2.0 * a.g2
        assert b.s == 2.0 * a.s


#: Each entry point that meets a spring with a mesh, called on the unloaded 4+4 system;
#: the penalty's base problem is posed on the spring's own gap.
_SPRING_ON_MESH = {
    "solve_exact": lambda system, spring: solve_exact(schur_reduce(system), spring, NP_, GEO.l),
    "solve_penalized": lambda system, spring: solve_penalized(schur_reduce(system), PenaltyProblem(
        make_problem(Geometry(-1.0, 1.0, 0.5 * spring.natural_length), MAT, spring,
                     BodyForce(0.0, 0.0)), PenaltyVariant.TWO_SIDED, 1.0)),
    "solve_projected_gradient": lambda system, spring: solve_projected_gradient(
        system, spring, NP_),
    "solve_qvi_fixed_point": lambda system, spring: solve_qvi_fixed_point(system, spring, NP_),
    "vi_residual": lambda system, spring: vi_residual(
        system, spring, NP_, DofVector(np.zeros(4), np.zeros(4))),
}


@pytest.mark.parametrize("shift", [5e-13, math.ulp(1.0), -0.2])
@pytest.mark.parametrize("call", sorted(_SPRING_ON_MESH))
def test_a_spring_off_the_mesh_gap_is_refused(call, shift):
    # the gap bounds and every branch label sit at the mesh's 2l = 1, so a
    # spring bent elsewhere, even by a rounding, would pose a second problem
    _, system, _, _ = setup_case()
    with pytest.raises(GeometryError, match="natural length"):
        _SPRING_ON_MESH[call](system, SpringLaw(1.0, 1.0, 1.0 + shift))


class TestSolvePenalized:
    def base(self, k=1.0, f=(1.0, -1.0)):
        return make_problem(GEO, MAT, SpringLaw(k, k, 1.0), BodyForce(*f), NP_)

    def test_unit_parameter_adds_unit_stiffness(self):
        prob = self.base()
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        pen = PenaltyProblem(prob, PenaltyVariant.COMPRESSION_ONLY, 1.0)
        sol = solve_penalized(red, pen)
        assert sol.s == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert sol.theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert sol.g1 == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_vanishing_penalty_recovers_base_problem(self):
        prob = self.base()
        _, _, red, spring = setup_case(1.0, (1.0, -1.0))
        base_sol = solve_exact(red, spring, NP_, GEO.l)
        for variant in PenaltyVariant:
            pen = PenaltyProblem(prob, variant, 1e6)
            sol = solve_penalized(red, pen)
            assert sol.g1 == pytest.approx(base_sol.g1, abs=1e-5)
            assert sol.g2 == pytest.approx(base_sol.g2, abs=1e-5)

    def test_schedule_tail(self):
        prob = self.base()
        mesh, _, red, spring = setup_case(1.0, (1.0, -1.0))
        penalty = PenaltyVariant.COMPRESSION_ONLY
        limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        sol = solve_penalized(red, PenaltyProblem(prob, penalty, 2.0 ** (3 - 12)))
        assert abs(sol.theta - 1.0) <= 2e-3
        assert v_norm(mesh, sol.u - limit.u) <= 5e-3

    def test_schedule_values_and_monotone_error(self):
        # frozen closed form: theta_n = (0.75 + K)/(1 + K), K = 1 + 2**(n-3)
        prob = self.base()
        mesh, _, red, spring = setup_case(1.0, (1.0, -1.0))
        penalty = PenaltyVariant.COMPRESSION_ONLY
        limit = solve_exact(red, spring, ConstraintVariant.RIGID_COMPRESSION, GEO.l)
        errors = []
        for n in range(1, 13):
            sol = solve_penalized(red, PenaltyProblem(prob, penalty, 2.0 ** (3 - n)))
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
            sol = solve_penalized(red, PenaltyProblem(prob, variant,
                                                      2.0 ** (3 - 12)))
            assert ok(sol.theta), (variant, sol.theta)

    def test_contact_and_penalty_coexist(self):
        # penalized problems keep the non-penetration bound
        prob = self.base(k=0.1, f=(6.0, -6.0))
        _, _, red, spring = setup_case(0.1, (6.0, -6.0))
        pen = PenaltyProblem(prob, PenaltyVariant.EXTENSION_ONLY, 0.5)
        sol = solve_penalized(red, pen)
        assert sol.theta == 0.0
        assert sol.contact

    def test_nonpositive_lambda(self):
        # effective_spring takes the same check: a zero lam leaked ZeroDivisionError
        penalty = PenaltyVariant.TWO_SIDED
        for lam in (0.0, -1.0, math.inf, math.nan, "x"):
            with pytest.raises(NonPositiveLambda):
                PenaltyProblem(self.base(), penalty, lam)
            with pytest.raises(NonPositiveLambda):
                effective_spring(SpringLaw(1.0, 0.5, 1.0), penalty, lam)

    def test_base_must_be_non_penetration(self):
        rigid = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(0.0, 0.0),
                             ConstraintVariant.FULLY_RIGID)
        with pytest.raises(ValueError):
            PenaltyProblem(rigid, PenaltyVariant.TWO_SIDED, 1.0)

    def test_effective_spring_sides(self):
        spring = SpringLaw(1.0, 0.5, 1.0)
        comp = effective_spring(spring, PenaltyVariant.COMPRESSION_ONLY, 0.25)
        assert (comp.k1, comp.k2) == (5.0, 0.5)
        ext = effective_spring(spring, PenaltyVariant.EXTENSION_ONLY, 0.25)
        assert (ext.k1, ext.k2) == (1.0, 4.5)
        both = effective_spring(spring, PenaltyVariant.TWO_SIDED, 0.25)
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
        pen = PenaltyProblem(prob, variant, 1.0)
        system = assemble(build_mesh(geo, 4, 4), prob.material, prob.forces)
        direct = solve_penalized(schur_reduce(system), pen)
        cfg = SolverConfig(tolerance=1e-11)
        sol = solve_projected_gradient(system, effective_spring(prob.spring, pen.variant, pen.lam),
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
    """Ties at the natural length, and gaps just off it."""

    # equal loads on the symmetric problem make d exactly zero: every solver and
    # the oracle name the breakpoint, at the gap 2l and with no active bound
    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    @pytest.mark.parametrize("variant, loads", [
        (ConstraintVariant.RIGID_COMPRESSION, (1.0, 1.0)),
        (ConstraintVariant.RIGID_EXTENSION, (1.0, 1.0))])
    def test_rigid_variant_at_natural_length_is_breakpoint(self, variant, loads, method):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(*loads), variant)
        sol = solve(problem, method=method)
        assert sol.diagnostics.regime == "breakpoint"
        assert sol.active_bound is None
        assert sol.theta == 2.0 * GEO.l
        assert sol.diagnostics.regime == analytic_solution(problem).regime

    # loads of 8e-13 move the gap 1e-13 off 2l, away from any bound: every solver
    # and the oracle name the free side the clamp left alone, with no tolerance
    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    @pytest.mark.parametrize("variant, loads, free", [
        (ConstraintVariant.RIGID_COMPRESSION, (-8e-13, 8e-13), "extension"),
        (ConstraintVariant.RIGID_EXTENSION, (8e-13, -8e-13), "compression"),
        (ConstraintVariant.NON_PENETRATION, (-8e-13, 8e-13), "extension")])
    def test_small_loads_off_natural_length_keep_each_solvers_label(self, variant, loads,
                                                                     free, method):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(*loads), variant)
        sol, ref = solve(problem, method=method), analytic_solution(problem)
        shift = 1.0e-13 if free == "extension" else -1.0e-13
        # to two roundings of the gap at 2l: fixed-point stops after one step
        for regime, theta in ((sol.diagnostics.regime, sol.theta), (ref.regime, ref.theta)):
            assert regime == free
            assert math.isclose(theta - 2.0 * GEO.l, shift, abs_tol=2.0 * math.ulp(2.0 * GEO.l))
        assert sol.active_bound is None

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
        assert 2.0 * GEO.l - bad.g1 + bad.g2 < 0.0
        with pytest.raises(InfeasibleCandidate):
            vi_residual(system, spring, NP_, bad)

    def test_certifies_bound_variants(self):
        for variant in ConstraintVariant:
            _, system, red, spring = setup_case(0.8, (2.0, -3.0))
            sol = solve_exact(red, spring, variant, GEO.l)
            assert vi_residual(system, spring, variant, sol.u, trials=300) >= -1e-9

    @pytest.mark.parametrize("rod1", [np.zeros(3), np.zeros(0), np.zeros((2, 2)), [0.0] * 4],
                             ids=["short", "empty", "2x2", "list"])
    def test_mis_shaped_candidate_is_refused(self, rod1):
        _, system, _, spring = setup_case(1.0, (1.0, -1.0))
        with pytest.raises(ValidationError, match=r"shapes \(4,\) and \(4,\)"):
            vi_residual(system, spring, NP_, DofVector(rod1, np.zeros(4)))

    # c = A u - f on a 2+2 mesh as (c_0, c_a, c_b, c_3), with the least value of c.d
    # over the feasible unit directions, per variant: at the candidate u = 0 the
    # gap is 2l, the lower bound of rigid-compression, the upper one of
    # rigid-extension, both of fully-rigid and neither of non-penetration
    HAND_BUILT = [
        ((3.0, 0.0, 0.0, 0.0), {"non-penetration": -3.0, "rigid-compression": -3.0,
                                "rigid-extension": -3.0, "fully-rigid": -3.0}),
        ((0.0, -1.0, 1.0, 0.0), {"non-penetration": -1.0, "rigid-compression": 0.0,
                                 "rigid-extension": -1.0, "fully-rigid": 0.0}),
        ((0.0, 1.0, -1.0, 0.0), {"non-penetration": -1.0, "rigid-compression": -1.0,
                                 "rigid-extension": 0.0, "fully-rigid": 0.0}),
        ((0.5, -1.0, 3.0, -0.25), {"non-penetration": -3.0, "rigid-compression": -1.0,
                                   "rigid-extension": -3.0, "fully-rigid": -1.0}),
    ]

    @pytest.mark.parametrize("c, want", HAND_BUILT, ids=["off-gap", "mu>0", "mu<0", "tau"])
    @pytest.mark.parametrize("variant", list(ConstraintVariant), ids=lambda v: v.value)
    def test_exact_value_on_a_hand_built_c(self, c, want, variant):
        # on 2+2 elements with E/h = 4 the field u1 = (x, 0), u2 = (0, y) keeps the
        # spring at its natural length, and with x = c0/16 - c1/8, y = c3/16 - c2/8
        # the loads f1 = -2(c0 + 2c1), f2 = -2(2c2 + c3) make A u - b this c, exactly
        c0, c1, c2, c3 = c
        system = assemble(build_mesh(GEO, 2, 2), MAT,
                          BodyForce(-2.0 * (c0 + 2.0 * c1), -2.0 * (2.0 * c2 + c3)))
        u = DofVector(np.array([c0 / 16 - c1 / 8, 0.0]), np.array([0.0, c3 / 16 - c2 / 8]))
        au = system.apply(u)
        assert [*(au.rod1 - system.b1), *(au.rod2 - system.b2)] == list(c)
        assert vi_residual(system, SpringLaw(1.0, 1.0, 1.0), variant, u) == want[variant.value]


#: Asymmetric rods, f1 = -f2 = f: at these loads the certificate with an absolute
#: gap tolerance refused the exact solution as infeasible or flagged it.
LARGE_LOADS = (Geometry(-1.3, 0.9, 0.4), Material(1.7, 0.6), SpringLaw(0.3, 0.5, 0.8), (3, 7))


def _rounding_scale(geo, f, mesh_sizes):
    """64*(n1 + n2)*eps times the load scale max(|f1| L1, |f2| L2, 1), and that scale."""
    scale = max(abs(f.f1) * geo.L1, abs(f.f2) * geo.L2, 1.0)
    return 64 * sum(mesh_sizes) * sys.float_info.epsilon * scale, scale


@pytest.mark.parametrize("f", [1e10, 1e13, 1e15, 1e17])
@pytest.mark.parametrize("variant", list(ConstraintVariant), ids=lambda v: v.value)
def test_certifies_exact_solves_at_large_loads(f, variant):
    geo, mat, spring, mesh_sizes = LARGE_LOADS
    system = assemble(build_mesh(geo, *mesh_sizes), mat, BodyForce(f, -f))
    sol = solve_exact(schur_reduce(system), spring, variant, geo.l)
    rounding, _ = _rounding_scale(geo, BodyForce(f, -f), mesh_sizes)
    assert vi_residual(system, spring, variant, sol.u) >= -rounding


def test_certifies_the_clamp_of_a_small_spring_free_gap_change():
    # |d| is far below 1e-9*C, yet the exact gap change is the clamp's, as in the
    # closed form: a tie t = 0 here would leave a multiplier of |d|/C
    problem = make_problem(Geometry(-1.5, 1.5, 0.5), MAT, SpringLaw(0.5, 0.5, 1.0),
                           BodyForce(9.84e-12, 0.0), NP_)
    sol = solve(problem, (1, 1))
    assert sol.theta - 1.0 == analytic_solution(problem).theta - 1.0 == -2.460032177964422e-12
    system = assemble(build_mesh(problem.geometry, 1, 1), MAT, problem.forces)
    rounding, _ = _rounding_scale(problem.geometry, problem.forces, (1, 1))
    assert vi_residual(system, problem.spring, NP_, sol.u) >= -rounding


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(l=st.floats(0.2, 0.8), L1=st.floats(0.5, 1.5), L2=st.floats(0.5, 1.5),
       log_E1=st.floats(math.log(0.5), math.log(4.0)),
       log_E2=st.floats(math.log(0.5), math.log(4.0)),
       q1=st.floats(0.05, 0.95), q2=st.floats(0.05, 0.95),
       f1=st.floats(-8.0, 8.0), f2=st.floats(-8.0, 8.0),
       variant=st.sampled_from(list(ConstraintVariant)),
       n1=st.integers(1, 299), n2=st.integers(1, 299))
def test_certificate_passes_solves_and_flags_perturbations(l, L1, L2, log_E1, log_E2, q1, q2,
                                                           f1, f2, variant, n1, n2):
    E1, E2 = math.exp(log_E1), math.exp(log_E2)
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    problem = make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                           SpringLaw(q1 * k_max, q2 * k_max, 2.0 * l), BodyForce(f1, f2),
                           variant)
    mesh_sizes = (n1, n2)
    rounding, scale = _rounding_scale(problem.geometry, problem.forces, mesh_sizes)
    system = assemble(build_mesh(problem.geometry, *mesh_sizes), problem.material,
                      problem.forces)
    reduced = schur_reduce(system)

    def certify(u):
        return vi_residual(system, problem.spring, variant, u)

    sol = solve(problem, mesh_sizes)
    assert certify(sol.u) >= -rounding
    for method in ("gradient", "fixed-point"):
        iterative = solve(problem, mesh_sizes, method, SolverConfig(tolerance=1e-10))
        assert certify(iterative.u) >= -1e-8 * scale, method

    flagged = -1e-8 * scale
    u = sol.u
    if n1 + n2 > 2:  # a 1e-6 nudge of a node off the gap
        nudged = DofVector(u.rod1.copy(), u.rod2.copy())
        if n1 > 1:
            nudged.rod1[0] += 1e-6
        else:
            nudged.rod2[-1] += 1e-6
        assert certify(nudged) < flagged
    lo, hi = variant.bounds(l)
    if lo == hi:  # fully-rigid admits no gap change
        return
    shifted = DofVector(u.rod1.copy(), u.rod2.copy())  # a 1e-6 shift of g2 toward the far bound
    shifted.rod2[0] += -1e-6 if sol.theta > 0.5 * (lo + hi) else 1e-6
    assert certify(shifted) < flagged
    (s1, s2), (r1, r2) = reduced.S, reduced.r
    for bound in (lo, hi):
        if math.isfinite(bound) and abs(sol.theta - bound) > 1e-3:
            # the field pinned at a bound that the solution does not touch: its interior
            # and g1 + g2 are optimal there, but the multiplier has the wrong sign
            t = bound - 2.0 * l
            g1 = (r1 + r2 - s2 * t) / (s1 + s2)
            assert certify(recover_full(reduced, g1, g1 + t)) < flagged, bound


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
            assert vi_residual(system, spring, NP_, big) <= -1e306


def _apart(l):
    """Rods of length 1 each side of a spring of half-length l: the answer is the same at
    every l, g1 = 1.7857e-9 in compression."""
    return make_problem(Geometry(-l - 1.0, l + 1.0, l), MAT, SpringLaw(0.9, 0.9, 2.0 * l),
                        BodyForce(1e-8, -1e-8))


@pytest.mark.parametrize("l", [0.5, 1e3, 1e6, 1e8])
def test_a_long_spring_keeps_its_gap_change(l):
    # the iterative solvers, the oracle and the certificate once formed the length 2l + t,
    # which kept only the bits of t above the ulp of 2l: at l = 1e8 the iterative solvers
    # returned the spring-free g1 = 5e-9 and the oracle called it the breakpoint
    problem = _apart(l)
    exact = solve(problem, (4, 4))
    assert exact.diagnostics.regime == "compression"
    assert exact.g1 == pytest.approx(1.0 / 560.0 * 1e-6, rel=1e-15)
    config = SolverConfig(tolerance=1e-20)
    iterative = [solve(problem, (4, 4), method, config) for method in ("gradient", "fixed-point")]
    ref = analytic_solution(problem)
    for g1, label in [(ref.g1, ref.regime), *((s.g1, s.diagnostics.regime) for s in iterative)]:
        assert abs(g1 - exact.g1) <= 1e-15 * abs(exact.g1)
        assert label == "compression"
    system = assemble(build_mesh(problem.geometry, 4, 4), MAT, problem.forces)
    assert vi_residual(system, problem.spring, NP_, exact.u) >= -1e-20


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(i=st.integers(1, 64), j1=st.integers(13, 128), j2=st.integers(13, 128),
       m=st.integers(0, 40), log_E1=st.floats(math.log(0.5), math.log(5.0)),
       log_E2=st.floats(math.log(0.5), math.log(5.0)),
       q1=st.floats(0.01, 0.99), q2=st.floats(0.01, 0.99),
       f1=st.floats(-10.0, 10.0), f2=st.floats(-10.0, 10.0),
       variant=st.sampled_from(list(ConstraintVariant)),
       n1=st.integers(1, 16), n2=st.integers(1, 16))
def test_moving_the_rods_apart_keeps_every_state_off_contact(i, j1, j2, m, log_E1, log_E2,
                                                             q1, q2, f1, f2, variant, n1, n2):
    # l, L1 and L2 on a 1/64 grid: l + 2**m keeps L1 and L2 exact, and with them every
    # quantity of the problem but the contact bound t = -2l; off contact the exact solve
    # and the oracle keep their bits, and each iterative solver its label
    l, L1, L2 = i / 64, j1 / 64, j2 / 64
    E1, E2 = math.exp(log_E1), math.exp(log_E2)
    k_max = (E1 + E2) / (2.0 * max(L1, L2))

    def posed(l):
        geometry = Geometry(-l - L1, l + L2, l)
        assert (geometry.L1, geometry.L2) == (L1, L2)
        return make_problem(geometry, Material(E1, E2), SpringLaw(q1 * k_max, q2 * k_max,
                                                                  2.0 * l),
                            BodyForce(f1, f2), variant)

    problems = [posed(l), posed(l + 2.0 ** m)]
    exact = [solve(p, (n1, n2)) for p in problems]
    refs = [analytic_solution(p) for p in problems]
    if "contact" in [s.diagnostics.regime for s in exact] + [r.regime for r in refs]:
        return
    assert [(s.g1, s.g2, s.s, s.diagnostics.regime) for s in exact[1:]] == \
        [(s.g1, s.g2, s.s, s.diagnostics.regime) for s in exact[:1]]
    assert [(r.g1, r.g2, r.s, r.regime) for r in refs[1:]] == \
        [(r.g1, r.g2, r.s, r.regime) for r in refs[:1]]
    for method in ("gradient", "fixed-point"):
        labels = {solve(p, (n1, n2), method).diagnostics.regime for p in problems}
        assert len(labels) == 1, (method, labels)
    far = problems[1]
    system = assemble(build_mesh(far.geometry, n1, n2), far.material, far.forces)
    rounding, _ = _rounding_scale(far.geometry, far.forces, (n1, n2))
    assert vi_residual(system, far.spring, variant, exact[1].u) >= -rounding


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
            excess = sol.s + spring.force(sol.theta - 1.0)
            assert excess <= 1e-8
            assert abs(excess * sol.theta) <= 1e-8

    def test_energy_optimality(self):
        mesh, system, red, spring = setup_case(1.0, (1.0, -1.0))
        sol = solve_exact(red, spring, NP_, GEO.l)
        best = system.energy(sol.u) + spring.potential(sol.theta - 1.0)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            dof = DofVector(rng.normal(0.0, 0.4, mesh.n1), rng.normal(0.0, 0.4, mesh.n2))
            theta = 2.0 * GEO.l - dof.g1 + dof.g2
            if theta < 0.0:
                rod2 = dof.rod2.copy()
                rod2[0] -= theta
                dof = DofVector(dof.rod1, rod2)
            value = system.energy(dof) + spring.potential(2.0 * GEO.l - dof.g1 + dof.g2 - 1.0)
            assert best <= value + 1e-10


class TestSolveFrontEnd:
    def test_methods_and_penalty(self):
        prob = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0), NP_)
        for method in ("exact", "gradient", "fixed-point"):
            sol = solve(prob, (4, 4), method)
            assert sol.theta == pytest.approx(0.875, abs=1e-7)
        pen = PenaltyProblem(prob, PenaltyVariant.COMPRESSION_ONLY, 1.0)
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
        # r = f*L/2 = 2.5e307 is representable, though at 8+8 the integer-weighted
        # ramp sum of the load vector overflows (test_fem checks that dot)
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

    @pytest.mark.parametrize("method", ["exact", "fixed-point"])
    def test_representable_equilibrium_with_an_overflowing_spring_free_gap(self, method):
        # d = r2/s2 - r1/s1 overflows, but d/2 does not: exact and the fixed
        # point, which relaxes half the gap change, find the equilibrium that
        # the gradient iterates to
        problem = make_problem(GEO, Material(0.01, 0.01), SpringLaw(0.004, 0.004, 1.0),
                               BodyForce(-1e307, 1e307), NP_)
        sol, gradient = solve(problem, method=method), solve(problem, method="gradient")
        assert sol.diagnostics.regime == gradient.diagnostics.regime == "extension"
        for got, want in zip((sol.g1, sol.g2, sol.theta),
                             (gradient.g1, gradient.g2, gradient.theta)):
            assert abs(got - want) <= 1e-12 * abs(want)

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
                               BodyForce(-1e308, 1e308), NP_)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            solve(problem, (4, 4), "fixed-point")
        assert 1 <= len(steps) <= 2

    def test_gradient_keeps_iterating_on_an_infinite_step(self, monkeypatch):
        # |dg| > 1e154 squares to an infinite step norm between finite
        # iterates: that is no reason to stop early.  On unequal rods every
        # step of these 40 moves the iterates by more than 1e154
        steps = []
        real = fem_module.ReducedSystem.interface_vnorm
        monkeypatch.setattr(fem_module.ReducedSystem, "interface_vnorm",
                            lambda self, dg: steps.append(dg) or real(self, dg))
        system = assemble(build_mesh(GEO, 4, 4), Material(1.7e3, 0.6e3),
                          BodyForce(-1e200, 1e200))
        sol = solve_projected_gradient(system, SpringLaw(300.0, 300.0, 1.0), NP_,
                                       SolverConfig(max_iterations=40))
        assert math.isfinite(sol.g1) and math.isfinite(sol.g2)
        assert (sol.diagnostics.iterations, sol.diagnostics.converged) == (40, False)
        assert len(steps) == 40 and all(max(map(abs, dg)) > 1e154 for dg in steps)


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

    def test_body_force_exact_solve_recovers_its_field_once(self, monkeypatch):
        # the O(1) overflow bound passes at these loads, so no field is recovered
        # to check it: the solution's field is the one recovery
        original = fem_module.recover_full
        calls = []

        def counting(reduced, g1, g2):
            calls.append((g1, g2))
            return original(reduced, g1, g2)

        monkeypatch.setattr(fem_module, "recover_full", counting)
        monkeypatch.setattr(solver_module, "recover_full", counting)
        system = assemble(build_mesh(GEO, 64, 5), MAT, BodyForce(3.0, -1.0))
        sol = solve_exact(schur_reduce(system), SpringLaw(1.0, 1.0, 1.0), NP_, GEO.l)
        assert calls == [(sol.g1, sol.g2)]

    def test_field_recovered_for_the_overflow_check_is_the_solutions(self, monkeypatch):
        # the O(1) bound fails at loads of 1e308 but the field is finite: the
        # field `_record` recovers to check it is the one the solution carries
        original = fem_module.recover_full
        calls = []

        def counting(reduced, g1, g2):
            calls.append((g1, g2))
            return original(reduced, g1, g2)

        monkeypatch.setattr(fem_module, "recover_full", counting)
        monkeypatch.setattr(solver_module, "recover_full", counting)
        problem = make_problem(GEO, Material(0.03, 0.03), SpringLaw(0.01, 0.01, 1.0),
                               BodyForce(1e308, -1e308), NP_)
        sol = solve(problem, (4, 4), "exact")
        assert calls == [(0.5, -0.5)] == [(sol.g1, sol.g2)]
        assert np.isfinite(sol.u.rod1).all() and np.isfinite(sol.u.rod2).all()


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

#: name -> (regime, iterations, float.hex of g1, g2, theta, s); the condensed load of a
#: BodyForce is the exact f*L/2, rounded once.
PINNED = {
    "contact": ("contact", 0, "0x1.a85574c3f5afcp-1", "0x1.d77b654b82c40p-6",
                "0x0.0p+0", "-0x1.046b8e8cb539dp+1"),
    "compression-1x1": ("compression", 0, "0x1.98da0de54714fp-3", "-0x1.6395d2c00b66cp-5",
                        "0x1.1d29b8f4471e0p-1", "-0x1.2aa61b265f8ecp-4"),
    "extension-64x5": ("extension", 0, "-0x1.11fba1f993d88p-3", "0x1.2f44fa3842cb4p-3",
                       "0x1.14f4e05307a14p+0", "0x1.9413a08949728p-3"),
    "bound-lower": ("bound-lower", 0, "0x1.f14424d5a3e9fp-3", "0x1.f14424d5a3e9fp-3",
                    "0x1.999999999999ap-1", "-0x1.552e0b0ce45fcp-1"),
    "bound-upper": ("bound-upper", 0, "-0x1.093568fa798dep-3", "-0x1.093568fa798dep-3",
                    "0x1.999999999999ap-1", "0x1.4f9005e4be10fp-1"),
    "rigid": ("rigid", 0, "0x1.f14424d5a3e9fp-3", "0x1.f14424d5a3e9fp-3",
              "0x1.999999999999ap-1", "-0x1.552e0b0ce45fcp-1"),
    "penalty-compression": ("compression", 0, "0x1.f683837b8ca7dp-3", "0x1.e9019497991dep-3",
                            "0x1.96391de09cb72p-1", "-0x1.52b3ac93e1228p-1"),
    "penalty-extension": ("extension", 0, "-0x1.1ebb9d86ad74bp-3", "0x1.86ad74a7fc236p-4",
                          "0x1.090f17c8223dap+0", "0x1.4565fb4d33c78p-1"),
    "penalty-two-sided": ("compression", 0, "0x1.f1cbbabf2df2cp-3", "0x1.f06eb8dc8d021p-3",
                          "0x1.99425920f15d7p-1", "-0x1.54ee04422a4d6p-1"),
    "fixed-point": ("compression", 16, "0x1.f90d5c78ac909p-2", "-0x1.35faa7dab6f66p-3",
                    "0x1.3e51059a564f0p-3", "-0x1.8c0669c657a50p-3"),
    "fixed-point-upper": ("bound-upper", 2, "-0x1.093568fa798dep-3", "-0x1.093568fa798dep-3",
                          "0x1.999999999999ap-1", "0x1.4f9005e4be10fp-1"),
    # the projected gradient's values are only as exact as its tolerance
    "gradient": ("compression", 28),
    "gradient-contact": ("contact", 29),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_pinned_results(name):
    variant, loads, mesh_sizes, method, penalty = PIN_CASES[name]
    prob = make_problem(PIN_GEO, PIN_MAT, PIN_SPRING, BodyForce(*loads), variant)
    if penalty is not None:
        prob = PenaltyProblem(prob, penalty[0], penalty[1])
    sol = solve(prob, mesh_sizes, method)
    regime, iterations, *values = PINNED[name]
    assert (sol.diagnostics.regime, sol.diagnostics.iterations) == (regime, iterations)
    assert [x.hex() for x in (sol.g1, sol.g2, sol.theta, sol.s)][:len(values)] == values


@pytest.mark.parametrize("f", [5.5999999972, 5.599999999])
@pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
def test_contact_flag_is_the_contact_regime(method, f):
    # the exact gaps, 5e-10 and 1.8e-10, lie just above the contact bound
    problem = make_problem(GEO, MAT, SpringLaw(0.4, 0.4, 1.0), BodyForce(f, -f), NP_)
    sol = solve(problem, (4, 4), method)
    assert sol.contact == (sol.diagnostics.regime == "contact")
