import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spring_rods import (BodyForce, ConstraintVariant, EmptyFeasibleGrid, Geometry,
                         Material, NoConsistentRegime, SpringLaw, ValidationError,
                         analytic_solution, assemble, build_mesh, grid_search_minimizer,
                         make_problem, schur_reduce, solve, solve_exact, spring_gap)
from spring_rods import oracle
from spring_rods.fem import DofVector

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)


def problem(k=1.0, f=(0.0, 0.0), variant=ConstraintVariant.NON_PENETRATION):
    return make_problem(GEO, MAT, SpringLaw(k, k, 1.0), BodyForce(*f), variant)


class TestAnalyticSolution:
    def test_full_compression_family(self):
        # frozen closed form: theta = (k - 0.5)/(1 + k) above the contact threshold
        for k in (0.55, 0.8, 1.0, 1.5, 1.9):
            sol = analytic_solution(problem(k, (6.0, -6.0)))
            assert sol.theta == pytest.approx((k - 0.5) / (1.0 + k), abs=1e-14)
            assert sol.s == pytest.approx(-1.5 * k / (1.0 + k), abs=1e-14)
            assert sol.regime == "compression"
        for k in (0.05, 0.3, 0.5):
            sol = analytic_solution(problem(k, (6.0, -6.0)))
            assert sol.theta == 0.0
            assert sol.s == pytest.approx(-0.5, abs=1e-14)
            assert sol.regime == "contact"
            assert sol.g1 == pytest.approx(0.5, abs=1e-14)
            assert sol.g2 == pytest.approx(-0.5, abs=1e-14)

    def test_compression_benchmark(self):
        sol = analytic_solution(problem(1.0, (1.0, -1.0)))
        assert sol.s == pytest.approx(-0.125, abs=1e-15)
        assert sol.theta == pytest.approx(0.875, abs=1e-15)

    def test_extension_mirror(self):
        sol = analytic_solution(problem(1.0, (-1.0, 1.0)))
        assert sol.s == pytest.approx(0.125, abs=1e-15)
        assert sol.theta == pytest.approx(1.125, abs=1e-15)
        assert sol.regime == "extension"

    def test_field_boundary_and_balance(self):
        for k, f in ((0.7, (6.0, -6.0)), (1.3, (-2.0, 5.0)), (0.2, (6.0, -6.0))):
            prob = problem(k, f)
            sol = analytic_solution(prob)
            assert abs(sol.u1(GEO.a)) < 1e-14
            assert abs(sol.u2(GEO.b)) < 1e-14
            # stress is affine with slope -f, pinned to s at the inner ends
            xs1 = np.linspace(GEO.a, -GEO.l, 11)
            assert np.allclose(sol.sigma1(xs1), sol.s - f[0] * (xs1 + GEO.l), atol=1e-12)
            xs2 = np.linspace(GEO.l, GEO.b, 11)
            assert np.allclose(sol.sigma2(xs2), sol.s - f[1] * (xs2 - GEO.l), atol=1e-12)
            # interface values consistent with the displacement fields
            assert sol.u1(-GEO.l) == pytest.approx(sol.g1, abs=1e-13)
            assert sol.u2(GEO.l) == pytest.approx(sol.g2, abs=1e-13)

    def test_contact_block_over_stiffness_grid(self):
        # unique regime and the contact complementarity on a 50-point grid
        force_pairs = [(1.0, -1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, 1.0), (6.0, -6.0)]
        for f in force_pairs:
            for k in np.linspace(0.04, 1.96, 50):
                sol = analytic_solution(problem(k, f))
                spring = SpringLaw(k, k, 1.0)
                assert sol.theta >= -1e-12
                excess = sol.s + spring.force(sol.theta)
                assert excess <= 1e-12
                assert abs(excess * sol.theta) <= 1e-12
                assert sol.theta == pytest.approx(1.0 - sol.g1 + sol.g2, abs=1e-12)

    def test_asymmetric_rods(self):
        geo = Geometry(-2.0, 1.25, 0.25)
        mat = Material(2.0, 0.8)
        prob = make_problem(geo, mat, SpringLaw(0.5, 0.5, 0.5), BodyForce(1.5, 2.0),
                            ConstraintVariant.NON_PENETRATION)
        sol = analytic_solution(prob)
        # interface response identity: theta = theta_free - compliance * s
        compliance = geo.L1 / mat.E1 + geo.L2 / mat.E2
        theta_free = 0.5 - 1.5 * geo.L1 ** 2 / (2 * mat.E1) + 2.0 * geo.L2 ** 2 / (2 * mat.E2)
        assert sol.theta == pytest.approx(theta_free - compliance * sol.s, abs=1e-13)
        assert abs(sol.u1(geo.a)) < 1e-14
        assert abs(sol.u2(geo.b)) < 1e-14

    def test_fem_agreement(self):
        rng = np.random.default_rng(5)
        mesh = build_mesh(GEO, 4, 4)
        for _ in range(25):
            k = rng.uniform(0.05, 1.95)
            f = tuple(rng.uniform(-8.0, 8.0, 2))
            prob = problem(k, f)
            system = assemble(mesh, MAT, prob.forces)
            sol = solve_exact(schur_reduce(system), prob.spring, prob.variant, GEO.l)
            exact = analytic_solution(prob)
            assert sol.g1 == pytest.approx(exact.g1, abs=1e-10)
            assert sol.g2 == pytest.approx(exact.g2, abs=1e-10)
            assert sol.theta == pytest.approx(exact.theta, abs=1e-10)
            assert sol.s == pytest.approx(exact.s, abs=1e-10)

    def test_interpolant_is_discrete_solution(self):
        # nodal exactness: the interpolated continuum field solves the FEM system
        prob = problem(1.0, (1.0, -1.0))
        mesh = build_mesh(GEO, 8, 8)
        system = assemble(mesh, MAT, prob.forces)
        sol = solve_exact(schur_reduce(system), prob.spring, prob.variant, GEO.l)
        interp = analytic_solution(prob).interpolate(mesh)
        assert np.allclose(sol.u.rod1, interp.rod1, atol=1e-12)
        assert np.allclose(sol.u.rod2, interp.rod2, atol=1e-12)


    def test_overflow_raises(self):
        # the moduli make L/E and f*L^2/E overflow; the closed form used to
        # return g1 = nan, s = -inf labelled contact
        prob = make_problem(GEO, Material(1e-300, 1e-300), SpringLaw(1e-301, 1e-301, 1.0),
                            BodyForce(1e10, -1e10), ConstraintVariant.NON_PENETRATION)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            analytic_solution(prob)

    def test_overflowing_square_raises(self):
        # L1 * L1 overflows to inf, which the closed form's finite check refuses
        prob = make_problem(Geometry(-1e200, 1e200, 0.5), MAT, SpringLaw(1e-201, 1e-201, 1.0),
                            BodyForce(1.0, -1.0), ConstraintVariant.NON_PENETRATION)
        with pytest.raises(NoConsistentRegime, match="overflows"):
            analytic_solution(prob)

    def test_underflowing_compliance_raises(self):
        # L/E = 1e-400 rounds to 0, and the rigid reaction divided by it leaked
        # ZeroDivisionError
        prob = make_problem(Geometry(-2e-200, 2e-200, 1e-200), Material(1e200, 1e200),
                            SpringLaw(1.0, 1.0, 2e-200), BodyForce(1.0, -1.0),
                            ConstraintVariant.FULLY_RIGID)
        with pytest.raises(NoConsistentRegime, match="compliance 0.0"):
            analytic_solution(prob)

    def test_large_loads_keep_the_interface_values(self):
        # g1 used to be L1/E1*s + f1*L1^2/(2 E1): two terms of 1.25e16 that
        # cancelled to 0 instead of 0.5
        sol = analytic_solution(problem(1.0, (1e17, -1e17)))
        assert (sol.g1, sol.g2, sol.theta, sol.s) == (0.5, -0.5, 0.0, -2.5e16)

    def test_a_gap_rounded_past_2l_keeps_its_branch_side(self):
        # at k*C = 2e19 the compression branch's theta_free - C*s rounds 3.8e-6
        # above 2l; the rigid-compression bound at 2l holds that branch all the same
        prob = make_problem(Geometry(-1.5, 1.5, 0.5), Material(1e-20, 1.0),
                            SpringLaw(0.2, 0.2, 1.0), BodyForce(5e-10, 0.0),
                            ConstraintVariant.RIGID_COMPRESSION)
        sol = analytic_solution(prob)
        assert (sol.regime, sol.theta) == ("bound-lower", 1.0)
        assert sol.regime == solve(prob).diagnostics.regime


#: Bad grid steps and the error each gets; the comments say what leaked before.
BAD_STEPS = [
    (0.0, "grid step must lie in"),  # was a ZeroDivisionError
    (-0.1, "grid step must lie in"),  # was numpy's negative sample count
    (math.nan, "grid step must be finite"),  # was a NaN-to-integer error
    (math.inf, "grid step must be finite"),  # searched only the corner lo
    (True, "grid step must be a real"),
    ("0.1", "grid step must be a real"),
    (1e-320, "2\\*\\*23 grid points, got inf steps on axis 0"),  # int(inf) would raise
]

#: Bad gap ranges and the error each gets.
BAD_BOUNDS = [
    ((1.0, -1.0), "range 0 has hi -1.0 below lo 1.0"),  # was numpy's negative count
    ([(-1.0, 1.0), (0.5, 0.4)], "range 1 has hi 0.4 below lo 0.5"),
    ((-math.inf, 1.0), "range 0 lo must be finite"),  # was an OverflowError
    ([(-1.0, 1.0), (0.0, math.inf)], "range 1 hi must be finite"),
    ((math.nan, 1.0), "range 0 lo must be finite"),
    ((-1.0, 0.0, 1.0), "range 0 must be a \\(lo, hi\\) pair"),  # was an unpack error
    ([(-1.0, 0.0, 1.0), (-1.0, 1.0)], "range 0 must be a \\(lo, hi\\) pair"),
    ([(-1.0, 1.0), 0.5], "range 1 must be a \\(lo, hi\\) pair"),
    ([(-1.0, 1.0), ("0", "1")], "range 1 lo must be a real"),
    ((-1e308, 1e308), "2\\*\\*23 grid points, got inf steps on axis 0"),
    (None, "need a \\(lo, hi\\) pair or one per DOF"),  # was a TypeError
    (0.5, "need a \\(lo, hi\\) pair or one per DOF"),
    ([], "need a \\(lo, hi\\) pair or one per DOF"),
    ([((-1.0, 1.0), 0.5), (-1.0, 1.0)], "need a \\(lo, hi\\) pair or one per DOF"),
]


class TestGridSearch:
    def setup_method(self):
        self.mesh = build_mesh(GEO, 1, 1)
        self.spring = SpringLaw(1.0, 1.0, 1.0)

    def test_two_dof_benchmark(self):
        system = assemble(self.mesh, MAT, BodyForce(1.0, -1.0))
        dof = grid_search_minimizer(system, self.spring,
                                    ConstraintVariant.NON_PENETRATION, (-1.0, 1.0), 1e-3)
        assert dof.g1 == pytest.approx(0.0625, abs=2e-3)
        assert dof.g2 == pytest.approx(-0.0625, abs=2e-3)

    def test_zero_forces_exact_zero(self):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        dof = grid_search_minimizer(system, self.spring,
                                    ConstraintVariant.NON_PENETRATION, (-1.0, 1.0), 1e-2)
        assert dof.g1 == 0.0
        assert dof.g2 == 0.0

    def test_fully_rigid_restricts_to_diagonal(self):
        system = assemble(self.mesh, MAT, BodyForce(1.0, -1.0))
        dof = grid_search_minimizer(system, self.spring,
                                    ConstraintVariant.FULLY_RIGID, (-0.5, 0.5), 1e-2)
        assert dof.g1 == dof.g2
        assert abs(dof.g1) <= 1e-2

    def test_agrees_with_exact_solver(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = rng.uniform(0.2, 1.8)
            f = tuple(rng.uniform(-4.0, 4.0, 2))
            system = assemble(self.mesh, MAT, BodyForce(*f))
            spring = SpringLaw(k, k, 1.0)
            sol = solve_exact(schur_reduce(system), spring,
                              ConstraintVariant.NON_PENETRATION, GEO.l)
            dof = grid_search_minimizer(system, spring,
                                        ConstraintVariant.NON_PENETRATION,
                                        (-1.0, 1.0), 1e-3)
            assert dof.g1 == pytest.approx(sol.g1, abs=1e-3 + 1e-9)
            assert dof.g2 == pytest.approx(sol.g2, abs=1e-3 + 1e-9)

    def test_four_dof_instance(self):
        mesh = build_mesh(GEO, 2, 2)
        system = assemble(mesh, MAT, BodyForce(1.0, -1.0))
        sol = solve_exact(schur_reduce(system), self.spring,
                          ConstraintVariant.NON_PENETRATION, GEO.l)
        dof = grid_search_minimizer(system, self.spring,
                                    ConstraintVariant.NON_PENETRATION, (-0.16, 0.16), 1e-2)
        assert np.max(np.abs(dof.rod1 - sol.u.rod1)) <= 1e-2
        assert np.max(np.abs(dof.rod2 - sol.u.rod2)) <= 1e-2
        assert spring_gap(GEO.l, dof.g1, dof.g2) >= -1e-12

    def test_empty_feasible_grid(self):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        with pytest.raises(EmptyFeasibleGrid):
            # gap = 1 - g1 + g2 stays below -0.5 on this box
            grid_search_minimizer(system, self.spring,
                                  ConstraintVariant.NON_PENETRATION,
                                  [(2.0, 3.0), (0.0, 0.5)], 0.25)

    def test_too_many_dofs(self):
        mesh = build_mesh(GEO, 4, 4)
        system = assemble(mesh, MAT, BodyForce(0.0, 0.0))
        with pytest.raises(ValueError):
            grid_search_minimizer(system, self.spring,
                                  ConstraintVariant.NON_PENETRATION, (-1.0, 1.0), 0.5)

    def test_grid_size_guard(self):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        with pytest.raises(ValueError, match="2\\*\\*23 grid points, got 8392609"):
            # 2897**2 points, just above the cap, rejected before any array is built
            grid_search_minimizer(system, self.spring,
                                  ConstraintVariant.NON_PENETRATION, (-1.0, 1.0), 2.0 / 2896)

    @pytest.mark.parametrize("step, match", BAD_STEPS, ids=[repr(v) for v, _ in BAD_STEPS])
    def test_step_must_be_a_finite_real_above_0(self, step, match):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        with pytest.raises(ValidationError, match=match):
            grid_search_minimizer(system, self.spring, ConstraintVariant.NON_PENETRATION,
                                  (-1.0, 1.0), step)

    @pytest.mark.parametrize("bounds, match", BAD_BOUNDS,
                             ids=[repr(v) for v, _ in BAD_BOUNDS])
    def test_bounds_must_be_pairs_of_finite_reals(self, bounds, match):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        with pytest.raises(ValidationError, match=match):
            grid_search_minimizer(system, self.spring, ConstraintVariant.NON_PENETRATION,
                                  bounds, 0.1)

    def test_a_point_range_is_one_grid_point(self):
        system = assemble(self.mesh, MAT, BodyForce(0.0, 0.0))
        dof = grid_search_minimizer(system, self.spring, ConstraintVariant.NON_PENETRATION,
                                    [(np.float64(0.25), 0.25), (-0.5, 0.5)], 0.25)
        assert dof.g1 == 0.25


def _loop_energy(system, spring, variant, point):
    """Total energy of one grid point, inf outside the gap bounds."""
    n1 = system.mesh.n1
    dof = DofVector(np.array(point[:n1]), np.array(point[n1:]))
    l = system.mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta = spring_gap(l, dof.g1, dof.g2)
    if not lo - 1e-12 <= theta <= hi + 1e-12:
        return math.inf
    return system.energy(dof) + spring.potential(theta)


class TestGridSearchMatchesLoop:
    """The broadcast grid energy against a point-by-point loop in C order."""

    @pytest.mark.parametrize("variant", list(ConstraintVariant))
    @pytest.mark.parametrize("mesh_sizes", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 3)])
    def test_same_point_or_tie(self, mesh_sizes, variant):
        rng = np.random.default_rng([*mesh_sizes, list(ConstraintVariant).index(variant)])
        n1 = mesh_sizes[0]
        ndof = sum(mesh_sizes)
        geo = Geometry(-rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.6))
        mat = Material(*rng.uniform(0.5, 3.0, 2))
        spring = SpringLaw(*rng.uniform(0.05, 0.4, 2), 2.0 * geo.l)
        forces = BodyForce(*rng.uniform(-4.0, 4.0, 2))
        system = assemble(build_mesh(geo, *mesh_sizes), mat, forces)

        # 7, 6 or 5 points per axis for 3, 4 or 6 DOFs keeps the loop short
        points = 7 - (ndof - 2) // 2
        step = rng.uniform(0.02, 0.1)
        problem = make_problem(geo, mat, spring, forces, variant)
        nodal = analytic_solution(problem).interpolate(system.mesh)
        center = np.concatenate((nodal.rod1, nodal.rod2))
        lows = center + rng.uniform(-1.0, 0.0, ndof) * (points - 1) * step
        lows[n1] = lows[n1 - 1]  # a shared interface axis reaches the rigid gap 2l
        bounds = [(lo, lo + (points - 1) * step) for lo in lows]
        axes = [np.linspace(lo, hi, points) for lo, hi in bounds]

        best, best_energy = None, math.inf
        for point in itertools.product(*axes):
            energy = _loop_energy(system, spring, variant, point)
            if energy < best_energy:
                best, best_energy = point, energy

        dof = grid_search_minimizer(system, spring, variant, bounds, step)
        got = (*dof.rod1, *dof.rod2)
        assert got == best or (abs(_loop_energy(system, spring, variant, got) - best_energy)
                               <= 1e-12 * max(1.0, abs(best_energy)))


def _seeded_loop_problem(mesh_sizes, variant):
    """The problem TestGridSearchMatchesLoop draws for these arguments."""
    rng = np.random.default_rng([*mesh_sizes, list(ConstraintVariant).index(variant)])
    n1 = mesh_sizes[0]
    ndof = sum(mesh_sizes)
    geo = Geometry(-rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.6))
    mat = Material(*rng.uniform(0.5, 3.0, 2))
    spring = SpringLaw(*rng.uniform(0.05, 0.4, 2), 2.0 * geo.l)
    forces = BodyForce(*rng.uniform(-4.0, 4.0, 2))
    system = assemble(build_mesh(geo, *mesh_sizes), mat, forces)
    points = 7 - (ndof - 2) // 2
    step = rng.uniform(0.02, 0.1)
    nodal = analytic_solution(make_problem(geo, mat, spring, forces, variant)).interpolate(
        system.mesh)
    center = np.concatenate((nodal.rod1, nodal.rod2))
    lows = center + rng.uniform(-1.0, 0.0, ndof) * (points - 1) * step
    lows[n1] = lows[n1 - 1]
    bounds = [(lo, lo + (points - 1) * step) for lo in lows]
    return system, spring, variant, bounds, step


def _same_dof(a, b):
    return np.array_equal(a.rod1, b.rod1) and np.array_equal(a.rod2, b.rod2)


class TestGridSearchBlocks:
    """Small blocks put seams all over the grid; the chosen point must not move."""

    @pytest.mark.parametrize("block", [5, 11, 100])
    @pytest.mark.parametrize("variant", list(ConstraintVariant))
    @pytest.mark.parametrize("mesh_sizes", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 3)])
    def test_seeded_loop_problems(self, monkeypatch, mesh_sizes, variant, block):
        args = _seeded_loop_problem(mesh_sizes, variant)
        default = grid_search_minimizer(*args)
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)
        assert _same_dof(grid_search_minimizer(*args), default)

    @pytest.mark.parametrize("rows", [2, 7])
    @pytest.mark.parametrize("variant", [ConstraintVariant.NON_PENETRATION,
                                         ConstraintVariant.RIGID_COMPRESSION,
                                         ConstraintVariant.RIGID_EXTENSION])
    def test_certify_shape(self, monkeypatch, variant, rows):
        # 1+1 elements, step 4e-3 over +-1.0 around the solution, off the grid nodes
        rng = np.random.default_rng([rows, list(ConstraintVariant).index(variant)])
        for _ in range(3):
            k = rng.uniform(0.05, 0.9)
            prob = problem(k, tuple(rng.uniform(-6.0, 6.0, 2)), variant)
            sol = analytic_solution(prob)
            shift = rng.uniform(-0.5, 0.5, 2) * 4e-3
            bounds = [(g + s - 1.0, g + s + 1.0) for g, s in zip((sol.g1, sol.g2), shift)]
            args = (assemble(build_mesh(GEO, 1, 1), MAT, prob.forces), prob.spring,
                    variant, bounds, 4e-3)
            default = grid_search_minimizer(*args)
            monkeypatch.setattr(oracle, "_BLOCK_POINTS", rows * 501)
            assert _same_dof(grid_search_minimizer(*args), default)
            monkeypatch.undo()

    def test_feasible_only_in_last_block(self, monkeypatch):
        # rigid extension needs g1 >= g2: only g1 = 1.0, the last row, reaches g2 = 1.0
        system = assemble(build_mesh(GEO, 1, 1), MAT, BodyForce(0.0, 0.0))
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 2)
        dof = grid_search_minimizer(system, SpringLaw(1.0, 1.0, 1.0),
                                    ConstraintVariant.RIGID_EXTENSION,
                                    [(0.0, 1.0), (1.0, 1.1)], 0.1)
        assert (dof.g1, dof.g2) == (1.0, 1.0)

    def test_no_feasible_block(self, monkeypatch):
        system = assemble(build_mesh(GEO, 1, 1), MAT, BodyForce(0.0, 0.0))
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 3)
        with pytest.raises(EmptyFeasibleGrid):
            grid_search_minimizer(system, SpringLaw(1.0, 1.0, 1.0),
                                  ConstraintVariant.NON_PENETRATION,
                                  [(2.0, 3.0), (0.0, 0.5)], 0.25)

    @pytest.mark.parametrize("block", [4, oracle._BLOCK_POINTS])
    def test_tie_across_blocks_keeps_c_order_first(self, monkeypatch, block):
        # without loads the energy is even, and on these dyadic axes it is
        # exact: (-0.25, -0.25) in row 1 and (0.25, 0.25) in row 2 tie
        system = assemble(build_mesh(GEO, 1, 1), MAT, BodyForce(0.0, 0.0))
        spring, variant = SpringLaw(1.0, 1.0, 1.0), ConstraintVariant.NON_PENETRATION
        assert (_loop_energy(system, spring, variant, (-0.25, -0.25))
                == _loop_energy(system, spring, variant, (0.25, 0.25)))
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)  # 4: one row per block
        dof = grid_search_minimizer(system, spring, variant, (-0.75, 0.75), 0.5)
        assert (dof.g1, dof.g2) == (-0.25, -0.25)

    @pytest.mark.parametrize("block", [27, oracle._BLOCK_POINTS])
    def test_tie_found_in_a_later_tile_first_keeps_c_order_first(self, monkeypatch, block):
        # even energy on exact dyadic axes: -u and u tie, and at 27 points per
        # tile the tile of u has the lower bound, so u is evaluated first
        system = assemble(build_mesh(GEO, 2, 1), MAT, BodyForce(0.0, 0.0))
        spring, variant = SpringLaw(0.5, 0.5, 1.0), ConstraintVariant.NON_PENETRATION
        u = (0.125, 0.125, 0.125)
        assert (_loop_energy(system, spring, variant, u)
                == _loop_energy(system, spring, variant, tuple(-v for v in u)))
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)
        dof = grid_search_minimizer(system, spring, variant,
                                    [(-0.875, 0.375), (-0.625, 0.625), (-0.875, 0.375)], 0.25)
        assert (*dof.rod1, *dof.rod2) == (-0.125, -0.125, -0.125)

    def test_tile_whose_bound_is_the_best_energy_is_evaluated(self, monkeypatch):
        # exact dyadic energies: (0.25, -0.25) and (0.25, 0.0) tie; at 4 points
        # per tile the later point's tile comes first, and the earlier point's
        # tile has a bound equal to that energy, so the search may not stop there
        geo = Geometry(-1.5, 1.5, 0.5)
        system = assemble(build_mesh(geo, 1, 1), MAT, BodyForce(-2.0, 0.0))
        spring, variant = SpringLaw(1.0, 1.0, 0.5), ConstraintVariant.NON_PENETRATION
        assert (_loop_energy(system, spring, variant, (0.25, -0.25))
                == _loop_energy(system, spring, variant, (0.25, 0.0)))
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 4)
        dof = grid_search_minimizer(system, spring, variant, [(0.25, 1.25), (-0.5, 0.5)], 0.25)
        assert (dof.g1, dof.g2) == (0.25, -0.25)

    def test_nan_energy_never_wins(self):
        # at x0 = x1 = 1e160 the DOF terms overflow to inf and the coupling to
        # -inf, so those energies are NaN; the dense block loop took a block's
        # first NaN as its minimum and so found no point at all here
        system = assemble(build_mesh(GEO, 2, 1), MAT, BodyForce(0.0, 0.0))
        with np.errstate(all="ignore"):
            dof = grid_search_minimizer(system, SpringLaw(1.0, 1.0, 1.0),
                                        ConstraintVariant.NON_PENETRATION, (0.0, 1e160), 1e160)
        assert (*dof.rod1, *dof.rod2) == (0.0, 0.0, 0.0)

    def test_memory_does_not_grow_with_the_grid(self):
        # 2001**2 points; a full-grid evaluation peaked at about 190 MB
        system = assemble(build_mesh(GEO, 1, 1), MAT, BodyForce(1.0, -1.0))
        tracemalloc.start()
        try:
            grid_search_minimizer(system, SpringLaw(1.0, 1.0, 1.0),
                                  ConstraintVariant.NON_PENETRATION, (-1.0, 1.0), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _dense_grid_search(system, spring, variant, bounds, step, block=2 ** 15):
    """grid_search_minimizer as the dense search of every grid point in C order.

    The energy is evaluated term by term, by the same float operations as the
    tile search, in blocks of at most `block` points written into reused
    buffers; a later block wins only with a strictly lower energy.  The tile
    search must return this point bit for bit.
    """
    mesh = system.mesh
    n1 = mesh.n1
    ndof = n1 + mesh.n2
    axes = oracle._grid_axes(bounds, step, ndof)
    counts = [axis.size for axis in axes]

    l = mesh.geometry.l
    glo, ghi = variant.bounds(l)
    half_k1, half_k2 = 0.5 * spring.k1, 0.5 * spring.k2
    diag = np.concatenate((system.diag1, system.diag2))
    b = np.concatenate((system.b1, system.b2))
    off = np.concatenate((system.off1, [0.0], system.off2))  # no coupling across the gap
    # a block fixes the indices before axis `cut`, takes `rows` of that axis
    # and every later axis whole; blocks run in C order
    cut = next(i for i in range(ndof) if math.prod(counts[i + 1:]) <= block)
    rows = block // math.prod(counts[cut + 1:])
    size = min(rows, counts[cut]) * math.prod(counts[cut + 1:])
    energy_buf, theta_buf, d_buf = np.empty(size), np.empty(size), np.empty(size)
    mask_buf = np.empty(size, dtype=bool)
    best, best_energy = None, math.inf
    for lead in np.ndindex(*counts[:cut]):
        for start in range(0, counts[cut], rows):
            x = np.ix_(*(axis[j:j + 1] for axis, j in zip(axes, lead)),
                       axes[cut][start:start + rows], *axes[cut + 1:])
            shape = tuple(axis.size for axis in x)
            gap_shape = np.broadcast_shapes(x[n1 - 1].shape, x[n1].shape)
            energy = energy_buf[:math.prod(shape)].reshape(shape)
            theta, d, mask = (buf[:math.prod(gap_shape)].reshape(gap_shape)
                              for buf in (theta_buf, d_buf, mask_buf))
            np.add(2.0 * l - x[n1 - 1], x[n1], out=theta)  # spring_gap, in place
            np.subtract(theta, spring.natural_length, out=d)
            # ((0.5*k)*d)*d with k1 below the natural length, k2 from it on
            np.multiply(d, half_k2, out=energy)
            np.less(d, 0.0, out=mask)
            np.multiply(d, half_k1, out=energy, where=mask)
            energy *= d
            if math.isfinite(glo):
                np.copyto(energy, np.inf, where=np.less(theta, glo - 1e-12, out=mask))
            if math.isfinite(ghi):
                np.copyto(energy, np.inf, where=np.greater(theta, ghi + 1e-12, out=mask))
            for i in range(ndof):
                energy += (0.5 * diag[i] * x[i] - b[i]) * x[i]
            for i in range(ndof - 1):
                if i != n1 - 1:  # the gap's zero coupling would add exact zeros
                    energy += off[i] * x[i] * x[i + 1]
            j = int(np.argmin(energy))
            if energy.flat[j] < best_energy:  # strict: an earlier block keeps a tie
                best_energy = energy.flat[j]
                best = [axis.flat[i] for axis, i in zip(x, np.unravel_index(j, energy.shape))]
    if best is None:
        raise EmptyFeasibleGrid(f"no grid point satisfies gap bounds [{glo}, {ghi}]")
    u = np.array(best)
    return DofVector(u[:n1], u[n1:])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n1=st.integers(1, 3), n2=st.integers(1, 3),
       variant=st.sampled_from(list(ConstraintVariant)),
       l=st.floats(0.1, 0.8), L1=st.floats(0.5, 1.5), L2=st.floats(0.5, 1.5),
       E1=st.floats(0.5, 4.0), E2=st.floats(0.5, 4.0),
       k1=st.floats(0.01, 2.0), k2=st.one_of(st.none(), st.floats(0.01, 2.0)),
       natural=st.floats(0.05, 2.0), f1=st.floats(-1e3, 1e3), f2=st.floats(-1e3, 1e3),
       target=st.sampled_from(("natural", "lower", "upper", "rigid")),
       shift=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)), step=st.floats(0.01, 0.3),
       seed=st.integers(0, 2 ** 32 - 1),
       budget=st.sampled_from((1, 2, 5, 16, 27, 64, 2 ** 12, 2 ** 15)), even=st.booleans())
def test_tile_search_is_the_dense_search(n1, n2, variant, l, L1, L2, E1, E2, k1, k2, natural,
                                         f1, f2, target, shift, step, seed, budget, even):
    # k2 None draws k1 = k2.  The box lies near the rods' minimizer without the
    # spring, so many tiles have bounds near the best energy; its interface
    # axes are placed across the natural length, a gap bound or the rigid gap
    # 2l, a whole number of steps (plus `shift` steps) from it.  An `even`
    # problem has no loads, the natural length 2l and a box of dyadic points
    # about 0, a few steps off centre: every energy is exact, the least ones
    # lie in tiles whose gaps reach 2l exactly, and with k1 = k2 the energy
    # is even, so u and -u tie in tiles of different bounds
    if even:
        l, f1, f2, natural = 0.5, 0.0, 0.0, 1.0
    geo = Geometry(-l - L1, l + L2, l)
    spring = SpringLaw(k1, k1 if k2 is None else k2, natural)
    system = assemble(build_mesh(geo, n1, n2), Material(E1, E2), BodyForce(f1, f2))
    ndof = n1 + n2
    rng = np.random.default_rng(seed)
    points = int(rng.integers(2, math.floor(600 ** (1 / ndof)) + 1))
    span = (points - 1) * step
    free = [np.linalg.solve(np.diag(dg) + np.diag(of, 1) + np.diag(of, -1), rhs)
            for dg, of, rhs in ((system.diag1, system.off1, system.b1),
                                (system.diag2, system.off2, system.b2))]
    lows = np.concatenate(free) - rng.uniform(0.0, 1.0, ndof) * span
    glo, ghi = variant.bounds(l)
    gap = {"natural": natural, "lower": glo, "upper": ghi}.get(target, 2.0 * l)
    gap = gap if math.isfinite(gap) else 2.0 * l
    lows[n1] = lows[n1 - 1] + gap - 2.0 * l + step * (rng.integers(1 - points, points) + shift)
    if even:
        step = 2.0 ** -int(rng.integers(2, 5))
        points = 2 * int(rng.integers(1, points // 2 + 1))
        span = (points - 1) * step
        lows[:] = step * (rng.integers(-2, 3, ndof) - 0.5 * (points - 1))
    bounds = [(lo, lo + span) for lo in lows]
    try:
        want = _dense_grid_search(system, spring, variant, bounds, step)
    except EmptyFeasibleGrid:
        want = None
    with mock.patch.object(oracle, "_BLOCK_POINTS", budget):
        if want is None:
            with pytest.raises(EmptyFeasibleGrid):
                grid_search_minimizer(system, spring, variant, bounds, step)
        else:
            assert _same_dof(grid_search_minimizer(system, spring, variant, bounds, step), want)


@pytest.mark.parametrize("sizes, budget, edges", [
    ([501, 501], 2 ** 12, [64, 64]),  # the certify grid keeps its 64x64 tiles
    ([16, 16, 16], 2 ** 12, [16, 16, 16]),  # 4096**(1/3) is 15.999... in floats
    ([1, 1, 2 ** 22, 1, 1, 1], 2 ** 12, [1, 1, 2 ** 12, 1, 1, 1]),
    ([100, 3, 100], 2 ** 12, [36, 3, 37]),  # 3, then isqrt(4096 // 3), then the rest
    ([7, 5], 1, [1, 1]),
    ([2, 9], 11, [2, 5]),
])
def test_tile_edges_fit_the_axes(sizes, budget, edges):
    assert oracle._tile_edges(sizes, budget) == edges


def test_tile_edges_stay_within_the_budget():
    rng = np.random.default_rng(3)
    for _ in range(500):
        sizes = [int(n) for n in rng.integers(1, 300, rng.integers(1, 7))]
        budget = int(rng.integers(1, 2 ** 16))
        edges = oracle._tile_edges(sizes, budget)
        assert math.prod(edges) <= budget
        assert all(1 <= e <= n for e, n in zip(edges, sizes))


@pytest.mark.parametrize("budget", [1, 3, 16, 64, 2 ** 12])
@pytest.mark.parametrize("mesh_sizes, long", [((1, 1), 0), ((1, 1), 1), ((2, 1), 0),
                                              ((2, 1), 1), ((1, 3), 2), ((3, 3), 2),
                                              ((3, 3), 3), ((3, 3), 5)])
def test_one_long_axis_is_the_dense_search(mesh_sizes, long, budget):
    # one axis of 3000 points, every other axis a single point: the long axis
    # takes the whole tile budget instead of its root
    rng = np.random.default_rng([*mesh_sizes, long, budget])
    system = assemble(build_mesh(GEO, *mesh_sizes), MAT, BodyForce(*rng.uniform(-3.0, 3.0, 2)))
    spring = SpringLaw(*rng.uniform(0.1, 1.0, 2), 1.0)
    bounds = [(lo, lo) for lo in rng.uniform(-0.3, 0.3, sum(mesh_sizes))]
    bounds[long] = (-1.5, 1.499)
    for variant in ConstraintVariant:
        try:
            want = _dense_grid_search(system, spring, variant, bounds, 1e-3)
        except EmptyFeasibleGrid:
            want = None
        with mock.patch.object(oracle, "_BLOCK_POINTS", budget):
            if want is None:
                with pytest.raises(EmptyFeasibleGrid):
                    grid_search_minimizer(system, spring, variant, bounds, 1e-3)
            else:
                assert _same_dof(grid_search_minimizer(system, spring, variant, bounds, 1e-3),
                                 want)


@pytest.mark.filterwarnings("error")
def test_overflowing_energy_is_named_and_warns_nothing():
    # the one grid point has the gap 0, inside the bounds, but its DOF terms
    # overflow: the error names the energy, not the gap bounds
    system = assemble(build_mesh(GEO, 1, 1), MAT, BodyForce(0.0, 0.0))
    with pytest.raises(EmptyFeasibleGrid, match="energy overflows at every feasible"):
        grid_search_minimizer(system, SpringLaw(1.0, 1.0, 1.0),
                              ConstraintVariant.NON_PENETRATION, (1e160, 1e160), 1.0)


def _pin_problem(mesh_sizes, variant, i):
    """Seeded grid problem `i`: random rods, spring and loads, a box near the solution.

    The box corner is the analytic interface values rounded to 1e-6, so a change
    in the last bits of the closed form does not move the grid.  A 1+1 mesh gets
    the certify workload's box: +-1.0 at step 4e-3, shifted off the grid nodes
    (for the fully rigid variant onto one lattice, else no point is feasible).
    """
    rng = np.random.default_rng([*mesh_sizes, list(ConstraintVariant).index(variant), i])
    n1 = mesh_sizes[0]
    ndof = sum(mesh_sizes)
    geo = Geometry(-rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.6))
    mat = Material(*rng.uniform(1.0, 3.0, 2))
    k1, k2 = rng.uniform(0.05, 0.3, 2)
    spring = SpringLaw(k1, k1 if i % 5 == 0 else k2, 2.0 * geo.l)
    forces = BodyForce(*rng.uniform(-6.0, 6.0, 2))
    system = assemble(build_mesh(geo, *mesh_sizes), mat, forces)
    nodal = analytic_solution(make_problem(geo, mat, spring, forces, variant)).interpolate(
        system.mesh)
    center = np.round(np.concatenate((nodal.rod1, nodal.rod2)), 6)
    if ndof == 2:
        step, points = 4e-3, 501
        lows = center + rng.uniform(-0.5, 0.5, 2) * step - 1.0
    else:
        step, points = rng.uniform(0.02, 0.1), {3: 9, 4: 7, 5: 5, 6: 4}[ndof]
        lows = center - rng.uniform(0.3, 0.7, ndof) * (points - 1) * step
    if ndof > 2 or variant is ConstraintVariant.FULLY_RIGID:
        # interface axes a whole number of steps apart reach the rigid gap 2l
        lows[n1] = lows[n1 - 1] + step * round((center[n1] - center[n1 - 1]) / step)
    return system, spring, variant, [(lo, lo + (points - 1) * step) for lo in lows], step


#: First 128 bits of the sha256 of the chosen points (little-endian rod1 and
#: rod2 bytes, or the error class name) of every problem in a group, per
#: (mesh sizes, _BLOCK_POINTS).  Each group holds 12 problems per variant on
#: a 1+1 mesh and 5 on larger ones, one in five with k1 = k2.
PINNED_GRID_POINTS = {
    ((1, 1), 2 ** 15): "d1d4a58556c15660ef439e4d9188634e",
    ((2, 1), 11): "82f97d44a50daa703318e02e2e69e3ea",
    ((2, 1), 2 ** 15): "82f97d44a50daa703318e02e2e69e3ea",
    ((2, 2), 11): "be5f1a2bed55f6255984d26238f0dc01",
    ((2, 2), 2 ** 15): "be5f1a2bed55f6255984d26238f0dc01",
    ((3, 2), 11): "6f55cd218abafd5d5ccfc9e90e622fa0",
    ((3, 2), 2 ** 15): "6f55cd218abafd5d5ccfc9e90e622fa0",
    ((3, 3), 11): "1f9dfc3f58ac9afd847621eee09948bd",
    ((3, 3), 2 ** 15): "1f9dfc3f58ac9afd847621eee09948bd",
}


@pytest.mark.parametrize("mesh_sizes, block", PINNED_GRID_POINTS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_chosen_grid_points_are_pinned(monkeypatch, mesh_sizes, block):
    # the energy is a fixed sequence of float operations per point, so any
    # change to that arithmetic can move a near-tie and shows up here
    monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)
    digest = hashlib.sha256()
    count = 12 if sum(mesh_sizes) == 2 else 5
    for variant in ConstraintVariant:
        for i in range(count):
            try:
                dof = grid_search_minimizer(*_pin_problem(mesh_sizes, variant, i))
            except EmptyFeasibleGrid as exc:
                digest.update(type(exc).__name__.encode())
            else:
                digest.update(dof.rod1.astype("<f8").tobytes() + dof.rod2.astype("<f8").tobytes())
    assert digest.hexdigest()[:32] == PINNED_GRID_POINTS[mesh_sizes, block]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n1=st.integers(1, 3), n2=st.integers(1, 3),
       variant=st.sampled_from(list(ConstraintVariant)),
       l=st.floats(0.1, 0.8), L1=st.floats(0.5, 1.5), L2=st.floats(0.5, 1.5),
       E1=st.floats(0.5, 4.0), E2=st.floats(0.5, 4.0),
       k1=st.floats(0.01, 2.0), k2=st.floats(0.01, 2.0), natural=st.floats(0.05, 2.0),
       f1=st.floats(-1e3, 1e3), f2=st.floats(-1e3, 1e3),
       target=st.sampled_from(("natural", "lower", "upper", "rigid")),
       step=st.floats(1e-3, 0.3), seed=st.integers(0, 2 ** 32 - 1),
       budget=st.sampled_from((1, 2, 5, 16, 64, 2 ** 10)),
       mu=st.one_of(st.sampled_from((0.0, "centre", 1e150, -1e150)),
                    st.builds(lambda sign, e: sign * 10.0 ** e,
                              st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0))))
def test_tile_bounds_hold_every_energy(n1, n2, variant, l, L1, L2, E1, E2, k1, k2, natural,
                                       f1, f2, target, step, seed, budget, mu):
    # every energy the tile evaluation computes lies on or above its tile's
    # bound, for any multiplier: the multiplier only sets how tight the bound is.
    # Boxes lie near the rods' minimizer without the spring, their gap axes
    # across the natural length, a gap bound or the rigid gap; one-point tiles
    # make the bound as tight as the rounding slack allows
    geo = Geometry(-l - L1, l + L2, l)
    spring = SpringLaw(k1, k2, natural)
    system = assemble(build_mesh(geo, n1, n2), Material(E1, E2), BodyForce(f1, f2))
    ndof = n1 + n2
    rng = np.random.default_rng(seed)
    points = int(rng.integers(1, math.floor(600 ** (1 / ndof)) + 1))
    span = (points - 1) * step
    free = [np.linalg.solve(np.diag(dg) + np.diag(of, 1) + np.diag(of, -1), rhs)
            for dg, of, rhs in ((system.diag1, system.off1, system.b1),
                                (system.diag2, system.off2, system.b2))]
    lows = np.concatenate(free) - rng.uniform(0.0, 1.0, ndof) * span
    glo, ghi = variant.bounds(l)
    gap = {"natural": natural, "lower": glo, "upper": ghi}.get(target, 2.0 * l)
    gap = gap if math.isfinite(gap) else 2.0 * l
    lows[n1] = lows[n1 - 1] + gap - 2.0 * l + step * rng.uniform(-points, points)
    with mock.patch.object(oracle, "_BLOCK_POINTS", budget), np.errstate(all="ignore"):
        grid = oracle._Grid(system, spring, variant, [(lo, lo + span) for lo in lows], step)
        bound = grid.tile_bounds(grid.multiplier() if mu == "centre" else mu)
        for t in range(bound.size):
            energy = grid.tile_energies(t)
            assert not np.any(energy < bound[t]), (t, energy.min(), bound[t])


#: Grid points evaluated on each 1+1 problem of `_pin_problem`, 12 per variant
#: in variant order, by the search whose tile bound minimized each term on its
#: own, with tiles of 2**12 points: 18432 on average.
SEPARATE_BOUND_POINTS = [
    16384, 16384, 16384, 4096, 16384, 16384, 16384, 40960, 90112, 20480, 32768, 12288,
    28672, 16384, 24576, 61440, 8192, 32768, 16384, 8192, 8192, 20480, 40960, 20480,
    8192, 12288, 4096, 24576, 12288, 16384, 16384, 4096, 12288, 20480, 28672, 4096,
    8192, 16384, 16384, 24576, 8192, 8192, 8192, 12288, 8192, 8192, 8192, 8192,
]


def test_the_multiplier_bound_evaluates_few_points(monkeypatch):
    # points, not tiles, so the counts hold whatever the tile size
    counted = []
    tile_energies = oracle._Grid.tile_energies

    def counting(grid, t):
        energy = tile_energies(grid, t)
        counted[-1] += energy.size
        return energy

    monkeypatch.setattr(oracle._Grid, "tile_energies", counting)
    for variant in ConstraintVariant:
        for i in range(12):
            counted.append(0)
            try:
                grid_search_minimizer(*_pin_problem((1, 1), variant, i))
            except EmptyFeasibleGrid:
                pass
    assert all(n <= before for n, before in zip(counted, SEPARATE_BOUND_POINTS)), counted
    assert 3 * sum(counted) <= sum(SEPARATE_BOUND_POINTS), counted
    # the box's own gap multiplier: a gap bound's reaction included, at most 3 tiles each
    assert all(n <= 3 * oracle._BLOCK_POINTS for n in counted), counted


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geo, mat, forces", [
    # the gap DOFs' stiffness E1/h1 underflows to 0
    (Geometry(-5.0, 5.0, 0.5), Material(5e-324, 1.0), BodyForce(1.0, -1.0)),
    # b/d overflows: the free gap theta0 is -inf
    (Geometry(-2.5, 2.5, 0.5), Material(1.0, 1.0), BodyForce(1e308, -1e308)),
    # E1/h1 overflows to inf: no grid energy on rod 1's axis is finite
    (Geometry(-1e-300, 1.0, 5e-301), Material(1e10, 1.0), BodyForce(1.0, -1.0)),
], ids=["stiffness-underflows", "loads-near-1e308", "stiffness-overflows"])
def test_a_degenerate_gap_problem_has_multiplier_0(geo, mat, forces):
    system = assemble(build_mesh(geo, 1, 1), mat, forces)
    # the box centre's gap 1.0 is off the natural length: its spring slope is not 0
    spring, variant = SpringLaw(1.0, 1.0, 0.5), ConstraintVariant.NON_PENETRATION
    with np.errstate(all="ignore"):  # as the search builds it: an inf stiffness makes NaN terms
        grid = oracle._Grid(system, spring, variant, (-1.0, 1.0), 0.05)
    assert grid.multiplier() == 0.0
    with np.errstate(all="ignore"):  # the dense search sums energies past 1e308
        try:
            want = _dense_grid_search(system, spring, variant, (-1.0, 1.0), 0.05)
        except EmptyFeasibleGrid:
            want = None
    if want is None:
        with pytest.raises(EmptyFeasibleGrid):
            grid_search_minimizer(system, spring, variant, (-1.0, 1.0), 0.05)
    else:
        assert _same_dof(grid_search_minimizer(system, spring, variant, (-1.0, 1.0), 0.05),
                         want)
