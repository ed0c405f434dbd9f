import itertools
import math

import numpy as np
import pytest

from spring_rods import (BodyForce, ConstraintVariant, EmptyFeasibleGrid, Geometry,
                         Material, SpringLaw, analytic_solution, assemble, build_mesh,
                         grid_search_minimizer, make_problem, schur_reduce, solve_exact,
                         theta_of)
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
        assert theta_of(dof, GEO.l) >= -1e-12

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


def _loop_energy(system, spring, variant, point):
    """Total energy of one grid point, inf outside the gap bounds."""
    n1 = system.mesh.n1
    dof = DofVector(np.array(point[:n1]), np.array(point[n1:]))
    l = system.mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta = theta_of(dof, l)
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
