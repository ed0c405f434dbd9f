import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.linalg import cholesky_banded, solveh_banded

from spring_rods import (BodyForce, ConstraintVariant, Geometry, Material,
                         SpringLaw, ValidationError, ZeroElements, assemble, build_mesh,
                         interface_stress, recover_full, schur_reduce, solve_exact, spring_gap)
from spring_rods import analytic_solution, make_problem, solve
from spring_rods.fem import DiscreteSystem, DofVector, v_norm

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)


def make_system(n1=4, n2=4, f1=0.0, f2=0.0, mat=MAT, geo=GEO):
    mesh = build_mesh(geo, n1, n2)
    return mesh, assemble(mesh, mat, BodyForce(f1, f2))


def dense(system):
    n1 = system.mesh.n1
    A1 = np.diag(system.diag1) + np.diag(system.off1, 1) + np.diag(system.off1, -1)
    A2 = np.diag(system.diag2) + np.diag(system.off2, 1) + np.diag(system.off2, -1)
    return A1, A2


class TestBuildMesh:
    def test_uniform_split(self):
        mesh = build_mesh(GEO, 2, 2)
        assert np.allclose(mesh.nodes1, [-1.0, -0.75, -0.5])
        assert mesh.h1 == 0.25
        assert np.allclose(mesh.nodes2, [0.5, 0.75, 1.0])

    def test_single_element(self):
        mesh = build_mesh(GEO, 1, 1)
        assert mesh.n1 == 1 and mesh.n2 == 1
        assert len(mesh.nodes1) == 2

    def test_zero_elements(self):
        with pytest.raises(ZeroElements):
            build_mesh(GEO, 0, 2)

    def test_non_integer_count(self):
        with pytest.raises(ZeroElements, match="whole number"):
            build_mesh(GEO, 2.5, 3)

    def test_bool_count(self):
        # True is an Integral; accepted, it leaked a TypeError from assembly
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0),
                               ConstraintVariant.NON_PENETRATION)
        with pytest.raises(ZeroElements, match="whole number"):
            solve(problem, (True, 4))
        with pytest.raises(ZeroElements):
            build_mesh(GEO, 2, False)

    def test_non_integer_count_through_solve(self):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0),
                               ConstraintVariant.NON_PENETRATION)
        with pytest.raises(ZeroElements):
            solve(problem, (2.5, 3))

    def test_numpy_integer_count(self):
        mesh = build_mesh(GEO, np.int64(3), 2)
        assert mesh.n1 == 3 and len(mesh.nodes1) == 4

    def test_count_past_the_float_range(self):
        # accepted, it leaked an OverflowError from h1 = L1 / n1
        with pytest.raises(ZeroElements, match="past the float range"):
            build_mesh(GEO, 10 ** 400, 4)
        # too long to print, and beside an empty count
        with pytest.raises(ZeroElements, match="past the float range"):
            build_mesh(GEO, 0, 10 ** 5000)

    def test_count_past_the_addressable_arrays(self):
        # accepted, it leaked numpy's ValueError: Maximum allowed dimension exceeded
        limit = np.iinfo(np.intp).max // 8 - 1  # n + 1 nodes of 8 bytes
        for n1, n2 in ((limit + 1, 4), (4, 10 ** 20), (int(sys.float_info.max), 1)):
            with pytest.raises(ZeroElements, match=f"at most {limit} elements per rod"):
                build_mesh(GEO, n1, n2)
        mesh = build_mesh(GEO, limit, 1)  # allocates nothing yet
        assert mesh.h1 > 0.0

    def test_count_past_the_float_range_through_solve(self):
        problem = make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), BodyForce(1.0, -1.0),
                               ConstraintVariant.NON_PENETRATION)
        with pytest.raises(ZeroElements, match="past the float range"):
            solve(problem, (1, 10 ** 400))


class TestAssemble:
    def test_closed_form_entries(self):
        _, system = make_system(2, 2, f1=1.0)
        # h = 0.25, E = 1: interior diagonal 8, interface diagonal 4, off -4
        assert system.diag1[0] == 8.0
        assert system.diag1[-1] == 4.0
        assert system.off1[0] == -4.0
        assert system.b1[0] == 0.25
        assert system.b1[-1] == 0.125

    def test_system_is_a_mesh_a_material_and_a_body_force(self):
        # the stiffnesses E/h come from the mesh and material, the load vectors
        # from the kept BodyForce on first read
        mesh = build_mesh(GEO, 2, 2)
        system = DiscreteSystem(mesh, Material(1.0, 0.5), BodyForce(1.0, -2.0))
        assert (system.stiff1, system.stiff2) == (4.0, 2.0)
        assert system.b1.tolist() == [0.25, 0.125] and system.b2.tolist() == [-0.25, -0.5]

    @pytest.mark.parametrize("forces", [None, "ab", (1.0, 2.0), (lambda x: 1.0, lambda x: -1.0)],
                             ids=["None", "str", "pair", "callables"])
    def test_only_a_body_force_is_a_load(self, forces):
        # make_problem took each of these: solve then leaked TypeError, or
        # solved the callables that no study, oracle or stress trace takes
        mesh = build_mesh(GEO, 2, 2)
        for build in (lambda: make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0), forces),
                      lambda: assemble(mesh, MAT, forces),
                      lambda: DiscreteSystem(mesh, MAT, forces)):
            with pytest.raises(ValidationError, match="need a BodyForce"):
                build()

    def test_zero_forces_zero_load(self):
        _, system = make_system(3, 3)
        assert np.all(system.b1 == 0.0)
        assert np.all(system.b2 == 0.0)

    def test_stiffness_linear_in_modulus(self):
        _, soft = make_system(3, 3)
        _, stiff = make_system(3, 3, mat=Material(2.0, 1.0))
        assert np.allclose(stiff.diag1, 2.0 * soft.diag1)
        assert np.allclose(stiff.off1, 2.0 * soft.off1)
        assert np.allclose(stiff.diag2, soft.diag2)

    def test_symmetry_exact(self):
        _, system = make_system(5, 3, f1=1.0, f2=-2.0)
        A1, A2 = dense(system)
        assert np.max(np.abs(A1 - A1.T)) == 0.0
        assert np.max(np.abs(A2 - A2.T)) == 0.0

    def test_spd_cholesky(self):
        for n1, n2 in ((1, 1), (2, 5), (16, 16)):
            _, system = make_system(n1, n2)
            for d, e in ((system.diag1, system.off1), (system.diag2, system.off2)):
                ab = np.zeros((2, len(d)))
                ab[0, 1:] = e
                ab[1, :] = d
                cholesky_banded(ab)  # raises on non-SPD

    def test_galerkin_consistency_quadratic_field(self):
        # interpolant of u with -E u'' = f has vanishing interior residual
        mesh, system = make_system(8, 8, f1=2.0, f2=2.0)
        u1 = -(mesh.nodes1[1:] ** 2 - mesh.nodes1[0] ** 2)  # u'' = -2 so f = 2
        u2 = -(mesh.nodes2[:-1] ** 2 - mesh.nodes2[-1] ** 2)
        res = system.apply(DofVector(u1, u2))
        res1 = res.rod1 - system.b1
        res2 = res.rod2 - system.b2
        assert np.max(np.abs(res1[:-1])) < 1e-10
        assert np.max(np.abs(res2[1:])) < 1e-10

    def test_mirror_symmetry(self):
        # reflecting x -> -x maps rod 2 onto rod 1 and reverses the DOF order
        mesh, system = make_system(6, 6, f1=3.0, f2=-3.0)
        A1, A2 = dense(system)
        assert np.allclose(A1[::-1, ::-1], A2, atol=0.0)
        assert np.allclose(system.b2, -system.b1[::-1], atol=0.0)
        red = schur_reduce(system)
        sol = solve_exact(red, SpringLaw(1.0, 1.0, 1.0),
                          ConstraintVariant.NON_PENETRATION, GEO.l)
        assert np.allclose(sol.u.rod2, -sol.u.rod1[::-1], atol=1e-12)


class TestThetaAndNorm:
    def test_theta_reads_interface(self):
        dof = DofVector(np.zeros(3), np.zeros(3))
        assert spring_gap(GEO.l, dof.g1, dof.g2) == 1.0
        dof = DofVector(np.array([0.0, 0.0, 0.5]), np.array([-0.5, 0.0, 0.0]))
        assert spring_gap(GEO.l, dof.g1, dof.g2) == 0.0

    def test_vnorm_zero(self):
        mesh, _ = make_system(4, 4)
        assert v_norm(mesh, DofVector(np.zeros(4), np.zeros(4))) == 0.0

    def test_vnorm_ramp(self):
        for n in (1, 3, 7):
            mesh, _ = make_system(n, n)
            dof = DofVector(mesh.nodes1[1:] - mesh.nodes1[0], np.zeros(n))
            assert v_norm(mesh, dof) == pytest.approx(np.sqrt(GEO.L1), abs=1e-13)

    def test_trace_bound(self):
        mesh, _ = make_system(5, 7)
        rng = np.random.default_rng(7)
        root_L = np.sqrt(GEO.L)
        for _ in range(100):
            dof = DofVector(rng.normal(size=5), rng.normal(size=7))
            norm = v_norm(mesh, dof)
            assert abs(dof.g1) <= root_L * norm + 1e-12
            assert abs(dof.g2) <= root_L * norm + 1e-12


class TestSchurReduce:
    def test_one_element_identity(self):
        _, system = make_system(1, 1)
        red = schur_reduce(system)
        assert red.S == (2.0, 2.0)
        assert np.allclose(red.r, 0.0, atol=0.0)
        assert red.offset == 0.0

    def test_reduced_minimizer_matches_interface_response(self):
        # frozen closed form for f=(6,-6), k=1: s=-0.75, theta=0.25
        for n in (1, 2, 5, 8):
            mesh, system = make_system(n, n, f1=6.0, f2=-6.0)
            red = schur_reduce(system)
            sol = solve_exact(red, SpringLaw(1.0, 1.0, 1.0),
                              ConstraintVariant.NON_PENETRATION, GEO.l)
            assert sol.s == pytest.approx(-0.75, abs=1e-12)
            assert sol.theta == pytest.approx(0.25, abs=1e-12)

    def test_mesh_doubling_invariance(self):
        _, coarse = make_system(2, 3, f1=1.0, f2=-2.0)
        _, fine = make_system(4, 6, f1=1.0, f2=-2.0)
        red_c = schur_reduce(coarse)
        red_f = schur_reduce(fine)
        assert np.allclose(red_c.S, red_f.S, atol=1e-10)
        assert np.allclose(red_c.r, red_f.r, atol=1e-10)

    def test_energy_identity(self):
        mesh, system = make_system(6, 4, f1=1.0, f2=-1.0)
        red = schur_reduce(system)
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.uniform(-1.0, 1.0, 2)
            dof = recover_full(red, g[0], g[1])
            assert system.energy(dof) == pytest.approx(red.energy(g), abs=1e-12)

    def test_reconstruction_idempotent(self):
        mesh, system = make_system(5, 5, f1=2.0, f2=1.0)
        red = schur_reduce(system)
        dof = recover_full(red, 0.3, -0.2)
        again = recover_full(red, dof.g1, dof.g2)
        assert np.allclose(dof.rod1, again.rod1, atol=0.0)
        assert np.allclose(dof.rod2, again.rod2, atol=0.0)

    def test_vnorm_of_interface_difference(self):
        # harmonic interior differences make the reduced metric exact
        mesh, system = make_system(6, 6, f1=1.0, f2=-1.0)
        red = schur_reduce(system)
        u = recover_full(red, 0.25, -0.1)
        w = recover_full(red, -0.05, 0.3)
        dg = np.array([u.g1 - w.g1, u.g2 - w.g2])
        assert v_norm(mesh, u - w) == pytest.approx(red.interface_vnorm(dg), abs=1e-13)


class TestStress:
    def test_zero_dof_zero_stress(self):
        for n in (1, 3):
            mesh, _ = make_system(n, n)
            dof = DofVector(np.zeros(n), np.zeros(n))
            assert interface_stress(mesh, dof, MAT, BodyForce(0.0, 0.0)) == (0.0, 0.0)

    def test_ramp_unit_stress(self):
        for n in (1, 4):
            mesh, _ = make_system(n, n)
            dof = DofVector(mesh.nodes1[1:] - mesh.nodes1[0], np.zeros(n))
            s1, s2 = interface_stress(mesh, dof, MAT, BodyForce(0.0, 0.0))
            assert s1 == pytest.approx(1.0, abs=1e-13)
            assert s2 == 0.0

    def test_interface_trace_full_compression(self):
        # frozen closed form for f=(6,-6), k=1: trace stress -0.75 at both ends
        for n in (1, 2, 4, 9):
            mesh, system = make_system(n, n, f1=6.0, f2=-6.0)
            red = schur_reduce(system)
            sol = solve_exact(red, SpringLaw(1.0, 1.0, 1.0),
                              ConstraintVariant.NON_PENETRATION, GEO.l)
            s1, s2 = interface_stress(mesh, sol.u, MAT, BodyForce(6.0, -6.0))
            assert s1 == pytest.approx(-0.75, abs=1e-8)
            assert s2 == pytest.approx(-0.75, abs=1e-8)

    def test_callable_loads_are_refused(self):
        # the end-element extrapolation is exact for constant densities only
        mesh, _ = make_system(4, 4)
        dof = DofVector(np.zeros(4), np.zeros(4))
        with pytest.raises(ValidationError, match="need a BodyForce, got tuple"):
            interface_stress(mesh, dof, MAT, (lambda x: 1.0, lambda x: -1.0))


# ---------------------------------------------------------------------------
# closed-form condensation and recovery against independent references

CLOSED_GEO = Geometry(-1.3, 0.9, 0.4)
CLOSED_MAT = Material(1.7, 0.6)
CLOSED_MESHES = ((1, 1), (3, 7), (64, 5), (4096, 3))
CLOSED_LOADS = {
    "constant": BodyForce(2.5, -1.5),
    "rod2-only": BodyForce(0.0, 4.0),
}


def _tri_apply(d, e, u):
    out = d * u
    out[:-1] += e * u[1:]
    out[1:] += e * u[:-1]
    return out


def interior_reference(d, e, rhs):
    """Independent solve of a tridiagonal SPD block.

    LAPACK banded Cholesky, refined once with an extended-precision residual:
    the plain solve carries about cond * eps (~2e-12 at 4095 unknowns) of
    error, and a dense solve of that size would also need ~270 MB.
    """
    if len(d) == 0:
        return np.zeros(0)
    ab = np.zeros((2, len(d)))
    ab[0, 1:] = e
    ab[1] = d
    u = solveh_banded(ab, rhs)
    ld = np.longdouble
    residual = rhs.astype(ld) - _tri_apply(d.astype(ld), e.astype(ld), u.astype(ld))
    return u + solveh_banded(ab, residual.astype(float))


def closed_case(n1, n2, load):
    mesh = build_mesh(CLOSED_GEO, n1, n2)
    system = assemble(mesh, CLOSED_MAT, CLOSED_LOADS[load])
    return mesh, system, schur_reduce(system)


@pytest.mark.parametrize("load", sorted(CLOSED_LOADS))
@pytest.mark.parametrize("n1,n2", CLOSED_MESHES)
class TestClosedFormCondensation:
    def test_stiffness_is_exact_rod_stiffness(self, n1, n2, load):
        _, _, red = closed_case(n1, n2, load)
        L1, L2 = CLOSED_GEO.L1, CLOSED_GEO.L2
        assert red.S == (CLOSED_MAT.E1 / L1, CLOSED_MAT.E2 / L2)

    def test_load_is_ramp_weighted(self, n1, n2, load):
        mesh, system, red = closed_case(n1, n2, load)
        ramp1 = (mesh.nodes1[1:] - CLOSED_GEO.a) / CLOSED_GEO.L1
        ramp2 = (CLOSED_GEO.b - mesh.nodes2[:-1]) / CLOSED_GEO.L2
        assert red.r == pytest.approx([system.b1 @ ramp1, system.b2 @ ramp2],
                                      rel=1e-13, abs=1e-14)

    def test_recovery_matches_interior_solve(self, n1, n2, load):
        _, system, red = closed_case(n1, n2, load)
        g1, g2 = 0.3, -0.2
        u = recover_full(red, g1, g2)
        rhs1 = system.b1[:-1].copy()
        rhs2 = system.b2[1:].copy()
        if n1 > 1:
            rhs1[-1] -= system.off1[-1] * g1
        if n2 > 1:
            rhs2[0] -= system.off2[0] * g2
        want1 = interior_reference(system.diag1[:-1], system.off1[:-1], rhs1)
        want2 = interior_reference(system.diag2[1:], system.off2[1:], rhs2)
        assert u.g1 == g1 and u.g2 == g2
        assert np.max(np.abs(u.rod1[:-1] - want1), initial=0.0) <= 1e-13
        assert np.max(np.abs(u.rod2[1:] - want2), initial=0.0) <= 1e-13


def _hat_integrals(n, h, f):
    """Exact integrals of the constant density f against the n + 1 hat functions of
    n elements of length h, element by element on [0, h]: for a constant density
    they do not depend on where the element lies."""
    falling = (Polynomial([f]) * Polynomial([h, -1.0]) / h).integ()
    rising = (Polynomial([f]) * Polynomial([0.0, 1.0]) / h).integ()
    out = np.zeros(n + 1)
    out[:-1] += falling(h) - falling(0.0)
    out[1:] += rising(h) - rising(0.0)
    return out


@pytest.mark.parametrize("load", sorted(CLOSED_LOADS))
@pytest.mark.parametrize("n1,n2", CLOSED_MESHES)
def test_constant_load_matches_the_exact_hat_integrals(n1, n2, load):
    # rod 1 drops its clamped node x=a, rod 2 its clamped node x=b; the
    # interface entries b1[-1] and b2[0] are half hats
    mesh, system, _ = closed_case(n1, n2, load)
    forces = CLOSED_LOADS[load]
    expected1 = _hat_integrals(n1, mesh.h1, forces.f1)[1:]
    expected2 = _hat_integrals(n2, mesh.h2, forces.f2)[:-1]
    assert system.b1.shape == (n1,) and system.b2.shape == (n2,)
    scale = max(np.max(np.abs(expected1)), np.max(np.abs(expected2)))
    assert np.max(np.abs(system.b1 - expected1)) <= 1e-14 * scale
    assert np.max(np.abs(system.b2 - expected2)) <= 1e-14 * scale


def test_condensed_load_survives_an_overflowing_sum():
    # at 8+8 the integer-weighted sum b . (n * ramp) of these loads overflows;
    # the condensed load of a BodyForce is the representable f*L/2 all the same
    system = assemble(build_mesh(GEO, 8, 8), MAT, BodyForce(1e308, -1e308))
    with np.errstate(over="ignore"):
        assert system.b1 @ np.arange(1.0, 9.0) == np.inf
    assert schur_reduce(system).r == (2.5e307, -2.5e307)


def test_condensation_and_recovery_read_no_load_vector():
    # both read the force itself, so the cached load vectors are never built
    system = assemble(build_mesh(CLOSED_GEO, 64, 5), CLOSED_MAT, BodyForce(2.5, -1.5))
    recover_full(schur_reduce(system), 0.3, -0.2)
    assert "b1" not in vars(system) and "b2" not in vars(system)


def test_constant_load_ramp_dot_is_the_closed_form():
    # schur_reduce takes the condensed load of a BodyForce as (0.5*f)*L, one
    # rounding of f*L/2; here the consistent load vector's ramp dot, computed
    # independently with the integer weights n*ramp and one division, must
    # agree.  The vector holds c = fl(f*fl(L/n)) at n - 1 nodes and c/2 at
    # the interface, so its exact ramp dot over n is
    # c*n/2 = f*L/2*(1 + d)^2 with |d| <= u = 2**-53.  The floating dot of n
    # same-signed products, summed in any order, is off by at most
    # gamma_n = n*u/(1 - n*u) of the exact dot, and the division rounds once:
    # with the closed form's own rounding, the two lie within (n + 6)*u of
    # the closed form for n <= 2**12
    rng = np.random.default_rng(11)
    u = 2.0 ** -53
    for _ in range(300):
        l = float(rng.uniform(0.1, 0.8))
        L1, L2 = (float(x) for x in 2.0 ** rng.uniform(-3.0, 3.0, 2))
        geo = Geometry(-l - L1, l + L2, l)
        n1, n2 = (int(n) for n in np.round(2.0 ** rng.uniform(0.0, 12.0, 2)))
        f1, f2 = (float(sign) * 10.0 ** float(e) for sign, e in
                  zip(rng.choice([-1.0, 1.0], 2), rng.uniform(-3.0, 300.0, 2)))
        system = assemble(build_mesh(geo, n1, n2), MAT, BodyForce(f1, f2))
        for b, w, f, L, n in ((system.b1, np.arange(1.0, n1 + 1.0), f1, geo.L1, n1),
                              (system.b2, np.arange(n2, 0.0, -1.0), f2, geo.L2, n2)):
            closed = (0.5 * f) * L
            assert abs(float(b @ w) / n - closed) <= (n + 6) * u * abs(closed), (n, f, L)
        assert schur_reduce(system).r == ((0.5 * f1) * geo.L1, (0.5 * f2) * geo.L2)


@pytest.mark.parametrize("variant", list(ConstraintVariant))
def test_fine_mesh_field_matches_continuum_oracle(variant):
    n = 2 ** 15
    problem = make_problem(CLOSED_GEO, CLOSED_MAT, SpringLaw(0.3, 0.5, 0.8),
                           BodyForce(2.5, -1.5), variant)
    u = solve(problem, (n, n)).u
    want = analytic_solution(problem).interpolate(build_mesh(CLOSED_GEO, n, n))
    assert np.max(np.abs(u.rod1 - want.rod1)) <= 1e-11
    assert np.max(np.abs(u.rod2 - want.rod2)) <= 1e-11


def test_fine_mesh_solve_allocation_budget():
    # an exact solve of a BodyForce allocates the two field arrays and one
    # scratch array: 3 arrays of n doubles, plus 8 KiB for the small objects
    # of a solve (about 3 KiB), so no load vector or ramp array fits beside them
    n = 2 ** 15
    problem = make_problem(CLOSED_GEO, CLOSED_MAT, SpringLaw(0.3, 0.5, 0.8),
                           BodyForce(2.5, -1.5), ConstraintVariant.NON_PENETRATION)
    solve(problem, (n, n))
    tracemalloc.start()
    try:
        solve(problem, (n, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 8 * 1024


PIN_GEO = Geometry(-1.3, 0.9, 0.4)
PIN_MAT = Material(1.7, 0.6)


#: Each load as (forces, scale); the prescribed interface values scale with it.
PIN_LOADS = {
    "constant": (BodyForce(2.5, -1.5), 1.0),
    "constant-1e17": (BodyForce(1e17, -1e17), 1e17),
}

#: First 128 bits of the sha256 of the recovered little-endian rod1 and rod2 bytes.
PINNED_FIELDS = {
    ((1, 1), "constant"): "b51fd4fba7d129029d1a936694c2ec55",
    ((1, 1), "constant-1e17"): "92b9eb3d34a7c99ac84a9a0e40a78b17",
    ((3, 7), "constant"): "099461161bebd371097dd05da62dd807",
    ((3, 7), "constant-1e17"): "46f600401a2bb823254cf9cacf558cf0",
    ((64, 5), "constant"): "94c4e3aa2182fc63f7c638c45fafb7b8",
    ((64, 5), "constant-1e17"): "34b9ffe59cb3e20556cf7fbf9038382c",
    ((4096, 4096), "constant"): "ade64378526186f6d1c620c51c9863ac",
    ((4096, 4096), "constant-1e17"): "0f0578ffdfaa69548c2a2e5b3097c730",
}


@pytest.mark.parametrize("sizes, load", PINNED_FIELDS, ids=lambda v: str(v).replace(" ", ""))
def test_recovered_field_bits_are_pinned(sizes, load):
    # the field is sums and running sums of the loads in a fixed order, so
    # any reordering of that arithmetic shows up in the last bits
    forces, scale = PIN_LOADS[load]
    reduced = schur_reduce(assemble(build_mesh(PIN_GEO, *sizes), PIN_MAT, forces))
    u = recover_full(reduced, 0.375 * scale, -1.0625 * scale)
    blob = u.rod1.astype("<f8").tobytes() + u.rod2.astype("<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest()[:32] == PINNED_FIELDS[sizes, load]


def test_field_bound_never_passes_an_overflowing_field():
    # fields near DBL_MAX: with E = 1/64 on the half-unit rods the pinned
    # field peaks at 2|f| (inf beyond DBL_MAX), and g1, g2 take either sign
    rng = np.random.default_rng(7)
    mat = Material(1 / 64, 1 / 64)
    counts = [0, 0, 0]  # passed, refused finite, overflowed
    for _ in range(400):
        n1, n2 = (int(n) for n in rng.integers(1, 65, 2))
        f1, f2 = (float(sign) * 10.0 ** float(e) for sign, e in
                  zip(rng.choice([-1.0, 1.0], 2), rng.uniform(305.0, 308.25, 2)))
        g1, g2 = (float(sign) * 10.0 ** float(e) for sign, e in
                  zip(rng.choice([-1.0, 1.0], 2), rng.uniform(300.0, 308.25, 2)))
        reduced = schur_reduce(assemble(build_mesh(GEO, n1, n2), mat, BodyForce(f1, f2)))
        with np.errstate(over="ignore", invalid="ignore"):
            u = recover_full(reduced, g1, g2)
        finite = bool(np.isfinite(u.rod1).all() and np.isfinite(u.rod2).all())
        if reduced.field_surely_finite(g1, g2):
            assert finite, (n1, n2, f1, f2, g1, g2)
            counts[0] += 1
        else:
            counts[1 if finite else 2] += 1
    assert min(counts) >= 20, counts


def test_peak_bound_is_the_closed_form():
    # 2*n^2*|f*h|*max(1, h/E), the larger of the two rods'
    reduced = schur_reduce(assemble(build_mesh(GEO, 3, 8), Material(0.125, 4.0),
                                    BodyForce(-3.0, 5.0)))
    # rod 1: h = 1/6, h/E = 4/3; rod 2: h = 1/16, h/E < 1
    assert reduced._peak_bound == max(2.0 * 9 * abs(-3.0 / 6.0) * (4.0 / 3.0),
                                      2.0 * 64 * abs(5.0 / 16.0))
    # past 2**50 elements per rod the rounding allowance no longer holds, and
    # an unloaded rod with an infinite h/E gives NaN: both fail every bound
    huge = schur_reduce(assemble(build_mesh(GEO, 2 ** 51, 1), MAT, BodyForce(1.0, 1.0)))
    unloaded = schur_reduce(assemble(build_mesh(GEO, 1, 1), Material(5e-324, 1.0),
                                     BodyForce(0.0, 1.0)))
    for reduced in (huge, unloaded):
        assert reduced._peak_bound == math.inf and not reduced.field_surely_finite(0.0, 0.0)


def test_peak_bound_bounds_every_recovered_value():
    # the pinned field peaks at |f|*L^2/(8E) = n^2*|f*h|*(h/E)/8, below the
    # bound, and g times the ramp adds at most |g|
    rng = np.random.default_rng(5)
    for _ in range(200):
        n1, n2 = (int(n) for n in np.round(2.0 ** rng.uniform(0.0, 10.0, 2)))
        e1, e2 = (float(e) for e in 2.0 ** rng.uniform(-12.0, 12.0, 2))
        f1, f2, g1, g2 = (float(sign) * 10.0 ** float(e) for sign, e in
                          zip(rng.choice([-1.0, 1.0], 4), rng.uniform(-3.0, 3.0, 4)))
        reduced = schur_reduce(assemble(build_mesh(GEO, n1, n2), Material(e1, e2),
                                        BodyForce(f1, f2)))
        u = recover_full(reduced, g1, g2)
        peak = max(np.max(np.abs(u.rod1)), np.max(np.abs(u.rod2)))
        assert peak <= reduced._peak_bound + abs(g1) + abs(g2), (n1, n2, e1, e2, f1, f2)


def test_constant_bound_never_passes_an_overflowing_field():
    # the O(1) bound of a BodyForce, which a solve trusts without scanning the
    # field: each rod's modulus puts its pinned field's peak |f|*L^2/(8E) at
    # 2^x DBL_MAX, and on up to 2**12 elements the running sums of recovery
    # (about n*|f|*L/8) overflow too at the larger loads; every field the
    # bound passes must be finite
    rng = np.random.default_rng(3)
    passed = refused_finite = overflowed = 0
    for _ in range(400):
        n1, n2 = (int(n) for n in np.round(2.0 ** rng.uniform(0.0, 12.0, 2)))
        f1, f2 = (float(sign) * 10.0 ** float(e) for sign, e in
                  zip(rng.choice([-1.0, 1.0], 2), rng.uniform(300.0, 308.0, 2)))
        e1, e2 = (abs(f) * GEO.L1 ** 2 / 8.0 / sys.float_info.max * 2.0 ** -float(x)
                  for f, x in zip((f1, f2), rng.uniform(-8.0, 2.0, 2)))
        g1, g2 = (float(sign) * 10.0 ** float(e) for sign, e in
                  zip(rng.choice([-1.0, 1.0], 2), rng.uniform(300.0, 308.25, 2)))
        reduced = schur_reduce(assemble(build_mesh(GEO, n1, n2), Material(e1, e2),
                                        BodyForce(f1, f2)))
        with np.errstate(over="ignore", invalid="ignore"):
            u = recover_full(reduced, g1, g2)
        finite = bool(np.isfinite(u.rod1).all() and np.isfinite(u.rod2).all())
        if reduced.field_surely_finite(g1, g2):
            assert finite, (n1, n2, f1, f2, e1, e2, g1, g2)
            passed += 1
        elif finite:
            refused_finite += 1
        else:
            overflowed += 1
    assert min(passed, refused_finite, overflowed) >= 20, (passed, refused_finite, overflowed)


#: Prints the hex of r, the pinned energy, g1, g2, s and the quadratic energy,
#: and a hash of u, per solve; then vi_residual of a 12000+12000 solve.
_THREADS_PROBE = """
import hashlib
import math
from spring_rods import (BodyForce, ConstraintVariant, Geometry, Material, SpringLaw, assemble,
                         build_mesh, schur_reduce, solve_exact, vi_residual)
geo, mat, spring = Geometry(-1.3, 0.9, 0.4), Material(1.7, 0.6), SpringLaw(0.3, 0.5, 0.8)
variant = ConstraintVariant.NON_PENETRATION
for n in (10001, 2 ** 15):
    system = assemble(build_mesh(geo, n, n), mat, BodyForce(2.5, -1.5))
    reduced = schur_reduce(system)
    sol = solve_exact(reduced, spring, variant, geo.l)
    u = sol.u.rod1.astype("<f8").tobytes() + sol.u.rod2.astype("<f8").tobytes()
    print(*(float(x).hex() for x in (*reduced.r, reduced.offset, sol.g1, sol.g2, sol.s,
                                     system.energy(sol.u))), hashlib.sha256(u).hexdigest())
system = assemble(build_mesh(geo, 12000, 12000), mat, BodyForce(2.5, -1.5))
sol = solve_exact(schur_reduce(system), spring, variant, geo.l)
print(float(vi_residual(system, spring, variant, sol.u)).hex())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10000 entries over its threads, which
    # moved the last bits of r, and so of the whole solution, with the thread
    # count; each run here is a fresh process, since OpenBLAS reads the count
    # once, at load
    import spring_rods

    src = str(Path(spring_rods.__file__).resolve().parents[1])
    outputs = [subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert outputs[0].count("\n") == 3
    assert outputs[0] == outputs[1]
