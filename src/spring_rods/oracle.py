"""Independent ground truth for constant loads.

Each rod integrates in closed form: the stress is affine with slope equal
to minus the force density, the displacement quadratic.  Expressing both
inner-end displacements through the interface force s leaves a scalar
piecewise-linear equation in s, closed per regime exactly like the discrete
enumeration but in continuum quantities.  A brute-force grid minimizer over
tiny discrete instances provides a second, completely independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFeasibleGrid
from .fem import DiscreteSystem, DofVector, Mesh
from .model import ConstraintVariant, ProblemSpec, SpringLaw, spring_gap

_SELECT_TOL = 1e-12


@dataclass(frozen=True)
class AnalyticSolution:
    """Exact continuum equilibrium for constant force densities.

    u1_coeffs/u2_coeffs are (c0, c1, c2) of the quadratic displacement
    fields; stresses follow from the linear constitutive law.
    """

    problem: ProblemSpec
    u1_coeffs: tuple[float, float, float]
    u2_coeffs: tuple[float, float, float]
    g1: float
    g2: float
    theta: float
    s: float
    regime: str

    def u1(self, x):
        c0, c1, c2 = self.u1_coeffs
        return c0 + c1 * np.asarray(x) + c2 * np.asarray(x) ** 2

    def u2(self, x):
        c0, c1, c2 = self.u2_coeffs
        return c0 + c1 * np.asarray(x) + c2 * np.asarray(x) ** 2

    def sigma1(self, x):
        _, c1, c2 = self.u1_coeffs
        return self.problem.material.E1 * (c1 + 2.0 * c2 * np.asarray(x))

    def sigma2(self, x):
        _, c1, c2 = self.u2_coeffs
        return self.problem.material.E2 * (c1 + 2.0 * c2 * np.asarray(x))

    def interpolate(self, mesh: Mesh) -> DofVector:
        """Nodal interpolant on the free nodes of a mesh."""
        return DofVector(np.asarray(self.u1(mesh.nodes1[1:])),
                         np.asarray(self.u2(mesh.nodes2[:-1])))


def _scalar_regime(theta_free: float, compliance: float, spring: SpringLaw,
                   lo: float, hi: float, two_l: float) -> tuple[float, float, str]:
    """Select the consistent regime of the scalar interface equation.

    The gap responds to the interface force as theta = theta_free -
    compliance * s; the admissible closure per regime mirrors the discrete
    enumeration.  Returns (s, theta, regime).
    """
    if lo == hi:
        return (theta_free - lo) / compliance, lo, "rigid"

    if lo - _SELECT_TOL <= two_l <= hi + _SELECT_TOL and abs(theta_free - two_l) <= _SELECT_TOL:
        return 0.0, two_l, "breakpoint"

    if math.isfinite(lo):
        s = (theta_free - lo) / compliance
        if s <= -spring.force(lo) + _SELECT_TOL:
            label = "contact" if lo == 0.0 else "bound-lower"
            return s, lo, label
    if math.isfinite(hi):
        s = (theta_free - hi) / compliance
        if s >= -spring.force(hi) - _SELECT_TOL:
            return s, hi, "bound-upper"

    for k, label, low_side in ((spring.k1, "compression", True),
                               (spring.k2, "extension", False)):
        s = k * (theta_free - two_l) / (1.0 + k * compliance)
        theta = theta_free - compliance * s
        on_side = theta <= two_l + _SELECT_TOL if low_side else theta >= two_l - _SELECT_TOL
        if on_side and lo - _SELECT_TOL <= theta <= hi + _SELECT_TOL:
            return s, theta, label

    raise AssertionError("scalar regime selection failed for a convex problem")


def analytic_solution(problem: ProblemSpec) -> AnalyticSolution:
    """Closed-form equilibrium for a validated problem with constant loads."""
    geo, mat, spring = problem.geometry, problem.material, problem.spring
    f1, f2 = problem.forces.f1, problem.forces.f2
    a, b, l = geo.a, geo.b, geo.l
    L1, L2 = geo.L1, geo.L2
    two_l = 2.0 * l

    compliance = L1 / mat.E1 + L2 / mat.E2
    theta_free = two_l - f1 * L1 ** 2 / (2.0 * mat.E1) + f2 * L2 ** 2 / (2.0 * mat.E2)
    lo, hi = problem.gap_bounds()

    s, theta, regime = _scalar_regime(theta_free, compliance, spring, lo, hi, two_l)

    g1 = L1 / mat.E1 * s + f1 * L1 ** 2 / (2.0 * mat.E1)
    g2 = -L2 / mat.E2 * s + f2 * L2 ** 2 / (2.0 * mat.E2)

    u1_coeffs = ((-s * a + 0.5 * f1 * ((a + l) ** 2 - l ** 2)) / mat.E1,
                 (s - f1 * l) / mat.E1,
                 -f1 / (2.0 * mat.E1))
    u2_coeffs = ((-s * b + 0.5 * f2 * (L2 ** 2 - l ** 2)) / mat.E2,
                 (s + f2 * l) / mat.E2,
                 -f2 / (2.0 * mat.E2))
    return AnalyticSolution(problem, u1_coeffs, u2_coeffs, g1, g2, theta, s, regime)


def grid_search_minimizer(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant, bounds, step: float) -> DofVector:
    """Feasible grid point of minimal total energy (brute force).

    `bounds` is one (lo, hi) interval shared by every free DOF, or a
    sequence with one interval per DOF; at most six DOFs and 2**23 grid
    points.  The energy is broadcast from the 1-D axes term by term, and
    the first minimum in C order wins.  By convexity the result lies within
    one grid step of the true minimizer in every coordinate.
    """
    mesh = system.mesh
    n1 = mesh.n1
    ndof = n1 + mesh.n2
    if ndof > 6:
        raise ValueError(f"brute force limited to 6 DOFs, got {ndof}")
    if np.ndim(bounds[0]) == 0:
        bounds = [bounds] * ndof
    if len(bounds) != ndof:
        raise ValueError(f"need one range per DOF, got {len(bounds)} for {ndof}")
    counts = [int(round((hi_v - lo_v) / step)) + 1 for lo_v, hi_v in bounds]
    if math.prod(counts) > 2 ** 23:
        raise ValueError(f"brute force limited to 2**23 grid points, got {math.prod(counts)}")
    x = np.ix_(*(np.linspace(lo_v, hi_v, n) for (lo_v, hi_v), n in zip(bounds, counts)))

    l = mesh.geometry.l
    theta = spring_gap(l, x[n1 - 1], x[n1])
    glo, ghi = variant.bounds(l)
    feasible = (theta >= glo - 1e-12) & (theta <= ghi + 1e-12)
    if not np.any(feasible):
        raise EmptyFeasibleGrid(f"no grid point satisfies gap bounds [{glo}, {ghi}]")
    d = theta - spring.natural_length
    k = np.where(theta < spring.natural_length, spring.k1, spring.k2)
    energy = np.zeros(counts)
    energy += np.where(feasible, 0.5 * k * d * d, np.inf)
    diag = np.concatenate((system.diag1, system.diag2))
    b = np.concatenate((system.b1, system.b2))
    for i in range(ndof):
        energy += (0.5 * diag[i] * x[i] - b[i]) * x[i]
    off = np.concatenate((system.off1, [0.0], system.off2))  # no coupling across the gap
    for i in range(ndof - 1):
        energy += off[i] * x[i] * x[i + 1]
    best = np.unravel_index(int(np.argmin(energy)), energy.shape)
    u = np.array([axis.flat[j] for axis, j in zip(x, best)])
    return DofVector(u[:n1], u[n1:])
