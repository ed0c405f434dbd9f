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

from .errors import EmptyFeasibleGrid, NoConsistentRegime, ValidationError
from .fem import DiscreteSystem, DofVector, Mesh
from .model import ConstraintVariant, ProblemSpec, SpringLaw, _real

_SELECT_TOL = 1e-12
#: Grid points per block of grid_search_minimizer: each block buffer stays within 256 KB.
_BLOCK_POINTS = 2 ** 15


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
    """Closed-form equilibrium for a validated problem with constant loads.

    Raises NoConsistentRegime when the closed form overflows.
    """
    geo, mat, spring = problem.geometry, problem.material, problem.spring
    f1, f2 = problem.forces.f1, problem.forces.f2
    l = geo.l
    L1, L2 = geo.L1, geo.L2
    two_l = 2.0 * l
    lo, hi = problem.gap_bounds()

    try:
        compliance = L1 / mat.E1 + L2 / mat.E2
        theta_free = two_l - f1 * L1 ** 2 / (2.0 * mat.E1) + f2 * L2 ** 2 / (2.0 * mat.E2)
        if not (math.isfinite(compliance) and math.isfinite(theta_free)):
            raise NoConsistentRegime(f"closed form overflows: free gap {theta_free}")

        s, theta, regime = _scalar_regime(theta_free, compliance, spring, lo, hi, two_l)

        # The rod balances (E1/L1)*g1 = s + f1*L1/2 and (E2/L2)*g2 = -s + f2*L2/2
        # sum to an equation free of s, whose large terms would cancel; with
        # g2 - g1 = theta - 2l it fixes g1.
        S1, S2 = mat.E1 / L1, mat.E2 / L2
        g1 = (0.5 * (f1 * L1 + f2 * L2) - S2 * (theta - two_l)) / (S1 + S2)
        g2 = g1 + (theta - two_l)

        # u1(x) = g1 + (s*(x + l) - f1*(x + l)^2/2)/E1 and
        # u2(x) = g2 + (s*(x - l) - f2*(x - l)^2/2)/E2, expanded about x = 0
        u1_coeffs = (g1 + (s * l - 0.5 * f1 * l * l) / mat.E1,
                     (s - f1 * l) / mat.E1,
                     -f1 / (2.0 * mat.E1))
        u2_coeffs = (g2 - (s * l + 0.5 * f2 * l * l) / mat.E2,
                     (s + f2 * l) / mat.E2,
                     -f2 / (2.0 * mat.E2))
    except OverflowError as exc:  # float ** raises where * would give inf
        raise NoConsistentRegime(f"closed form overflows: {exc}") from None
    if not all(map(math.isfinite, (s, g1, g2, *u1_coeffs, *u2_coeffs))):
        raise NoConsistentRegime(f"closed form overflows: s={s}, g1={g1}, g2={g2}")
    return AnalyticSolution(problem, u1_coeffs, u2_coeffs, g1, g2, theta, s, regime)


def _grid_axes(bounds, step: float, ndof: int) -> list[np.ndarray]:
    """The grid's axes, one per DOF, from validated (lo, hi) pairs and step."""
    _real("grid step", step, 0.0, math.inf, ValidationError)
    try:
        shared = np.ndim(bounds[0]) == 0
    except (TypeError, ValueError, IndexError):  # no sequence, a ragged first range, empty
        raise ValidationError(f"need a (lo, hi) pair or one per DOF, got {bounds!r}") from None
    if shared:
        bounds = [bounds] * ndof
    if len(bounds) != ndof:
        raise ValidationError(f"need one range per DOF, got {len(bounds)} for {ndof}")
    counts = []
    for i, bound in enumerate(bounds):
        try:
            lo_v, hi_v = bound
        except (TypeError, ValueError):
            raise ValidationError(f"range {i} must be a (lo, hi) pair, got {bound!r}") from None
        _real(f"range {i} lo", lo_v, -math.inf, math.inf, ValidationError)
        _real(f"range {i} hi", hi_v, -math.inf, math.inf, ValidationError)
        if hi_v < lo_v:
            raise ValidationError(f"range {i} has hi {hi_v!r} below lo {lo_v!r}")
        steps = (hi_v - lo_v) / step
        if not steps < 2 ** 23:  # also an overflowing span, before int() would raise
            raise ValidationError(f"brute force limited to 2**23 grid points, "
                                  f"got {steps:.3g} steps on axis {i}")
        counts.append(int(round(steps)) + 1)
    if math.prod(counts) > 2 ** 23:
        raise ValidationError(f"brute force limited to 2**23 grid points, got {math.prod(counts)}")
    return [np.linspace(lo_v, hi_v, n) for (lo_v, hi_v), n in zip(bounds, counts)]


def grid_search_minimizer(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant, bounds, step: float) -> DofVector:
    """Feasible grid point of minimal total energy (brute force).

    `bounds` is one (lo, hi) pair of finite reals shared by every free DOF,
    or a sequence with one pair per DOF; `step` is a finite real above 0.  At
    most six DOFs and 2**23 grid points, a cap that bounds the run time.  The
    energy is evaluated term by term in fixed-size blocks of the C-order
    grid, written into buffers allocated once per call and reused by every
    block, so memory per call is constant; only the finite gap bounds are
    masked.  The first minimum in C order wins.  By convexity the result lies
    within one grid step of the true minimizer in every coordinate.
    """
    mesh = system.mesh
    n1 = mesh.n1
    ndof = n1 + mesh.n2
    if ndof > 6:
        raise ValidationError(f"brute force limited to 6 DOFs, got {ndof}")
    axes = _grid_axes(bounds, step, ndof)
    counts = [axis.size for axis in axes]

    l = mesh.geometry.l
    glo, ghi = variant.bounds(l)
    half_k1, half_k2 = 0.5 * spring.k1, 0.5 * spring.k2
    diag = np.concatenate((system.diag1, system.diag2))
    b = np.concatenate((system.b1, system.b2))
    off = np.concatenate((system.off1, [0.0], system.off2))  # no coupling across the gap
    # a block fixes the indices before axis `cut`, takes `rows` of that axis
    # and every later axis whole; blocks run in C order
    cut = next(i for i in range(ndof) if math.prod(counts[i + 1:]) <= _BLOCK_POINTS)
    rows = _BLOCK_POINTS // math.prod(counts[cut + 1:])
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
