"""Independent ground truth for constant loads.

Each rod integrates in closed form: the stress is affine with slope equal
to minus the force density, the displacement quadratic.  Expressing both
inner-end displacements through the interface force s leaves a scalar
piecewise-linear equation in s, closed per regime exactly like the discrete
enumeration but in continuum quantities.  A brute-force grid minimizer over
tiny discrete instances provides a second, completely independent check;
it is a best-first branch and bound over tiles of the grid (Land & Doig,
Econometrica 28, 1960) that returns the dense search's point bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFeasibleGrid, NoConsistentRegime, ValidationError
from .fem import DiscreteSystem, DofVector, Mesh
from .model import ConstraintVariant, ProblemSpec, SpringLaw, _real

_SELECT_TOL = 1e-12
#: Grid points per tile of grid_search_minimizer, read at call time: the tile
#: buffer stays within 32 KB, and a 501**2 grid has 8**2 tiles to bound and order.
_BLOCK_POINTS = 2 ** 12


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


def _spread(values: np.ndarray, first: int, ndof: int) -> np.ndarray:
    """`values` over the axes from `first` on, shaped to broadcast over `ndof` axes."""
    return values.reshape((1,) * first + values.shape + (1,) * (ndof - first - values.ndim))


def grid_search_minimizer(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant, bounds, step: float) -> DofVector:
    """Feasible grid point of minimal total energy (brute force).

    `bounds` is one (lo, hi) pair of finite reals shared by every free DOF,
    or a sequence with one pair per DOF; `step` is a finite real above 0.  At
    most six DOFs and 2**23 grid points, a cap that bounds the run time.

    The grid is cut into tiles, Cartesian products of per-axis chunks of
    `floor(_BLOCK_POINTS**(1/ndof))` points.  A point's energy is a fixed
    sum of terms, each computed by the same float operations at every
    point: the spring term of its gap (inf outside the gap bounds), one
    term `(0.5*diag[i]*x - b[i])*x` per DOF and one `off[i]*x[i]*x[i+1]`
    per coupled pair.  A tile's bound sums, in the same order, the spring
    term at the tile's gap nearest the natural length (0 if its gaps
    straddle it, inf if they all miss the gap bounds), each DOF term at its
    least value over the tile's chunk and each pair term at the least of
    its four box corners.  The gap's extremes lie at tile corners.
    Correctly rounded arithmetic is monotone, so no energy computed in the
    tile falls below its bound.

    Tiles are evaluated in ascending order of bound (stable), each into one
    reused tile buffer, and the search stops at the first tile whose bound
    exceeds the best energy; tiles of bound inf are never evaluated, and
    tiles of NaN bound always.  Of equal energies the first point in C
    order wins, so the result is the first minimum of the whole grid, bit
    for bit, whatever the tile size; a NaN energy never wins.  Memory per
    call is one tile buffer plus one bound per tile, beside the axes.  By
    convexity the result lies within one grid step of the true minimizer in
    every coordinate.
    """
    mesh = system.mesh
    n1 = mesh.n1
    ndof = n1 + mesh.n2
    if ndof > 6:
        raise ValidationError(f"brute force limited to 6 DOFs, got {ndof}")
    axes = _grid_axes(bounds, step, ndof)

    l = mesh.geometry.l
    glo, ghi = variant.bounds(l)
    nat, half_k1, half_k2 = spring.natural_length, 0.5 * spring.k1, 0.5 * spring.k2
    diag = np.concatenate((system.diag1, system.diag2))
    b = np.concatenate((system.b1, system.b2))
    off = np.concatenate((system.off1, [0.0], system.off2))  # no coupling across the gap
    pairs = [i for i in range(ndof - 1) if i != n1 - 1]  # the gap's zero coupling adds zeros
    # the energy's per-axis factors, by the operations a point's energy uses
    outer = 2.0 * l - axes[n1 - 1]  # the gap is outer + axes[n1], as in spring_gap
    terms = [(0.5 * diag[i] * axis - b[i]) * axis for i, axis in enumerate(axes)]
    scaled = {i: off[i] * axes[i] for i in pairs}  # off*x, times the next axis

    edge = 1  # the integer root of the tile budget: 4096**(1/3) is 15.999...
    while (edge + 1) ** ndof <= _BLOCK_POINTS:
        edge += 1
    starts = [np.arange(0, axis.size, edge) for axis in axes]
    tiles = tuple(s.size for s in starts)

    def lowest(values, i):
        return np.minimum.reduceat(values, starts[i])

    def highest(values, i):
        return np.maximum.reduceat(values, starts[i])

    with np.errstate(all="ignore"):  # an overflowing bound is inf or NaN, never a warning
        # the gap rises with axes[n1] and falls with axes[n1 - 1]: its extremes are corners
        theta_lo = np.add.outer(lowest(outer, n1 - 1), lowest(axes[n1], n1))
        theta_hi = np.add.outer(highest(outer, n1 - 1), highest(axes[n1], n1))
        d_lo, d_hi = theta_lo - nat, theta_hi - nat
        # the spring term falls towards the natural length from either side
        spring_lo = np.where(d_lo > 0.0, half_k2 * d_lo * d_lo,
                             np.where(d_hi < 0.0, half_k1 * d_hi * d_hi, 0.0))
        spring_lo[(theta_hi < glo - 1e-12) | (theta_lo > ghi + 1e-12)] = np.inf
        bound = np.empty(tiles)
        bound[...] = _spread(spring_lo, n1 - 1, ndof)
        for i in range(ndof):
            bound += _spread(lowest(terms[i], i), i, ndof)
        for i in pairs:
            # off*x is monotone in x and the product in each factor: a corner is lowest
            ys = (lowest(axes[i + 1], i + 1), highest(axes[i + 1], i + 1))
            corners = [np.multiply.outer(p, y) for p in (lowest(scaled[i], i),
                                                        highest(scaled[i], i)) for y in ys]
            bound += _spread(np.minimum.reduce(corners), i, ndof)
    bound = bound.ravel()
    bound[np.isnan(bound)] = -np.inf  # evaluated first, never skipped
    order = np.argsort(bound, kind="stable")

    xs = [_spread(axis, i, ndof) for i, axis in enumerate(axes)]
    ts = [_spread(term, i, ndof) for i, term in enumerate(terms)]
    ps = {i: _spread(scaled[i], i, ndof) for i in pairs}
    outer = _spread(outer, n1 - 1, ndof)
    sizes = [min(edge, axis.size) for axis in axes]
    energy_buf = np.empty(math.prod(sizes))
    gap_bufs = [np.empty(sizes[n1 - 1] * sizes[n1], dtype=t) for t in (float, float, bool)]
    views = {}  # tile shape -> views of the tile buffers
    best, best_energy = (), math.inf  # () sorts before any index: an inf never wins
    strides = [math.prod(tiles[i + 1:]) for i in range(ndof)]
    for t in map(int, order):
        if bound[t] > best_energy or bound[t] == math.inf:
            break
        tile = [t // stride % n for stride, n in zip(strides, tiles)]
        keys = [(slice(None),) * i + (slice(c * edge, c * edge + edge),)
                for i, c in enumerate(tile)]
        x = [v[k] for v, k in zip(xs, keys)]
        shape = tuple(v.shape[i] for i, v in enumerate(x))
        if shape not in views:
            gap_shape = (1,) * (n1 - 1) + shape[n1 - 1:n1 + 1] + (1,) * (ndof - n1 - 1)
            flat = energy_buf[:math.prod(shape)]
            views[shape] = (flat, flat.reshape(shape),
                            *(buf[:math.prod(gap_shape)].reshape(gap_shape) for buf in gap_bufs))
        flat, energy, theta, d, mask = views[shape]
        g1, g2 = tile[n1 - 1:n1 + 1]  # the tile's chunks of the two gap axes
        np.add(outer[keys[n1 - 1]], x[n1], out=theta)
        np.subtract(theta, nat, out=d)
        # ((0.5*k)*d)*d with k1 below the natural length and k2 from it on; the
        # tile's extremes of d say whether it needs the mask
        np.multiply(d, half_k2 if d_hi[g1, g2] >= 0.0 else half_k1, out=energy)
        if d_lo[g1, g2] < 0.0 <= d_hi[g1, g2]:
            np.multiply(d, half_k1, out=energy, where=np.less(d, 0.0, out=mask))
        energy *= d
        if theta_lo[g1, g2] < glo - 1e-12:
            np.copyto(energy, np.inf, where=np.less(theta, glo - 1e-12, out=mask))
        if theta_hi[g1, g2] > ghi + 1e-12:
            np.copyto(energy, np.inf, where=np.greater(theta, ghi + 1e-12, out=mask))
        for v, k in zip(ts, keys):
            energy += v[k]
        for i in pairs:
            energy += ps[i][keys[i]] * x[i + 1]
        j = flat.argmin()
        if math.isnan(flat[j]):
            np.copyto(flat, np.inf, where=np.isnan(flat))
            j = flat.argmin()
        if flat[j] <= best_energy:
            index = tuple(c * edge + int(k) for c, k in zip(tile, np.unravel_index(j, shape)))
            if (flat[j], index) < (best_energy, best):  # index tuples compare in C order
                best, best_energy = index, flat[j]
    if not best:
        raise EmptyFeasibleGrid(f"no grid point satisfies gap bounds [{glo}, {ghi}]")
    u = np.array([axis[k] for axis, k in zip(axes, best)])
    return DofVector(u[:n1], u[n1:])
