"""Independent ground truth for constant loads.

Each rod integrates in closed form: the stress is affine with slope equal
to minus the force density, the displacement quadratic.  Expressing both
inner-end displacements through the interface force s leaves a scalar
piecewise-linear equation in s, closed per regime exactly like the discrete
enumeration but in continuum quantities.  A brute-force grid minimizer over
tiny discrete instances provides a second, completely independent check;
it is a best-first branch and bound over tiles of the grid (Land & Doig,
Econometrica 28, 1960) that returns the dense search's point bit for bit.
Its tile bounds split the spring's coupling of the two gap DOFs with a
multiplier mu on the gap, a Lagrangian relaxation (Geoffrion, Math.
Programming Study 2, 1974): the energy equals the split sum exactly for every
mu, so any mu gives a valid bound, less a rounding slack.  The mu of the
box's own gap problem (the two gap DOFs and the spring alone, with a gap
bound's reaction where one is active) makes the pieces bottom out at the
same point: a `certify` grid evaluates 1 of its 256 tiles where the spring
is free and about 1.7 where a bound is active.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFeasibleGrid, NoConsistentRegime, ValidationError
from .fem import DiscreteSystem, DofVector, Mesh
from .model import ConstraintVariant, ProblemSpec, SpringLaw, _check_type, _real

#: Grid points per tile of grid_search_minimizer, read at call time: a tile's
#: arrays stay within 8 KB each, and a 501**2 grid has 16**2 tiles to bound and
#: order.  With the multiplier bound 1 to 3 of them are evaluated; tiles of
#: 2**12 points evaluate more points and take about as long.
_BLOCK_POINTS = 2 ** 10


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
    compliance * s.  The regime is named by its branch, with no tolerance, as
    `solve_exact` names its clamp: rigid if lo == hi, the breakpoint if
    theta_free == 2l, else the bound on theta_free's side of 2l if the free
    branch's gap reaches it, else that side.  Returns (s, theta, regime).
    """
    if lo == hi:
        return (theta_free - lo) / compliance, lo, "rigid"
    if theta_free == two_l:
        return 0.0, two_l, "breakpoint"
    below = theta_free < two_l
    k = spring.k1 if below else spring.k2
    s = k * (theta_free - two_l) / (1.0 + k * compliance)
    theta = theta_free - compliance * s
    # exactly, theta lies strictly between theta_free and 2l: the branch reaches only
    # the bound on its side of 2l, and a theta rounded past 2l reads as 2l
    if below and min(theta, two_l) <= lo:
        return (theta_free - lo) / compliance, lo, "contact" if lo == 0.0 else "bound-lower"
    if not below and max(theta, two_l) >= hi:
        return (theta_free - hi) / compliance, hi, "bound-upper"
    return s, theta, "compression" if below else "extension"


def analytic_solution(problem: ProblemSpec) -> AnalyticSolution:
    """Closed-form equilibrium for a validated problem with constant loads.

    Raises NoConsistentRegime when the closed form overflows.
    """
    _check_type("problem", problem, ProblemSpec)
    geo, mat, spring = problem.geometry, problem.material, problem.spring
    f1, f2 = problem.forces.f1, problem.forces.f2
    l = geo.l
    L1, L2 = geo.L1, geo.L2
    two_l = 2.0 * l
    lo, hi = problem.gap_bounds()

    compliance = L1 / mat.E1 + L2 / mat.E2
    theta_free = two_l - f1 * (L1 * L1) / (2.0 * mat.E1) + f2 * (L2 * L2) / (2.0 * mat.E2)
    if not (0.0 < compliance < math.inf and math.isfinite(theta_free)):  # s divides by it
        raise NoConsistentRegime(f"closed form overflows: compliance {compliance}, "
                                 f"free gap {theta_free}")

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


def _tile_edges(sizes: list[int], budget: int) -> list[int]:
    """Per-axis chunk edges e_i <= sizes[i] with prod(e_i) <= budget, in integers.

    The axes, shortest first, each take the integer root of the budget left
    over the axes left, or their whole length if that is shorter: 501**2
    points get 64**2 tiles of 2**12, a 2**22-point axis beside 1-point ones
    chunks of 2**12.
    """
    edges = list(sizes)
    for done, i in enumerate(sorted(range(len(sizes)), key=sizes.__getitem__)):
        m = len(sizes) - done
        edge = max(1, int(budget ** (1.0 / m)))  # a float root may be one off: 4096**(1/3)
        edge += (edge + 1) ** m <= budget
        edge -= edge ** m > budget
        edges[i] = min(sizes[i], edge)
        budget //= edges[i]
    return edges


class _Grid:
    """The grid of one `grid_search_minimizer` call, cut into tiles.

    It holds the energy's per-axis factors, computed by the operations a
    point's energy uses, and the extremes of the gap over each pair of chunks
    of the two gap axes.  `tile_bounds(mu)` bounds the energies of every tile
    from below, `tile_energies(t)` computes those of tile t.
    """

    def __init__(self, system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
                 bounds, step: float):
        mesh = system.mesh
        n1 = mesh.n1
        ndof = n1 + mesh.n2
        if ndof > 6:
            raise ValidationError(f"brute force limited to 6 DOFs, got {ndof}")
        self.axes = axes = _grid_axes(bounds, step, ndof)
        self.n1, self.ndof, self.spring = n1, ndof, spring
        self.l = l = mesh.geometry.l
        self.glo, self.ghi = variant.bounds(l)
        self.nat, self.half_k1, self.half_k2 = (spring.natural_length, 0.5 * spring.k1,
                                                0.5 * spring.k2)
        diag = [*system.diag1.tolist(), *system.diag2.tolist()]
        b = [*system.b1.tolist(), *system.b2.tolist()]
        off = [*system.off1.tolist(), 0.0, *system.off2.tolist()]  # no coupling across the gap
        # coupled pairs; the gap's zero coupling would add zeros
        self.pairs = [i for i in range(ndof - 1) if i != n1 - 1]
        # the energy's per-axis factors, by the operations a point's energy uses
        self.outer = 2.0 * l - axes[n1 - 1]  # the gap is outer + axes[n1], as in spring_gap
        self.terms = [(0.5 * diag[i] * axis - b[i]) * axis for i, axis in enumerate(axes)]
        self.gap_diag, self.gap_load = diag[n1 - 1:n1 + 1], b[n1 - 1:n1 + 1]
        # at least the largest magnitude of each DOF and pair term over the box
        peak = [max(-float(axis[0]), float(axis[-1])) for axis in axes]  # the axes ascend
        self.term_peaks = sum((0.5 * diag[i] * x + abs(b[i])) * x for i, x in enumerate(peak))
        self.term_peaks += sum(abs(off[i]) * peak[i] * peak[i + 1] for i in self.pairs)
        self.scaled = {i: off[i] * axes[i] for i in self.pairs}  # off*x, times the next axis

        self.edges = _tile_edges([axis.size for axis in axes], _BLOCK_POINTS)
        self.starts = [np.arange(0, axis.size, edge) for axis, edge in zip(axes, self.edges)]
        self.tiles = tuple(s.size for s in self.starts)
        self.strides = [math.prod(self.tiles[i + 1:]) for i in range(ndof)]
        # the gap rises with axes[n1] and falls with axes[n1 - 1]: its extremes are corners
        self.theta_lo = np.add.outer(self.lowest(self.outer, n1 - 1), self.lowest(axes[n1], n1))
        self.theta_hi = np.add.outer(self.highest(self.outer, n1 - 1),
                                     self.highest(axes[n1], n1))
        self.d_lo, self.d_hi = self.theta_lo - self.nat, self.theta_hi - self.nat

        self.xs = [_spread(axis, i, ndof) for i, axis in enumerate(axes)]
        self.ts = [_spread(term, i, ndof) for i, term in enumerate(self.terms)]
        self.ps = {i: _spread(self.scaled[i], i, ndof) for i in self.pairs}
        self.outer_spread = _spread(self.outer, n1 - 1, ndof)

    def lowest(self, values: np.ndarray, i: int) -> np.ndarray:
        """The least of `values` over each chunk of axis i."""
        return np.minimum.reduceat(values, self.starts[i])

    def highest(self, values: np.ndarray, i: int) -> np.ndarray:
        return np.maximum.reduceat(values, self.starts[i])

    def multiplier(self) -> float:
        """The multiplier of the box's own gap problem, 0 if it is not finite.

        The two gap DOFs' terms T_i = (0.5*d_i*x - b_i)*x without their
        neighbours' couplings make the shifted DOF brackets of `tile_bounds`
        bottom out at the gap theta0 - mu*c, with theta0 = 2l - b_a/d_a +
        b_b/d_b and c = 1/d_a + 1/d_b, and the spring bracket at nat + mu/k.
        The two meet at mu = k*(theta0 - nat)/(1 + k*c), k on theta0's side of
        the natural length; where that gap lies outside the gap bounds, the
        bound's reaction (theta0 - lo)/c or (theta0 - hi)/c.  0 also where a
        d_i is 0 or inf (for an E/h that underflows or overflows) or a step is
        not finite.
        """
        (da, db), (ba, bb) = self.gap_diag, self.gap_load
        if not (0.0 < da < math.inf and 0.0 < db < math.inf):  # so c is above 0
            return 0.0
        theta0 = 2.0 * self.l - ba / da + bb / db
        c = 1.0 / da + 1.0 / db
        k = self.spring.k1 if theta0 < self.nat else self.spring.k2
        mu = k * (theta0 - self.nat) / (1.0 + k * c)
        gap = theta0 - mu * c
        if gap < self.glo:
            mu = (theta0 - self.glo) / c
        elif gap > self.ghi:
            mu = (theta0 - self.ghi) / c
        return mu if math.isfinite(mu) else 0.0

    def tile_bounds(self, mu: float) -> np.ndarray:
        """A lower bound on every energy `tile_energies` computes, per tile in C order.

        Exact for every real `mu`, which only sets how tight the bound is.
        With a = n1 - 1 and b = n1 the gap is theta = outer(x_a) + x_b, so
        the energy is exactly [S(theta) - mu*theta] + [T_a + mu*outer] +
        [T_b + mu*x_b] + (the other DOF terms) + (the pair terms), with S the
        spring term and T_i the DOF terms.  A tile's bound sums the least of
        each bracket over the tile: S - mu*theta is convex, least at
        nat + mu/k (k = k1 below the natural length, k2 above) clamped into
        the tile's gaps that pass the feasibility test; the shifted DOF
        terms take their least value per chunk, the other DOF terms too, and
        each pair term the least of its four box corners (off*x is monotone
        in x and the product in each factor).  A tile whose gaps all fail
        the feasibility test has bound inf.

        At mu = 0 the brackets are the evaluation's own terms, and the
        bound's terms are those terms' operations applied to their
        arguments' extremes over the tile (the spring's to the feasible gap
        nearest the natural length), summed in the same order.
        Correctly rounded arithmetic is monotone, so no energy computed in
        the tile falls below the bound.

        At mu != 0 the brackets are not the evaluation's operations, and the
        bound gives up a rounding slack.  Let u = eps/2 be the unit roundoff,
        N = 1 + ndof + (coupled pairs) the number of terms, and M at least
        the sum of the largest magnitudes over the box of the spring term, of
        every DOF and pair term, and of mu times theta, outer, x_b and
        d = theta - nat.
        Every rounding error below is at most u*M up to a factor 1 + O(N*u)
        (the DOF and pair terms' magnitudes in M are bounds from the box's
        corners, (0.5*diag*|x| + |b|)*|x| and |off|*|x|*|y|):
        - the evaluation's N - 1 additions move its energy from the exact
          sum of its terms by at most (N - 1)*u*M;
        - the float gap is outer + x_b rounded once: mu*(its rounding) <= u*M;
        - the spring term is ((0.5*k)*d)*d with d = theta - nat rounded:
          two products (2*u*M) of the exact spring term at theta' = nat + d,
          which lies within u*|d| of theta, so mu*(theta' - theta) <= u*M.
          The interval is widened by u*max|d| to hold theta'; where rounding
          the endpoints absorbs the widening, convexity (slope at most
          k*|d| + |mu|) bounds the shortfall by 2*u*M;
        - each shifted DOF term T + mu*y, rounded twice: 2*u*M each;
        - the spring bracket at the clamped point, computed with a
          subtraction, three products and a subtraction: 5*u*M;
        - the bound's N - 1 additions and the subtraction of the slack:
          N*u*M.
        The sum is (2*N + 14)*u*M.  Beside it, the clamped point is
        nat + mu/k rounded, within e = u*(|nat + mu/k| + |mu/k|) of the true
        one, which moves the convex bracket above its least value by at most
        k*e**2.  That matters only where nat + mu/k lies among the tile's
        gaps, and is then a few u*M at most.  The bound subtracts
        (2*N + 16)*eps*M, twice the count, which covers that term, the
        1 + O(N*u) factors and M's own rounding; on random boxes and
        multipliers the bound without the slack exceeded an energy by at
        most 2*eps*M.  If mu, a shifted term or the slack is not finite, the
        bound is the one at mu = 0, so an overflow never raises a finite
        energy's bound to inf.
        """
        a, b = self.n1 - 1, self.n1
        lo = np.maximum(self.theta_lo, self.glo - 1e-12)  # the evaluation's feasibility test
        hi = np.minimum(self.theta_hi, self.ghi + 1e-12)
        infeasible = lo > hi
        terms, slack, target = list(self.terms), 0.0, self.nat
        if mu:
            # the box's extreme gaps, as in the tiles: outer descends, the axes ascend
            theta_min = float(self.outer[-1]) + float(self.axes[b][0])
            theta_max = float(self.outer[0]) + float(self.axes[b][-1])
            d_max = max(self.nat - theta_min, theta_max - self.nat)
            y_max = (max(-theta_min, theta_max) + max(-float(self.outer[-1]), float(self.outer[0]))
                     + max(-float(self.axes[b][0]), float(self.axes[b][-1])) + d_max)
            m = max(self.half_k1, self.half_k2) * d_max * d_max + self.term_peaks + abs(mu) * y_max
            slack = 2 * (self.ndof + len(self.pairs) + 9) * sys.float_info.epsilon * m
            if math.isfinite(mu) and math.isfinite(slack):
                terms[a] = terms[a] + mu * self.outer
                terms[b] = terms[b] + mu * self.axes[b]
                widen = 0.5 * sys.float_info.epsilon * d_max
                lo, hi = lo - widen, hi + widen
                target = self.nat + mu / (self.spring.k1 if mu < 0.0 else self.spring.k2)
            else:
                mu, slack = 0.0, 0.0
        theta = np.minimum(np.maximum(target, lo), hi)
        d = theta - self.nat
        spring = np.where(d < 0.0, self.half_k1, self.half_k2) * d * d
        if mu:
            spring -= mu * theta
        spring[infeasible] = np.inf
        bound = np.empty(self.tiles)
        bound[...] = _spread(spring, a, self.ndof)
        for i, term in enumerate(terms):
            bound += _spread(self.lowest(term, i), i, self.ndof)
        for i in self.pairs:
            ys = (self.lowest(self.axes[i + 1], i + 1), self.highest(self.axes[i + 1], i + 1))
            corners = [np.multiply.outer(p, y) for p in (self.lowest(self.scaled[i], i),
                                                        self.highest(self.scaled[i], i))
                       for y in ys]
            bound += _spread(np.minimum.reduce(corners), i, self.ndof)
        bound = bound.ravel()
        if slack:
            bound -= slack
        return bound

    def origin(self, t: int) -> list[int]:
        """Grid index of tile t's first point."""
        return [t // stride % n * edge for stride, n, edge in zip(self.strides, self.tiles,
                                                                 self.edges)]

    def tile_energies(self, t: int) -> np.ndarray:
        """The energies of tile t's points, shaped as the tile.

        A point's energy is a fixed sum of terms, each computed by the same
        float operations at every point: the spring term of its gap (inf
        outside the gap bounds), one term `(0.5*diag[i]*x - b[i])*x` per DOF
        and one `off[i]*x[i]*x[i+1]` per coupled pair.
        """
        n1 = self.n1
        keys = [(slice(None),) * i + (slice(o, o + edge),)
                for i, (o, edge) in enumerate(zip(self.origin(t), self.edges))]
        x = [v[k] for v, k in zip(self.xs, keys)]
        g1, g2 = (t // self.strides[i] % self.tiles[i] for i in (n1 - 1, n1))
        theta = self.outer_spread[keys[n1 - 1]] + x[n1]
        d = theta - self.nat
        # ((0.5*k)*d)*d with k1 below the natural length and k2 from it on; the
        # tile's extremes of d say whether it needs the mask
        spring = d * (self.half_k2 if self.d_hi[g1, g2] >= 0.0 else self.half_k1)
        if self.d_lo[g1, g2] < 0.0 <= self.d_hi[g1, g2]:
            np.multiply(d, self.half_k1, out=spring, where=d < 0.0)
        spring *= d
        if self.theta_lo[g1, g2] < self.glo - 1e-12:
            spring[theta < self.glo - 1e-12] = np.inf
        if self.theta_hi[g1, g2] > self.ghi + 1e-12:
            spring[theta > self.ghi + 1e-12] = np.inf
        energy = np.add(spring, self.ts[0][keys[0]],
                        out=np.empty(tuple(v.shape[i] for i, v in enumerate(x))))
        for v, k in zip(self.ts[1:], keys[1:]):
            energy += v[k]
        for i in self.pairs:
            energy += self.ps[i][keys[i]] * x[i + 1]
        return energy

    def empty_error(self) -> EmptyFeasibleGrid:
        """The error for a grid without a point of finite energy."""
        n1, glo, ghi = self.n1, self.glo, self.ghi
        ea, eb = self.edges[n1 - 1], self.edges[n1]
        for a, c in zip(*np.nonzero((self.theta_hi >= glo - 1e-12)
                                    & (self.theta_lo <= ghi + 1e-12))):
            gap = np.add.outer(self.outer[a * ea:a * ea + ea], self.axes[n1][c * eb:c * eb + eb])
            if not np.all((gap < glo - 1e-12) | (gap > ghi + 1e-12)):
                return EmptyFeasibleGrid("the energy overflows at every feasible grid point")
        return EmptyFeasibleGrid(f"no grid point satisfies gap bounds [{glo}, {ghi}]")


@np.errstate(all="ignore")  # an overflowing bound or energy is inf or NaN, never a warning
def grid_search_minimizer(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant, bounds, step: float) -> DofVector:
    """Feasible grid point of minimal total energy (brute force).

    `bounds` is one (lo, hi) pair of finite reals shared by every free DOF,
    or a sequence with one pair per DOF; `step` is a finite real above 0.  At
    most six DOFs and 2**23 grid points, a cap that bounds the run time.

    The grid is cut into tiles, Cartesian products of per-axis chunks whose
    edges `_tile_edges` fits to the axes within `_BLOCK_POINTS` points.  Each
    tile gets a lower bound on the energies computed in it (`_Grid.tile_bounds`):
    a multiplier mu on the gap splits the spring's coupling of the two gap
    DOFs, so the spring bracket and the shifted DOF terms bottom out near the
    same point, and the bound gives up a rounding slack derived there.  mu
    is the multiplier of the box's own gap problem (`_Grid.multiplier`), a
    gap bound's reaction where one is active, 0 if that is not finite; any
    mu gives a valid bound.

    Tiles are evaluated in ascending order of bound (stable), each into
    arrays of the tile's size, and the search stops at the first tile whose bound
    exceeds the best energy; tiles of bound inf are never evaluated, and
    tiles of NaN bound always.  Of equal energies the first point in C
    order wins, so the result is the first minimum of the whole grid, bit
    for bit, whatever the tile size; a NaN energy never wins.  Nothing warns:
    if feasible points exist but no energy among them is finite, the
    EmptyFeasibleGrid raised says the energy overflows.  Memory per call is
    one tile's arrays plus one bound per tile, beside the axes.  By convexity
    the result lies within one grid step of the true minimizer in every
    coordinate.
    """
    grid = _Grid(system, spring, variant, bounds, step)
    bound = grid.tile_bounds(grid.multiplier())
    bound[np.isnan(bound)] = -np.inf  # evaluated first, never skipped
    best, best_energy = (), math.inf  # () sorts before any index: an inf never wins
    for t in map(int, np.argsort(bound, kind="stable")):
        if bound[t] > best_energy or bound[t] == math.inf:
            break
        energy = grid.tile_energies(t)
        flat = energy.ravel()
        j = flat.argmin()
        if math.isnan(flat[j]):
            np.copyto(flat, np.inf, where=np.isnan(flat))
            j = flat.argmin()
        if flat[j] <= best_energy:
            index = tuple(o + int(k) for o, k in zip(grid.origin(t),
                                                     np.unravel_index(j, energy.shape)))
            if (flat[j], index) < (best_energy, best):  # index tuples compare in C order
                best, best_energy = index, flat[j]
    if not best:  # every feasible point's energy is inf or NaN, if there is one
        raise grid.empty_error()
    u = np.array([axis[k] for axis, k in zip(grid.axes, best)])
    return DofVector(u[:grid.n1], u[grid.n1:])
