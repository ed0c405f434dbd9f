"""Equilibrium solvers for the condensed interface problem.

The discrete energy restricted to interior-minimized states is a convex,
piecewise-quadratic function of the interface pair (g1, g2): a quadratic
part plus the spring potential of the gap change t = g2 - g1 in the bounds
that `_bounds` converts into t (-2l, 0 or inf).  All work in t: the gap 2l + t
keeps only the bits of t above the ulp of 2l, so it is formed for output only.
The condensed stiffness S = (s1, s2) is diagonal, so minimizing out (g1, g2)
at a fixed t leaves a convex function of t alone, set by d = r2/s2 - r1/s1
(the spring-free gap change) and the interface compliance C = 1/s1 + 1/s2 =
L1/E1 + L2/E2, both from `_spring_free`, which returns d/2.  `solve_exact`
clamps its minimizer d/(1 + k*C) into the bounds; the projected gradient and
the fixed point are independent iterative cross-checks, each ending on a clamp
of its own.  Each state goes with the bound its last `_clamp` reached to
`_record`, which labels it by `_regime`, with no tolerance, refuses it if it
overflows, and builds the immutable `_Interface` that the studies read and
whose `solution` alone builds an `EquilibriumSolution`.  All on plain floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleCandidate, NoConsistentRegime, NonPositiveLambda, ValidationError
from .fem import (DiscreteSystem, DofVector, ReducedSystem, build_mesh, assemble,
                  recover_full, schur_reduce)
from .model import (ConstraintVariant, PenaltyVariant, ProblemSpec, SpringLaw,
                    _check_natural_length, _check_type, _real)

_Pair = tuple[float, float]


@dataclass(frozen=True)
class SolverConfig:
    """The stopping rule of the iterative solvers: step tolerance and iteration cap."""

    tolerance: float = 1e-8
    max_iterations: int = 100_000

    def __post_init__(self):
        _real("tolerance", self.tolerance, 0.0, math.inf, ValidationError)
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValidationError(f"iteration cap must be an integer, got {self.max_iterations!r}")
        _real("iteration cap", self.max_iterations, 0, math.inf, ValidationError)


@dataclass(frozen=True)
class SolverDiagnostics:
    method: str
    iterations: int
    residual: float
    regime: str
    converged: bool = True
    step_ratios: tuple[float, ...] = ()


@dataclass(frozen=True)
class EquilibriumSolution:
    """Nodal displacements plus the interface state of one equilibrium.

    theta is the gap (current spring length), s the common stress value at
    the inner rod ends.  When a gap bound is active, theta is reported as
    the exact bound value; contact holds exactly in the "contact" regime.
    """

    u: DofVector
    g1: float
    g2: float
    theta: float
    s: float
    contact: bool
    active_bound: str | None
    diagnostics: SolverDiagnostics


@dataclass(frozen=True)
class PenaltyProblem:
    """A base non-penetration problem stiffened by (1/lam) times the penalty of a variant.

    lam must be positive and finite: an infinite lam would drop the penalty.
    """

    base: ProblemSpec
    variant: PenaltyVariant
    lam: float

    def __post_init__(self):
        _check_type("base problem", self.base, ProblemSpec)
        _check_type("penalty variant", self.variant, PenaltyVariant)
        _real("penalty parameter", self.lam, 0.0, math.inf, NonPositiveLambda)
        if self.base.variant is not ConstraintVariant.NON_PENETRATION:
            raise ValidationError("penalized problems are posed over the non-penetration set")


def effective_spring(spring: SpringLaw, variant: PenaltyVariant, lam: float) -> SpringLaw:
    """Spring law whose potential equals the original plus the scaled penalty.

    The penalty potential is quadratic on the side(s) it acts on, so adding
    (1/lam) of it just raises the corresponding stiffness coefficient.
    """
    _check_type("spring", spring, SpringLaw)
    _check_type("penalty variant", variant, PenaltyVariant)
    dk = 1.0 / _real("penalty parameter", lam, 0.0, math.inf, NonPositiveLambda)
    below, above = variant.sides
    return SpringLaw(spring.k1 + (dk if below else 0.0), spring.k2 + (dk if above else 0.0),
                     spring.natural_length)


# ---------------------------------------------------------------------------
# the exact gap


def _bounds(variant: ConstraintVariant, l: float) -> _Pair:
    """The variant's gap bounds as bounds (lo, hi) of the gap change t: -2l, 0 or inf."""
    lo, hi = variant.bounds(l)
    return lo - 2.0 * l, hi - 2.0 * l


def _at_gap(reduced: ReducedSystem, t: float) -> _Pair:
    """The minimizer g = (g1, g1 + t) of the reduced energy at the gap change t: g1 is
    (r1 + r2 - s2*t)/(s1 + s2), and g2 = g1 + t keeps a zero gap change exact."""
    (s1, s2), (r1, r2) = reduced.S, reduced.r
    g1 = (r1 + r2 - s2 * t) / (s1 + s2)
    return g1, g1 + t


def _spring_free(reduced: ReducedSystem) -> _Pair:
    """(d/2, C): half the spring-free gap change r2/s2 - r1/s1 and the compliance 1/s1 + 1/s2."""
    (s1, s2), (r1, r2) = reduced.S, reduced.r
    return 0.5 * (r2 / s2) - 0.5 * (r1 / s1), 1.0 / s1 + 1.0 / s2


#: The bound each bound-active label holds; every other label holds none.
_ACTIVE_BOUND = {"rigid": "both", "contact": "lower", "bound-lower": "lower",
                 "bound-upper": "upper"}


class _Interface(NamedTuple):
    """One labelled interface state: the gap pair g, its gap change t, the regime
    label and the stress s, with the condensed system, the spring and the bounds
    [lo, hi] of t it was reached under.  `_record` builds every one, and hands
    over the field u where it recovered it for its overflow check."""

    reduced: ReducedSystem
    spring: SpringLaw
    lo: float
    hi: float
    g: _Pair
    t: float
    label: str
    s: float
    u: DofVector | None = None

    @property
    def theta(self) -> float:
        """The gap 2l + t that the state reports."""
        return 2.0 * self.reduced.system.mesh.geometry.l + self.t

    @property
    def residual(self) -> float:
        """KKT residual of g: tangential gradient, multiplier sign and gap feasibility."""
        (g1, g2), (s1, s2), (r1, r2) = self.g, self.reduced.S, self.reduced.r
        t = self.t
        slope = self.spring.potential_slope(t)
        grad1, grad2 = s1 * g1 - r1 - slope, s2 * g2 - r2 + slope
        mu = (grad2 - grad1) / 2.0
        tangential = max(abs(grad1 + mu), abs(grad2 - mu))
        sign_violation = {"lower": max(0.0, -mu), "upper": max(0.0, mu),
                          "both": 0.0}.get(_ACTIVE_BOUND.get(self.label), abs(mu))
        return max(tangential, sign_violation, self.lo - t, t - self.hi)  # t is finite

    def solution(self, method: str, iterations: int = 0, converged: bool = True,
                 step_ratios: tuple[float, ...] = ()) -> EquilibriumSolution:
        """The field at g, which `_record` has shown to be finite: the one it
        recovered for that, else recovered here."""
        diag = SolverDiagnostics(method, iterations, self.residual, self.label, converged,
                                 step_ratios)
        u = recover_full(self.reduced, *self.g) if self.u is None else self.u
        return EquilibriumSolution(u, *self.g, self.theta, self.s, self.label == "contact",
                                   _ACTIVE_BOUND.get(self.label), diag)


def _clamp(x: float, lo: float, hi: float) -> tuple[float, str | None]:
    """min(max(x, lo), hi), and the bound reached: "lower" if x <= lo, else "upper" if x >= hi."""
    return min(max(x, lo), hi), ("lower" if x <= lo else "upper" if x >= hi else None)


def _regime(lo: float, hi: float, half: float, bound: str | None) -> str:
    """The label of a clamp's branch: rigid if lo == hi, the breakpoint if d/2 == 0, then
    the bound the clamp reached (its t is that bound, -2l or 0), else the side of d."""
    if lo == hi:
        return "rigid"
    if half == 0.0:
        return "breakpoint"
    if bound is not None:
        return "bound-upper" if bound == "upper" else "contact" if lo < 0.0 else "bound-lower"
    return "compression" if half < 0.0 else "extension"


def _record(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float, g: _Pair,
            t: float, bound: str | None) -> _Interface:
    """The record of the pair g at the gap change t, labelled by `_regime` from the bound its
    last `_clamp` reached: NoConsistentRegime unless g1, g2, s and the field at g are
    finite.  The field is recovered for this check only where `field_surely_finite` cannot
    prove it, and the record then carries it."""
    s = reduced.S[0] * g[0] - reduced.r[0]
    finite = all(map(math.isfinite, (*g, s)))
    u = None
    if finite and not reduced.field_surely_finite(*g):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            u = recover_full(reduced, *g)
        finite = bool(np.isfinite(u.rod1).all() and np.isfinite(u.rod2).all())
    if not finite:
        raise NoConsistentRegime(f"equilibrium overflows: g1={g[0]}, g2={g[1]}, s={s} "
                                 f"or the nodal field is not finite")
    label = _regime(lo, hi, _spring_free(reduced)[0], bound)
    return _Interface(reduced, spring, lo, hi, g, t, label, s, u)


def _exact(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float) -> _Interface:
    """The reduced energy's minimizer over the gap change t = g2 - g1, labelled by its branch.

    Along W.g = t the energy is (t - d)^2/(2C) plus the spring potential of
    t, convex in t alone, so the minimizer is d/(1 + k*C) clamped into the
    bounds [lo, hi] of t, k the stiffness on the side d points to.  It is
    formed from d/2, so it is finite wherever d/2 is."""
    half, compliance = _spring_free(reduced)
    k = spring.k1 if half < 0.0 else spring.k2
    t, bound = _clamp(2.0 * (half / (1.0 + k * compliance)), lo, hi)
    return _record(reduced, spring, lo, hi, _at_gap(reduced, t), t, bound)


def _penalized(penalty: PenaltyProblem) -> tuple[SpringLaw, float, float]:
    """(effective spring, lo, hi) of a penalized problem, as `_exact` takes them."""
    return (effective_spring(penalty.base.spring, penalty.variant, penalty.lam),
            *_bounds(ConstraintVariant.NON_PENETRATION, penalty.base.geometry.l))


def solve_exact(reduced: ReducedSystem, spring: SpringLaw, variant: ConstraintVariant,
                l: float) -> EquilibriumSolution:
    """Global minimizer of the reduced convex energy at its mesh's half-gap l: the clamped gap."""
    _check_type("reduced system", reduced, ReducedSystem)
    _check_type("variant", variant, ConstraintVariant)
    geometry = reduced.system.mesh.geometry
    if l != geometry.l:
        raise ValidationError(f"half-gap {l!r} is not the mesh's {geometry.l!r}")
    _check_natural_length(spring, geometry)
    return _exact(reduced, spring, *_bounds(variant, l)).solution("exact")


def solve_penalized(reduced: ReducedSystem, penalty: PenaltyProblem) -> EquilibriumSolution:
    """Equilibrium with the penalty acting as extra stiffness of 1/lam.

    The penalized energy is the base energy plus (1/lam) times the penalty
    potential of the gap, minimized over the non-penetration set; its
    stationarity reproduces the penalized inequality because the penalty
    potential has slope equal to minus the penalty force.  `reduced` is the
    condensed system of `penalty.base`, or of a mesh with its gap 2l.
    """
    _check_type("reduced system", reduced, ReducedSystem)
    _check_type("penalty problem", penalty, PenaltyProblem)
    _check_natural_length(penalty.base.spring, reduced.system.mesh.geometry)
    return _exact(reduced, *_penalized(penalty)).solution("penalized")


# ---------------------------------------------------------------------------
# projected gradient


def _posed(system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
           config: SolverConfig | None) -> tuple[SolverConfig, ReducedSystem, float, float]:
    """(config or the default, condensed system, lo, hi of t) of an iterative solve."""
    _check_type("system", system, DiscreteSystem)
    _check_type("variant", variant, ConstraintVariant)
    _check_natural_length(spring, geometry := system.mesh.geometry)
    return config or SolverConfig(), schur_reduce(system), *_bounds(variant, geometry.l)


def _project_gap(g: _Pair, lo: float, hi: float) -> tuple[_Pair, float, str | None]:
    """(pair, t, bound): the gap change t = g2 - g1 `_clamp`ed into [lo, hi], and g moved
    to t keeping g1 + g2.  The clamped t is set, never added, and returned with the
    pair: at a large |g1 + g2| the moved pair's g2 - g1 rounds it away."""
    g1, g2 = g
    t, bound = _clamp(g2 - g1, lo, hi)
    if t == g2 - g1:
        return g, t, bound
    return (0.5 * (g1 + g2 - t), 0.5 * (g1 + g2 + t)), t, bound


def solve_projected_gradient(system: DiscreteSystem, spring: SpringLaw,
                             variant: ConstraintVariant,
                             config: SolverConfig | None = None) -> EquilibriumSolution:
    """Projected gradient on the reduced two-DOF energy with the fixed step 1/L.

    L = max(diag S) + 2*max(k1, k2) is the Lipschitz constant of the reduced
    gradient, so every step descends.  The iteration stops once a step's
    energy norm is at most the tolerance, or unconverged once it is NaN: an
    iterate is then inf or NaN, and no later step makes it finite again.
    The gap reported is the one the last projection set, and its label that clamp's branch.
    A penalized problem is solved with its `effective_spring` over NON_PENETRATION.
    """
    cfg, reduced, lo, hi = _posed(system, spring, variant, config)

    (s1, s2), (r1, r2) = reduced.S, reduced.r
    step = 1.0 / (max(s1, s2) + 2.0 * spring.lipschitz)
    (g1, g2), t, bound = _project_gap((0.0, 0.0), lo, hi)
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        slope = spring.potential_slope(g2 - g1)
        (new1, new2), t, bound = _project_gap((g1 - step * (s1 * g1 - r1 - slope),
                                               g2 - step * (s2 * g2 - r2 + slope)), lo, hi)
        delta = reduced.interface_vnorm((new1 - g1, new2 - g2))
        g1, g2 = new1, new2
        iterations += 1
        if delta <= cfg.tolerance:
            converged = True
            break
        if math.isnan(delta):
            break
    return _record(reduced, spring, lo, hi, (g1, g2), t, bound).solution(
        "projected-gradient", iterations, converged)


# ---------------------------------------------------------------------------
# fixed point on the frozen-gap problems


def solve_qvi_fixed_point(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant,
                          config: SolverConfig | None = None) -> EquilibriumSolution:
    """Outer relaxation of the gap change t on the gap-frozen problems.

    Each inner problem replaces the spring potential by the affine work of
    the force frozen at the gap change t, a load change of +/- force on the
    interface equations, so its gap change inner(t) is d + C*force clamped
    into the gap bounds (d and C from `_spring_free`).  The force is
    nonincreasing with slope in [-Lp, 0], so inner is nonincreasing with
    slope in [-Lp*C, 0], and the relaxation T(t) = (1 - w)*t + w*inner(t)
    with the damping w = 1/(1 + Lp*C) is nondecreasing with slope in
    [0, Lp*C/(1 + Lp*C)]: in exact arithmetic the steps cannot grow.
    The relaxation runs on t/2 from d/2, so d, which may overflow where its
    half does not, is never formed; halving is exact, so each t is the same.
    A step is the energy norm between the `_at_gap` pairs of consecutive t,
    the first measured from the zero pair.  The loop stops on the first
    step that is not above the tolerance: converged if it is at most the
    tolerance, unconverged if it is NaN (an iterate overflowed); otherwise
    it ends unconverged after max_iterations steps.  The step ratios are
    those of consecutive steps whose first step is > 0.  The state is the last inner clamp.
    """
    cfg, reduced, lo, hi = _posed(system, spring, variant, config)
    half, compliance = _spring_free(reduced)
    omega = 1.0 / (1.0 + spring.lipschitz * compliance)
    half_lo, half_hi = 0.5 * lo, 0.5 * hi

    def inner(tau: float) -> tuple[float, str | None]:  # half the inner gap change at 2*tau
        return _clamp(half + (0.5 * compliance) * spring.force(2.0 * tau), half_lo, half_hi)

    tau = 0.0
    g = (0.0, 0.0)
    steps: list[float] = []
    while len(steps) < cfg.max_iterations:
        tau += omega * (inner(tau)[0] - tau)
        new = _at_gap(reduced, 2.0 * tau)
        steps.append(reduced.interface_vnorm((new[0] - g[0], new[1] - g[1])))
        g = new
        if not steps[-1] > cfg.tolerance:
            break
    ratios = tuple(b / a for a, b in zip(steps, steps[1:]) if a > 0.0)
    half_t, bound = inner(tau)
    t = 2.0 * half_t
    return _record(reduced, spring, lo, hi, _at_gap(reduced, t), t, bound).solution(
        "fixed-point", len(steps), steps[-1] <= cfg.tolerance, ratios)


# ---------------------------------------------------------------------------
# inequality residual certificate


def vi_residual(system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
                candidate: DofVector, trials: int = 1000, seed: int = 0) -> float:
    """Least VI value of the candidate u over the feasible directions d = v - u, |d|_1 <= 1.

    With the force frozen at u's gap change t = g2 - g1 the VI is c.d: c = A u - f on the full
    field, plus the force at g1 (entry a = n1 - 1) and minus it at g2 (b = n1).  A feasible d
    keeps d_b - d_a >= 0 at an active lower bound, <= 0 at an upper one and 0 at both, so the
    feasible l1 ball has the vertices +-e_i off the gap, the +-e_a, +-e_b this cone admits and
    +-(e_a + e_b)/2.  As c_a d_a + c_b d_b = tau*(d_a + d_b) + mu*(d_b - d_a) with tau, mu =
    (c_b +- c_a)/2, the least c.d is -max(max |c_i| off the gap, |tau| + v), v counting mu > 0
    unless the lower bound is active and mu < 0 unless the upper one is: the normal cone of a
    convex VI.  So a value >= -tolerance certifies u.  The bound is read from t within 1e-9
    plus 8 eps of l + |g1|/2 + |g2|/2; a t past a bound by more is InfeasibleCandidate, rods
    not finite real arrays of shapes (n1,), (n2,) a ValidationError, and a c or a value not
    finite gives -inf.  `trials` and `seed` are ignored: nothing is drawn.
    """
    _check_type("system", system, DiscreteSystem)
    _check_type("variant", variant, ConstraintVariant)
    _check_natural_length(spring, system.mesh.geometry)
    rods, (n1, n2) = (candidate.rod1, candidate.rod2), (system.mesh.n1, system.mesh.n2)
    got = [r.shape if isinstance(r, np.ndarray) else type(r).__name__ for r in rods]
    if got != [(n1,), (n2,)] or not all(r.dtype.kind in "iuf" for r in rods):
        raise ValidationError(f"need real rod arrays of shapes ({n1},) and ({n2},), got {got}")
    if not all(np.isfinite(r).all() for r in rods):
        raise ValidationError("candidate has a non-finite entry")
    l, g1, g2 = system.mesh.geometry.l, candidate.g1, candidate.g2
    (lo, hi), t = _bounds(variant, l), g2 - g1
    tol = 1e-9 + 8.0 * math.ulp(1.0) * (l + 0.5 * abs(g1) + 0.5 * abs(g2))
    if not lo - tol <= t <= hi + tol:
        raise InfeasibleCandidate(f"gap change {t} outside [{lo}, {hi}]")
    with np.errstate(over="ignore", invalid="ignore"):
        au = system.apply(candidate)
        c = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
    ca, cb = float(c[n1 - 1]) + spring.force(t), float(c[n1]) - spring.force(t)
    c[n1 - 1] = c[n1] = 0.0
    if not (np.isfinite(c).all() and math.isfinite(ca) and math.isfinite(cb)):
        return -math.inf
    tau, mu = 0.5 * ca + 0.5 * cb, 0.5 * cb - 0.5 * ca
    v = max(0.0, 0.0 if t <= lo + tol else mu, 0.0 if t >= hi - tol else -mu)
    return -max(float(np.max(np.abs(c))), abs(tau) + v)  # -inf if the sum overflows


# ---------------------------------------------------------------------------
# one-call front end


def solve(problem: ProblemSpec | PenaltyProblem, mesh_sizes: tuple[int, int] = (4, 4),
          method: str = "exact", config: SolverConfig | None = None) -> EquilibriumSolution:
    """Assemble, condense and solve one problem with the chosen method.

    A `PenaltyProblem` is posed on its base's mesh and loads; "fixed-point" refuses it.
    """
    _check_type("problem", problem, ProblemSpec, PenaltyProblem)
    _check_type("config", config, SolverConfig, type(None))
    if not (isinstance(mesh_sizes, tuple) and len(mesh_sizes) == 2):
        raise ValidationError(f"mesh sizes: need a pair of element counts, got {mesh_sizes!r}")
    penalty = problem if isinstance(problem, PenaltyProblem) else None
    base = problem if penalty is None else penalty.base
    mesh = build_mesh(base.geometry, *mesh_sizes)
    system = assemble(mesh, base.material, base.forces)
    if method == "exact":
        reduced = schur_reduce(system)
        if penalty is not None:
            return solve_penalized(reduced, penalty)
        return solve_exact(reduced, base.spring, base.variant, base.geometry.l)
    if method == "gradient":
        spring = base.spring if penalty is None else _penalized(penalty)[0]
        return solve_projected_gradient(system, spring, base.variant, config)
    if method == "fixed-point":
        if penalty is not None:
            raise ValidationError("the fixed-point solver does not take a penalty term")
        return solve_qvi_fixed_point(system, base.spring, base.variant, config)
    raise ValidationError(f"unknown method {method!r}")
