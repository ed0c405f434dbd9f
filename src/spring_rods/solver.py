"""Equilibrium solvers for the condensed interface problem.

The discrete energy restricted to interior-minimized states is a convex,
piecewise-quadratic function of the interface pair (g1, g2): a quadratic
part plus the spring potential of the gap, subject to the gap bounds of the
constraint variant.  The condensed stiffness S = (s1, s2) is diagonal, so
minimizing out (g1, g2) at a fixed gap change t = g2 - g1 leaves a convex
function of t alone, set by d = r2/s2 - r1/s1 (the spring-free gap change)
and the interface compliance C = 1/s1 + 1/s2 = L1/E1 + L2/E2, both from
`_spring_free`.  `solve_exact` clamps its minimizer d/(1 + k*C) into the gap
bounds; the projected gradient and fixed-point solvers are independent
iterative cross-checks.  Each solver's gap goes to `_label`, the one regime
labeller and the one place that refuses an overflowing state, whose immutable
`_Interface` record the studies read and whose `solution` alone builds an
`EquilibriumSolution`.  All work on plain floats.
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
from .model import (ConstraintVariant, PenaltyLaw, ProblemSpec, SpringLaw,
                    _check_natural_length, _real, spring_gap)

_Pair = tuple[float, float]

#: A spring-free gap change below this fraction of the compliance is the breakpoint.
_BREAKPOINT_TOL = 1e-9


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
    """A base non-penetration problem stiffened by (1/lam) times a penalty law.

    lam must be positive and finite: an infinite lam would drop the penalty.
    The law must act around the spring's natural length 2l.
    """

    base: ProblemSpec
    law: PenaltyLaw
    lam: float

    def __post_init__(self):
        _real("penalty parameter", self.lam, 0.0, math.inf, NonPositiveLambda)
        if self.base.variant is not ConstraintVariant.NON_PENETRATION:
            raise ValidationError("penalized problems are posed over the non-penetration set")
        _check_natural_length("penalty law", self.law.natural_length, self.base.geometry)


def effective_spring(spring: SpringLaw, law: PenaltyLaw, lam: float) -> SpringLaw:
    """Spring law whose potential equals the original plus the scaled penalty.

    The penalty potential is quadratic on the side(s) it acts on, so adding
    (1/lam) of it just raises the corresponding stiffness coefficient.
    """
    dk = 1.0 / lam
    below, above = law.variant.sides
    return SpringLaw(spring.k1 + (dk if below else 0.0), spring.k2 + (dk if above else 0.0),
                     spring.natural_length)


# ---------------------------------------------------------------------------
# the exact gap


def _at_gap(reduced: ReducedSystem, t: float) -> _Pair:
    """The minimizer g = (g1, g1 + t) of the reduced energy at the gap 2l + t: g1 is
    (r1 + r2 - s2*t)/(s1 + s2), and g2 = g1 + t keeps a zero gap change exact."""
    (s1, s2), (r1, r2) = reduced.S, reduced.r
    g1 = (r1 + r2 - s2 * t) / (s1 + s2)
    return g1, g1 + t


def _spring_free(reduced: ReducedSystem) -> _Pair:
    """(d, C): the spring-free gap change r2/s2 - r1/s1 and the compliance 1/s1 + 1/s2."""
    (s1, s2), (r1, r2) = reduced.S, reduced.r
    return r2 / s2 - r1 / s1, 1.0 / s1 + 1.0 / s2


class _Interface(NamedTuple):
    """One labelled interface state: the gap pair g, its gap theta, the regime
    label and the active bound, with the condensed system, the spring and the
    gap bounds [lo, hi] it was reached under.  `_label` builds every one, and
    hands over the field u where it recovered it for its overflow check."""

    reduced: ReducedSystem
    spring: SpringLaw
    lo: float
    hi: float
    g: _Pair
    theta: float
    label: str
    bound: str | None
    u: DofVector | None = None

    @property
    def s(self) -> float:
        return self.reduced.S[0] * self.g[0] - self.reduced.r[0]

    @property
    def residual(self) -> float:
        """KKT residual of g: tangential gradient, multiplier sign and gap feasibility."""
        (g1, g2), (s1, s2), (r1, r2) = self.g, self.reduced.S, self.reduced.r
        lo, hi, theta = self.lo, self.hi, self.theta
        slope = self.spring.potential_slope(theta)
        grad1, grad2 = s1 * g1 - r1 - slope, s2 * g2 - r2 + slope
        feas = max(0.0, lo - theta) + max(0.0, theta - (hi if math.isfinite(hi) else theta))
        mu = (grad2 - grad1) / 2.0
        tangential = max(abs(grad1 + mu), abs(grad2 - mu))
        sign_violation = {"lower": max(0.0, -mu), "upper": max(0.0, mu),
                          "both": 0.0}.get(self.bound, abs(mu))
        return max(tangential, sign_violation, feas)

    def solution(self, method: str, iterations: int = 0, converged: bool = True,
                 step_ratios: tuple[float, ...] = ()) -> EquilibriumSolution:
        """The field at g, which `_label` has shown to be finite: the one it
        recovered for that, else recovered here."""
        diag = SolverDiagnostics(method, iterations, self.residual, self.label, converged,
                                 step_ratios)
        u = recover_full(self.reduced, *self.g) if self.u is None else self.u
        return EquilibriumSolution(u, *self.g, self.theta, self.s, self.label == "contact",
                                   self.bound, diag)


def _label(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float, two_l: float,
           g: _Pair, theta: float) -> _Interface:
    """The one regime labeller: the state of every solver's gap theta at its pair g.

    A gap within 1e-11 of a bound is snapped to the exact bound value.  First,
    though, a gap within 1e-11 of 2l is the breakpoint, with no active bound,
    whenever d lies within _BREAKPOINT_TOL*C of zero, as in `_exact`; a bound
    that would snap such a gap snaps it to 2l.

    It is the one place that refuses an overflowing state: unless g1, g2, s and
    the field at g are finite, it raises NoConsistentRegime.  The field is
    recovered for this check only where `field_surely_finite` cannot prove it,
    and the record then carries it.
    """
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
    d, compliance = _spring_free(reduced)
    near_two_l = abs(theta - two_l) <= 1e-11
    bound = None
    if lo == hi:
        theta, label, bound = lo, "rigid", "both"
    elif near_two_l and abs(d / compliance) <= _BREAKPOINT_TOL:
        theta = two_l if min(abs(theta - lo), abs(theta - hi)) <= 1e-11 else theta
        label = "breakpoint"
    elif abs(theta - lo) <= 1e-11:
        theta, label, bound = lo, ("contact" if lo == 0.0 else "bound-lower"), "lower"
    elif abs(theta - hi) <= 1e-11:
        theta, label, bound = hi, "bound-upper", "upper"
    else:
        label = "breakpoint" if near_two_l else "compression" if theta < two_l else "extension"
    return _Interface(reduced, spring, lo, hi, g, theta, label, bound, u)


def _exact(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
           l: float) -> _Interface:
    """The reduced energy's minimizer over the gap change t = g2 - g1.

    Along W.g = t the energy is (t - d)^2/(2C) plus the spring potential of
    2l + t, convex in t alone, so the minimizer is d/(1 + k*C) clamped into
    the gap bounds, k the stiffness on the side d points to; a d within
    _BREAKPOINT_TOL*C of zero is the breakpoint t = 0."""
    two_l = 2.0 * l
    d, compliance = _spring_free(reduced)
    t = 0.0
    if lo == hi or not abs(d / compliance) <= _BREAKPOINT_TOL:
        k = spring.k1 if d < 0.0 else spring.k2
        t = min(max(d / (1.0 + k * compliance), lo - two_l), hi - two_l)
        if not lo <= two_l + t <= hi:
            raise NoConsistentRegime(
                f"gap {two_l + t} outside [{lo}, {hi}] with k1={spring.k1}, k2={spring.k2}")
    return _label(reduced, spring, lo, hi, two_l, _at_gap(reduced, t), two_l + t)


def _penalized(penalty: PenaltyProblem) -> tuple[SpringLaw, float, float, float]:
    """(effective spring, lo, hi, l) of a penalized problem, as `_exact` takes them."""
    l = penalty.base.geometry.l
    return (effective_spring(penalty.base.spring, penalty.law, penalty.lam),
            *ConstraintVariant.NON_PENETRATION.bounds(l), l)


def solve_exact(reduced: ReducedSystem, spring: SpringLaw, variant: ConstraintVariant,
                l: float) -> EquilibriumSolution:
    """Global minimizer of the reduced convex energy: the clamped scalar gap."""
    return _exact(reduced, spring, *variant.bounds(l), l).solution("exact")


def solve_penalized(reduced: ReducedSystem, penalty: PenaltyProblem) -> EquilibriumSolution:
    """Equilibrium with the penalty acting as extra stiffness of 1/lam.

    The penalized energy is the base energy plus (1/lam) times the penalty
    potential of the gap, minimized over the non-penetration set; its
    stationarity reproduces the penalized inequality because the penalty
    potential has slope equal to minus the penalty force.  `reduced` is the
    condensed system of `penalty.base`.
    """
    return _exact(reduced, *_penalized(penalty)).solution("penalized")


# ---------------------------------------------------------------------------
# projected gradient


def _project_gap(g: _Pair, lo: float, hi: float, two_l: float) -> tuple[_Pair, float]:
    """(pair, t): the gap change t = g2 - g1 clamped into the gap bounds, and g moved to it
    keeping g1 + g2.  The clamped t is set, never added, and returned with the pair: at a
    large |g1 + g2| the moved pair's g2 - g1 rounds it away."""
    g1, g2 = g
    t = min(max(g2 - g1, lo - two_l), hi - two_l)
    if t == g2 - g1:
        return g, t
    return (0.5 * (g1 + g2 - t), 0.5 * (g1 + g2 + t)), t


def solve_projected_gradient(system: DiscreteSystem, spring: SpringLaw,
                             variant: ConstraintVariant,
                             config: SolverConfig | None = None) -> EquilibriumSolution:
    """Projected gradient on the reduced two-DOF energy with the fixed step 1/L.

    L = max(diag S) + 2*max(k1, k2) is the Lipschitz constant of the reduced
    gradient, so every step descends.  The iteration stops once a step's
    energy norm is at most the tolerance, or unconverged once it is NaN: an
    iterate is then inf or NaN, and no later step makes it finite again.
    The gap reported is the one the last projection set.
    A penalized problem is solved with its `effective_spring` over NON_PENETRATION.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    lo, hi = variant.bounds(l)

    (s1, s2), (r1, r2) = reduced.S, reduced.r
    step = 1.0 / (max(s1, s2) + 2.0 * spring.lipschitz)
    (g1, g2), t = _project_gap((0.0, 0.0), lo, hi, two_l)
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        slope = spring.potential_slope(two_l + (g2 - g1))
        (new1, new2), t = _project_gap((g1 - step * (s1 * g1 - r1 - slope),
                                        g2 - step * (s2 * g2 - r2 + slope)), lo, hi, two_l)
        delta = reduced.interface_vnorm((new1 - g1, new2 - g2))
        g1, g2 = new1, new2
        iterations += 1
        if delta <= cfg.tolerance:
            converged = True
            break
        if math.isnan(delta):
            break
    return _label(reduced, spring, lo, hi, two_l, (g1, g2), two_l + t).solution(
        "projected-gradient", iterations, converged)


# ---------------------------------------------------------------------------
# fixed point on the frozen-gap problems


def solve_qvi_fixed_point(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant,
                          config: SolverConfig | None = None) -> EquilibriumSolution:
    """Outer relaxation of the gap change t on the gap-frozen problems.

    Each inner problem replaces the spring potential by the affine work of
    the force frozen at the gap 2l + t, a load change of +/- force on the
    interface equations, so its gap change inner(t) is d + C*force clamped
    into the gap bounds (d and C from `_spring_free`).  The force is
    nonincreasing with slope in [-Lp, 0], so inner is nonincreasing with
    slope in [-Lp*C, 0], and the relaxation T(t) = (1 - w)*t + w*inner(t)
    with the damping w = 1/(1 + Lp*C) is nondecreasing with slope in
    [0, Lp*C/(1 + Lp*C)]: in exact arithmetic the steps cannot grow.
    A step is the energy norm between the `_at_gap` pairs of consecutive t,
    the first measured from the zero pair.  The loop stops on the first
    step that is not above the tolerance: converged if it is at most the
    tolerance, unconverged if it is NaN (an iterate overflowed); otherwise
    it ends unconverged after max_iterations steps.  The step ratios are
    those of consecutive steps whose first step is > 0.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    lo, hi = variant.bounds(l)
    d, compliance = _spring_free(reduced)
    omega = 1.0 / (1.0 + spring.lipschitz * compliance)

    def inner(t: float) -> float:
        return min(max(d + compliance * spring.force(two_l + t), lo - two_l), hi - two_l)

    t = 0.0
    g = (0.0, 0.0)
    steps: list[float] = []
    while len(steps) < cfg.max_iterations:
        t += omega * (inner(t) - t)
        new = _at_gap(reduced, t)
        steps.append(reduced.interface_vnorm((new[0] - g[0], new[1] - g[1])))
        g = new
        if not steps[-1] > cfg.tolerance:
            break
    ratios = tuple(b / a for a, b in zip(steps, steps[1:]) if a > 0.0)
    t = inner(t)
    return _label(reduced, spring, lo, hi, two_l, _at_gap(reduced, t), two_l + t).solution(
        "fixed-point", len(steps), steps[-1] <= cfg.tolerance, ratios)


# ---------------------------------------------------------------------------
# inequality residual certificate


def vi_residual(system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
                candidate: DofVector, trials: int = 1000, seed: int = 0) -> float:
    """Least VI value of the candidate u over the feasible directions d = v - u, |d|_1 <= 1.

    With the force frozen at u's gap the VI is c.d: c = A u - f on the full field, plus the
    force at g1 (entry a = n1 - 1) and minus it at g2 (b = n1).  A feasible d keeps d_b - d_a
    >= 0 at an active lower bound, <= 0 at an upper one and 0 at both, so the feasible l1 ball
    has the vertices +-e_i off the gap, the +-e_a, +-e_b this cone admits and +-(e_a + e_b)/2.
    As c_a d_a + c_b d_b = tau*(d_a + d_b) + mu*(d_b - d_a) with tau, mu = (c_b +- c_a)/2, the
    least c.d is -max(max |c_i| off the gap, |tau| + v), v counting mu > 0 unless the lower
    bound is active and mu < 0 unless the upper one is: the normal cone of a convex VI.  So a
    value >= -tolerance certifies u.  The bound is read from u's gap within 1e-9 plus the
    rounding of 2l - g1 + g2; a gap past a bound by more is InfeasibleCandidate, rods not
    finite real arrays of shapes (n1,), (n2,) a ValidationError, and a c or a value not finite
    gives -inf.  `trials` and `seed` are ignored, as nothing is drawn (`certify` passes them).
    """
    rods, (n1, n2) = (candidate.rod1, candidate.rod2), (system.mesh.n1, system.mesh.n2)
    got = [r.shape if isinstance(r, np.ndarray) else type(r).__name__ for r in rods]
    if got != [(n1,), (n2,)] or not all(r.dtype.kind in "iuf" for r in rods):
        raise ValidationError(f"need real rod arrays of shapes ({n1},) and ({n2},), got {got}")
    if not all(np.isfinite(r).all() for r in rods):
        raise ValidationError("candidate has a non-finite entry")
    l, g1, g2 = system.mesh.geometry.l, candidate.g1, candidate.g2
    (lo, hi), theta = variant.bounds(l), spring_gap(l, g1, g2)
    tol = 1e-9 + 8.0 * math.ulp(1.0) * (l + 0.5 * abs(g1) + 0.5 * abs(g2))
    if not lo - tol <= theta <= hi + tol:
        raise InfeasibleCandidate(f"gap {theta} outside [{lo}, {hi}]")
    with np.errstate(over="ignore", invalid="ignore"):
        au = system.apply(candidate)
        c = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
    ca, cb = float(c[n1 - 1]) + spring.force(theta), float(c[n1]) - spring.force(theta)
    c[n1 - 1] = c[n1] = 0.0
    if not (np.isfinite(c).all() and math.isfinite(ca) and math.isfinite(cb)):
        return -math.inf
    tau, mu = 0.5 * ca + 0.5 * cb, 0.5 * cb - 0.5 * ca
    v = max(0.0, 0.0 if theta <= lo + tol else mu, 0.0 if theta >= hi - tol else -mu)
    return -max(float(np.max(np.abs(c))), abs(tau) + v)  # -inf if the sum overflows


# ---------------------------------------------------------------------------
# one-call front end


def solve(problem: ProblemSpec | PenaltyProblem, mesh_sizes: tuple[int, int] = (4, 4),
          method: str = "exact", config: SolverConfig | None = None) -> EquilibriumSolution:
    """Assemble, condense and solve one problem with the chosen method.

    A `PenaltyProblem` is posed on its base's mesh and loads; "fixed-point" refuses it.
    """
    if not isinstance(problem, (ProblemSpec, PenaltyProblem)):
        raise ValidationError(
            f"need a ProblemSpec or a PenaltyProblem, got {type(problem).__name__}")
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
