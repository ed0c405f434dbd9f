"""Equilibrium solvers for the condensed interface problem.

The discrete energy restricted to interior-minimized states is a convex,
piecewise-quadratic function of the interface pair (g1, g2): a quadratic
part plus the spring potential of the gap, subject to the gap bounds of the
constraint variant.  The condensed stiffness S = (s1, s2) is diagonal, so
minimizing out (g1, g2) at a fixed gap change t = g2 - g1 leaves a convex
function of t alone, set by d = r2/s2 - r1/s1 (the spring-free gap change)
and the interface compliance C = 1/s1 + 1/s2 = L1/E1 + L2/E2.  `solve_exact`
clamps its minimizer d/(1 + k*C) into the gap bounds; `_classify` labels the
regime of every solver's gap.  The projected gradient and fixed-point
solvers are independent iterative cross-checks.  All work on plain floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ContractionFailure, InfeasibleCandidate, NoConsistentRegime,
                     NonPositiveLambda, ValidationError)
from .fem import (DiscreteSystem, DofVector, ReducedSystem, build_mesh, assemble,
                  recover_full, schur_reduce)
from .model import (ConstraintVariant, PenaltyLaw, ProblemSpec, SpringLaw,
                    _check_natural_length, _real, spring_gap)

_Pair = tuple[float, float]

#: A spring-free gap change below this fraction of the compliance is the breakpoint.
_BREAKPOINT_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the iterative solvers."""

    tolerance: float = 1e-8
    max_iterations: int = 100_000
    fixed_point_damping: float | None = None  # None: 1/(1 + Lp*C), see solve_qvi_fixed_point

    def __post_init__(self):
        _real("tolerance", self.tolerance, 0.0, math.inf, ValidationError)
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValidationError(f"iteration cap must be an integer, got {self.max_iterations!r}")
        _real("iteration cap", self.max_iterations, 0, math.inf, ValidationError)
        if self.fixed_point_damping is not None:  # in (0, 1]
            _real("fixed-point damping", self.fixed_point_damping, 0.0,
                  math.nextafter(1.0, math.inf), ValidationError)


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


def _at_gap(S: _Pair, rhs: _Pair, t: float) -> _Pair:
    """Minimize 0.5 g.S g - rhs.g subject to g2 - g1 = t, i.e. at the gap 2l + t.

    Along the line g = (g1, g1 + t) the minimizer is g1 = (rhs1 + rhs2 - s2*t)
    / (s1 + s2); forming g2 as g1 + t keeps a zero gap change exact.
    """
    (s1, s2), (r1, r2) = S, rhs
    g1 = (r1 + r2 - s2 * t) / (s1 + s2)
    return g1, g1 + t


def _kkt_residual(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
                  g: _Pair, theta: float, active_bound: str | None) -> float:
    (g1, g2), (s1, s2), (r1, r2) = g, reduced.S, reduced.r
    slope = spring.potential_slope(theta)
    grad1, grad2 = s1 * g1 - r1 - slope, s2 * g2 - r2 + slope
    feas = max(0.0, lo - theta) + max(0.0, theta - (hi if math.isfinite(hi) else theta))
    mu = (grad2 - grad1) / 2.0
    tangential = max(abs(grad1 + mu), abs(grad2 - mu))
    if active_bound == "lower":
        sign_violation = max(0.0, -mu)
    elif active_bound == "upper":
        sign_violation = max(0.0, mu)
    elif active_bound == "both":
        sign_violation = 0.0
    else:
        sign_violation = abs(mu)
    return max(tangential, sign_violation, feas)


def _classify(theta: float, lo: float, hi: float,
              two_l: float) -> tuple[float, str, str | None]:
    """Regime of the gap theta as (theta, label, active_bound).

    A gap within 1e-11 of a bound is snapped to the exact bound value.
    """
    if lo == hi:
        return lo, "rigid", "both"
    if abs(theta - lo) <= 1e-11:
        return lo, ("contact" if lo == 0.0 else "bound-lower"), "lower"
    if abs(theta - hi) <= 1e-11:
        return hi, "bound-upper", "upper"
    if abs(theta - two_l) <= 1e-11:
        return theta, "breakpoint", None
    return theta, ("compression" if theta < two_l else "extension"), None


def _finish(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
            g: _Pair, theta: float, label: str, active_bound: str | None,
            method: str, iterations: int, converged: bool = True,
            step_ratios: tuple[float, ...] = ()) -> EquilibriumSolution:
    """Recover the field at the gap pair g; a non-finite state raises NoConsistentRegime."""
    g1, g2 = g
    s = reduced.S[0] * g1 - reduced.r[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        u = recover_full(reduced, g1, g2)
    if not (all(map(math.isfinite, (g1, g2, s)))
            and np.isfinite(u.rod1).all() and np.isfinite(u.rod2).all()):
        raise NoConsistentRegime(f"equilibrium overflows: g1={g1}, g2={g2}, s={s} "
                                 f"or the nodal field is not finite")
    residual = _kkt_residual(reduced, spring, lo, hi, g, theta, active_bound)
    diag = SolverDiagnostics(method, iterations, residual, label, converged, step_ratios)
    return EquilibriumSolution(u, g1, g2, theta, s, label == "contact", active_bound, diag)


def _gap_state(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
               l: float) -> tuple[_Pair, float, str, str | None]:
    """Minimize the reduced energy over the gap change t = g2 - g1.

    Along W.g = t the energy is (t - d)^2/(2C) plus the spring potential of
    2l + t, a convex function of t alone, so the minimizer is d/(1 + k*C)
    clamped into the gap bounds, with k the stiffness on the side d points
    to.  A d within _BREAKPOINT_TOL*C of zero is the breakpoint t = 0.
    Returns the gap pair g with the regime (theta, label, active_bound).
    """
    S, r = reduced.S, reduced.r
    two_l = 2.0 * l
    compliance = 1.0 / S[0] + 1.0 / S[1]
    d = r[1] / S[1] - r[0] / S[0]
    if lo < hi and abs(d / compliance) <= _BREAKPOINT_TOL:
        t, theta, label, bound = 0.0, two_l, "breakpoint", None
    else:
        k = spring.k1 if d < 0.0 else spring.k2
        t = min(max(d / (1.0 + k * compliance), lo - two_l), hi - two_l)
        if not lo <= two_l + t <= hi:
            raise NoConsistentRegime(
                f"gap {two_l + t} outside [{lo}, {hi}] with k1={spring.k1}, k2={spring.k2}")
        theta, label, bound = _classify(two_l + t, lo, hi, two_l)
    return _at_gap(S, r, t), theta, label, bound


def _solve_gap(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float, l: float,
               method: str) -> EquilibriumSolution:
    return _finish(reduced, spring, lo, hi, *_gap_state(reduced, spring, lo, hi, l), method, 0)


def _interface_state(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
                     l: float) -> tuple[float, float, float, float, bool]:
    """(g1, g2, theta, s, contact) of `_solve_gap`, without recovering the field.

    Whatever `_finish` would refuse is still refused: the field at g is the
    pinned field plus g times a nodal ramp in [0, 1], so while
    `reduced.field_surely_finite(g1, g2)` holds it cannot overflow.  Otherwise
    `_finish` recovers the field and refuses a non-finite one as the
    eager solves do.
    """
    g, theta, label, bound = _gap_state(reduced, spring, lo, hi, l)
    g1, g2 = g
    s = reduced.S[0] * g1 - reduced.r[0]
    if not (math.isfinite(s) and reduced.field_surely_finite(g1, g2)):
        _finish(reduced, spring, lo, hi, g, theta, label, bound, "exact", 0)
    return g1, g2, theta, s, label == "contact"


def _penalized(penalty: PenaltyProblem) -> tuple[SpringLaw, float, float, float]:
    """(effective spring, lo, hi, l) of a penalized problem, as `_gap_state` takes them."""
    l = penalty.base.geometry.l
    return (effective_spring(penalty.base.spring, penalty.law, penalty.lam),
            *ConstraintVariant.NON_PENETRATION.bounds(l), l)


def solve_exact(reduced: ReducedSystem, spring: SpringLaw, variant: ConstraintVariant,
                l: float) -> EquilibriumSolution:
    """Global minimizer of the reduced convex energy: the clamped scalar gap."""
    return _solve_gap(reduced, spring, *variant.bounds(l), l, "exact")


def solve_penalized(reduced: ReducedSystem, penalty: PenaltyProblem) -> EquilibriumSolution:
    """Equilibrium with the penalty acting as extra stiffness of 1/lam.

    The penalized energy is the base energy plus (1/lam) times the penalty
    potential of the gap, minimized over the non-penetration set; its
    stationarity reproduces the penalized inequality because the penalty
    potential has slope equal to minus the penalty force.  `reduced` is the
    condensed system of `penalty.base`.
    """
    return _solve_gap(reduced, *_penalized(penalty), "penalized")


# ---------------------------------------------------------------------------
# projected gradient


def _project_gap(g: _Pair, lo: float, hi: float, two_l: float) -> _Pair:
    """Clamp the gap into [lo, hi] keeping g1 + g2; the clamped gap is set, never added."""
    g1, g2 = g
    t = min(max(g2 - g1, lo - two_l), hi - two_l)
    if t == g2 - g1:
        return g
    return 0.5 * (g1 + g2 - t), 0.5 * (g1 + g2 + t)


def solve_projected_gradient(system: DiscreteSystem, spring: SpringLaw,
                             variant: ConstraintVariant,
                             config: SolverConfig | None = None) -> EquilibriumSolution:
    """Projected gradient on the reduced two-DOF energy with the fixed step 1/L.

    L = max(diag S) + 2*max(k1, k2) is the Lipschitz constant of the reduced
    gradient, so every step descends.  The iteration stops once a step's
    energy norm is at most the tolerance, or unconverged once it is NaN: an
    iterate is then inf or NaN, and no later step makes it finite again.
    A penalized problem is solved with its `effective_spring` over NON_PENETRATION.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    lo, hi = variant.bounds(l)

    (s1, s2), (r1, r2) = reduced.S, reduced.r
    step = 1.0 / (max(s1, s2) + 2.0 * spring.lipschitz)
    g1, g2 = _project_gap((0.0, 0.0), lo, hi, two_l)
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        slope = spring.potential_slope(two_l + (g2 - g1))
        new1, new2 = _project_gap((g1 - step * (s1 * g1 - r1 - slope),
                                   g2 - step * (s2 * g2 - r2 + slope)), lo, hi, two_l)
        delta = reduced.interface_vnorm((new1 - g1, new2 - g2))
        g1, g2 = new1, new2
        iterations += 1
        if delta <= cfg.tolerance:
            converged = True
            break
        if math.isnan(delta):
            break
    theta, label, bound = _classify(two_l + (g2 - g1), lo, hi, two_l)
    return _finish(reduced, spring, lo, hi, (g1, g2), theta, label, bound,
                   "projected-gradient", iterations, converged)


# ---------------------------------------------------------------------------
# fixed point on the frozen-gap problems


def solve_qvi_fixed_point(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant,
                          config: SolverConfig | None = None) -> EquilibriumSolution:
    """Outer relaxation of the gap change t on the gap-frozen problems.

    Each inner problem replaces the spring potential by the affine work of
    the force frozen at the gap 2l + t, a load change of +/- force on the
    interface equations, so its gap change is d + C*force clamped into the
    gap bounds (d and C as in `_gap_state`): a scalar map, relaxed as
    t += omega*(inner(t) - t).  Undamped it has slope -Lp*C, which cycles
    once Lp*C reaches 1; the default damping 1/(1 + Lp*C) zeroes the
    within-regime slope.  A step is the energy norm between the `_at_gap`
    pairs of consecutive t, the first measured from the zero pair.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    lo, hi = variant.bounds(l)
    S, r = reduced.S, reduced.r
    compliance = 1.0 / S[0] + 1.0 / S[1]
    d = r[1] / S[1] - r[0] / S[0]
    omega = cfg.fixed_point_damping
    if omega is None:
        omega = 1.0 / (1.0 + spring.lipschitz * compliance)

    def inner(t: float) -> float:
        return min(max(d + compliance * spring.force(two_l + t), lo - two_l), hi - two_l)

    t = 0.0
    g = (0.0, 0.0)
    prev_step = None
    ratios: list[float] = []
    growth = 0
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        t += omega * (inner(t) - t)
        new = _at_gap(S, r, t)
        step = reduced.interface_vnorm((new[0] - g[0], new[1] - g[1]))
        iterations += 1
        if prev_step is not None and prev_step > 0.0:
            ratio = step / prev_step
            ratios.append(ratio)
            growth = growth + 1 if ratio > 1.0 + 1e-9 else 0
            if growth >= 3:
                raise ContractionFailure(
                    f"step norms grew for 3 iterations (last ratio {ratio:.3f})")
        g = new
        if step <= cfg.tolerance:
            converged = True
            break
        prev_step = step

    t = inner(t)
    theta, label, bound = _classify(two_l + t, lo, hi, two_l)
    return _finish(reduced, spring, lo, hi, _at_gap(S, r, t), theta, label, bound,
                   "fixed-point", iterations, converged, tuple(ratios))


# ---------------------------------------------------------------------------
# inequality residual certificate


def vi_residual(system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
                candidate: DofVector, trials: int = 1000, seed: int = 0) -> float:
    """Most negative VI value over the shifted probes and `trials` random feasible directions.

    For each feasible trial v the quantity (A u, v-u) + j(u,v) - j(u,u)
    - (f, v-u) is evaluated, with j the frozen-force gap work; a result
    above minus tolerance certifies the candidate.  With the force frozen
    the quantity is linear in d = v - u, namely c.d with c = A u - f plus
    the force at g1 and minus it at g2.  The probes are the gap shifted to
    each bound (and to the natural length) plus `trials` directions d with
    N(0, 0.5**2) entries, each moved back into the gap bounds through its g2
    entry.  Only the two gap entries of d are drawn one by one; the rest of
    c.d, a sum of independent normals, is exactly 0.5*|c_rest|*N(0, 1) with
    c_rest the off-gap part of c, so each trial draws (g1 entry, g2 entry,
    rest) as three N(0, 0.5**2) values.  `trials` and `seed` are integers
    >= 0, and trials is capped at 2**21.  A candidate with a non-finite
    entry is refused; if c or a probe value is not finite (the stiffness
    product overflows), the result is -inf.
    """
    mesh = system.mesh
    n1 = mesh.n1
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
            raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")
    if trials > 2 ** 21:
        raise ValidationError(f"trials limited to 2**21, got {trials}")
    if not (np.all(np.isfinite(candidate.rod1)) and np.all(np.isfinite(candidate.rod2))):
        raise ValidationError("candidate has a non-finite entry")
    l = mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta_u = spring_gap(l, candidate.g1, candidate.g2)
    if theta_u < lo - 1e-9 or theta_u > hi + 1e-9:
        raise InfeasibleCandidate(f"gap {theta_u} outside [{lo}, {hi}]")

    with np.errstate(over="ignore", invalid="ignore"):
        force = spring.force(theta_u)
        au = system.apply(candidate)
        c = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
        c[n1 - 1] += force
        c[n1] -= force
        if not np.all(np.isfinite(c)):
            return -math.inf
        c1, c2 = float(c[n1 - 1]), float(c[n1])
        c[n1 - 1] = c[n1] = 0.0  # c_rest; its norm scaled by a power of two, as _ramp_dot does
        e = math.frexp(float(np.max(np.abs(c))))[1]
        rest = float(np.ldexp(np.linalg.norm(np.ldexp(c, -e)), e))

        targets = [lo, hi if math.isfinite(hi) else theta_u + 1.0]
        if lo <= 2.0 * l <= hi:
            targets.append(2.0 * l)
        shifted = min(c2 * (target - theta_u) for target in targets)

        a, b, z = np.random.default_rng(seed).normal(0.0, 0.5, (trials, 3)).T
        t = theta_u - a + b
        b += np.clip(t, lo, hi) - t
        sampled = np.min(a * c1 + b * c2 + z * rest, initial=np.inf)
    # NaN: opposite infinities from products past DBL_MAX, which certify nothing
    return -math.inf if math.isnan(sampled) else float(min(shifted, sampled))


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
