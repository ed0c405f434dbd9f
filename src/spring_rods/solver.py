"""Equilibrium solvers for the condensed interface problem.

The discrete energy restricted to interior-minimized states is a convex,
piecewise-quadratic function of the interface pair (g1, g2): a quadratic
part plus the spring potential of the gap, subject to the gap bounds of the
constraint variant.  The condensed stiffness S is diagonal, so minimizing
out (g1, g2) at a fixed gap change t = W.g leaves a convex function of t
alone, set by d = W.S^-1 r (the spring-free gap change) and the interface
compliance C = W.S^-1 W = L1/E1 + L2/E2.  `solve_exact` clamps its
minimizer d/(1 + k*C) into the gap bounds; `_classify` labels the regime of
every solver's gap.  The projected gradient and fixed-point solvers are
independent iterative cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractionFailure, InfeasibleCandidate, NoConsistentRegime,
                     NonPositiveLambda)
from .fem import (DiscreteSystem, DofVector, ReducedSystem, build_mesh, assemble,
                  recover_full, schur_reduce, theta_of)
from .model import (ConstraintVariant, PenaltyLaw, PenaltyVariant, ProblemSpec,
                    SpringLaw)

#: Gradient of the gap with respect to (g1, g2).
_W = np.array([-1.0, 1.0])

#: A spring-free gap change below this fraction of the compliance is the breakpoint.
_BREAKPOINT_TOL = 1e-9

#: Gap below this value counts as contact.
CONTACT_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the iterative solvers."""

    tolerance: float = 1e-8
    max_iterations: int = 100_000
    fixed_point_damping: float | None = None  # None: 1/(1 + Lp*C), see solve_qvi_fixed_point

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.max_iterations}")


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
    the exact bound value.
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
    """

    base: ProblemSpec
    law: PenaltyLaw
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise NonPositiveLambda(
                f"penalty parameter must be positive and finite, got {self.lam}")
        if self.base.variant is not ConstraintVariant.NON_PENETRATION:
            raise ValueError("penalized problems are posed over the non-penetration set")


def effective_spring(spring: SpringLaw, law: PenaltyLaw, lam: float) -> SpringLaw:
    """Spring law whose potential equals the original plus the scaled penalty.

    The penalty potential is quadratic on the side(s) it acts on, so adding
    (1/lam) of it just raises the corresponding stiffness coefficient.
    """
    dk = 1.0 / lam
    k1 = spring.k1 + (dk if law.variant is not PenaltyVariant.EXTENSION_ONLY else 0.0)
    k2 = spring.k2 + (dk if law.variant is not PenaltyVariant.COMPRESSION_ONLY else 0.0)
    return SpringLaw(k1, k2, spring.natural_length)


# ---------------------------------------------------------------------------
# the exact gap


def _at_gap(S: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """Minimize 0.5 g.S g - rhs.g subject to W.g = t, i.e. at the gap 2l + t.

    This is S^-1 rhs + (t - W.S^-1 rhs)/C * S^-1 W, evaluated along the line
    g = (g1, g1 + t) so that a zero gap change (g1 = g2) holds exactly.
    """
    s1, s2 = np.diag(S)
    g1 = float(rhs[0] + rhs[1] - s2 * t) / float(s1 + s2)
    return np.array([g1, g1 + t])


def _kkt_residual(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float,
                  g: np.ndarray, theta: float, active_bound: str | None) -> float:
    grad = reduced.gradient(g) + spring.potential_slope(theta) * _W
    feas = max(0.0, lo - theta) + max(0.0, theta - (hi if math.isfinite(hi) else theta))
    mu = float(grad @ _W) / 2.0
    tangential = float(np.max(np.abs(grad - mu * _W)))
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
            g: np.ndarray, theta: float, label: str, active_bound: str | None,
            method: str, iterations: int, converged: bool = True,
            step_ratios: tuple[float, ...] = ()) -> EquilibriumSolution:
    """Recover the field at the gap pair g; a non-finite state raises NoConsistentRegime."""
    s = float(reduced.gradient(g)[0])
    u = recover_full(reduced, float(g[0]), float(g[1]))
    if not all(np.all(np.isfinite(v)) for v in (g, s, u.rod1, u.rod2)):
        raise NoConsistentRegime(f"equilibrium overflows: g1={g[0]}, g2={g[1]}, s={s} "
                                 f"or the nodal field is not finite")
    residual = _kkt_residual(reduced, spring, lo, hi, g, theta, active_bound)
    diag = SolverDiagnostics(method, iterations, residual, label, converged, step_ratios)
    return EquilibriumSolution(u, float(g[0]), float(g[1]), theta, s,
                               theta <= CONTACT_TOL, active_bound, diag)


def _solve_gap(reduced: ReducedSystem, spring: SpringLaw, lo: float, hi: float, l: float,
               method: str) -> EquilibriumSolution:
    """Minimize the reduced energy over the gap change t = W.g.

    Along W.g = t the energy is (t - d)^2/(2C) plus the spring potential of
    2l + t, a convex function of t alone, so the minimizer is d/(1 + k*C)
    clamped into the gap bounds, with k the stiffness on the side d points
    to.  A d within _BREAKPOINT_TOL*C of zero is the breakpoint t = 0.
    """
    S, r = reduced.S, reduced.r
    two_l = 2.0 * l
    compliance = float(_W @ (_W / np.diag(S)))
    d = float(_W @ (r / np.diag(S)))
    if lo < hi and abs(d / compliance) <= _BREAKPOINT_TOL:
        t, theta, label, bound = 0.0, two_l, "breakpoint", None
    else:
        k = spring.k1 if d < 0.0 else spring.k2
        t = min(max(d / (1.0 + k * compliance), lo - two_l), hi - two_l)
        if not lo <= two_l + t <= hi:
            raise NoConsistentRegime(
                f"gap {two_l + t} outside [{lo}, {hi}] with k1={spring.k1}, k2={spring.k2}")
        theta, label, bound = _classify(two_l + t, lo, hi, two_l)
    return _finish(reduced, spring, lo, hi, _at_gap(S, r, t), theta, label, bound, method, 0)


def solve_exact(reduced: ReducedSystem, spring: SpringLaw, variant: ConstraintVariant,
                l: float) -> EquilibriumSolution:
    """Global minimizer of the reduced convex energy: the clamped scalar gap."""
    return _solve_gap(reduced, spring, *variant.bounds(l), l, "exact")


def solve_penalized(reduced: ReducedSystem, spring: SpringLaw,
                    penalty: PenaltyProblem) -> EquilibriumSolution:
    """Equilibrium with the penalty acting as extra stiffness of 1/lam.

    The penalized energy is the base energy plus (1/lam) times the penalty
    potential of the gap, minimized over the non-penetration set; its
    stationarity reproduces the penalized inequality because the penalty
    potential has slope equal to minus the penalty force.
    """
    l = penalty.base.geometry.l
    return _solve_gap(reduced, effective_spring(spring, penalty.law, penalty.lam),
                      *ConstraintVariant.NON_PENETRATION.bounds(l), l, "penalized")


# ---------------------------------------------------------------------------
# projected gradient


def _project_gap(g: np.ndarray, lo: float, hi: float, two_l: float) -> np.ndarray:
    """Clamp the gap into [lo, hi] along the gap direction, rest unchanged."""
    theta = two_l + float(_W @ g)
    target = min(max(theta, lo), hi)
    if target != theta:
        g = g + 0.5 * (target - theta) * _W
    return g


def solve_projected_gradient(system: DiscreteSystem, spring: SpringLaw,
                             variant: ConstraintVariant,
                             penalty: PenaltyProblem | None = None,
                             config: SolverConfig | None = None) -> EquilibriumSolution:
    """Projected gradient on the reduced two-DOF energy with the fixed step 1/L.

    L = max(diag S) + 2*max(k1, k2) is the Lipschitz constant of the reduced
    gradient, so every step descends.  The iteration stops once a step's
    energy norm is at most the tolerance.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    eff = spring if penalty is None else effective_spring(spring, penalty.law, penalty.lam)
    lo, hi = variant.bounds(l)

    lip = float(np.max(np.diag(reduced.S))) + 2.0 * eff.lipschitz
    step = 1.0 / lip
    g = _project_gap(np.zeros(2), lo, hi, two_l)
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        grad = reduced.gradient(g) + eff.potential_slope(two_l + float(_W @ g)) * _W
        g_new = _project_gap(g - step * grad, lo, hi, two_l)
        delta = reduced.interface_vnorm(g_new - g)
        g = g_new
        iterations += 1
        if delta <= cfg.tolerance:
            converged = True
            break
    theta, label, bound = _classify(two_l + float(_W @ g), lo, hi, two_l)
    return _finish(reduced, eff, lo, hi, g, theta, label, bound,
                   "projected-gradient", iterations, converged)


# ---------------------------------------------------------------------------
# fixed point on the frozen-gap problems


def _clamped_qp(S: np.ndarray, rhs: np.ndarray, lo: float, hi: float,
                two_l: float) -> np.ndarray:
    """Minimize the quadratic with load rhs over the gap bounds."""
    free = float(_W @ (rhs / np.diag(S)))
    return _at_gap(S, rhs, min(max(free, lo - two_l), hi - two_l))


def solve_qvi_fixed_point(system: DiscreteSystem, spring: SpringLaw,
                          variant: ConstraintVariant,
                          config: SolverConfig | None = None) -> EquilibriumSolution:
    """Outer iteration on the gap-frozen problems.

    Each inner problem replaces the spring potential by the affine work of
    the frozen spring force, i.e. a pure load change of +/- force on the two
    interface equations.  The inner solution depends on the outer state only
    through its gap, so damping is applied to the gap coordinate alone (full
    steps orthogonal to it are exact).  Undamped, the gap iteration has
    slope -Lp*C with C the interface compliance, which cycles once Lp*C
    reaches 1; the default damping 1/(1 + Lp*C) zeroes the within-regime
    slope and keeps observed step-norm ratios below the contraction
    estimate.
    """
    cfg = config or SolverConfig()
    reduced = schur_reduce(system)
    l = system.mesh.geometry.l
    two_l = 2.0 * l
    lo, hi = variant.bounds(l)
    sinv_w = _W / np.diag(reduced.S)
    compliance = float(_W @ sinv_w)
    gap_dir = sinv_w / compliance  # unit gap change along the compliant direction
    omega = cfg.fixed_point_damping
    if omega is None:
        omega = 1.0 / (1.0 + spring.lipschitz * compliance)

    eta = np.zeros(2)
    prev_step = None
    ratios: list[float] = []
    growth = 0
    iterations = 0
    converged = False
    while iterations < cfg.max_iterations:
        gap_eta = two_l + float(_W @ eta)
        force = spring.force(gap_eta)
        g = _clamped_qp(reduced.S, reduced.r + force * _W, lo, hi, two_l)
        gap_g = two_l + float(_W @ g)
        eta_new = g + (1.0 - omega) * (gap_eta - gap_g) * gap_dir
        step = reduced.interface_vnorm(eta_new - eta)
        iterations += 1
        if prev_step is not None and prev_step > 0.0:
            ratio = step / prev_step
            ratios.append(ratio)
            growth = growth + 1 if ratio > 1.0 + 1e-9 else 0
            if growth >= 3:
                raise ContractionFailure(
                    f"step norms grew for 3 iterations (last ratio {ratio:.3f})")
        eta = eta_new
        if step <= cfg.tolerance:
            converged = True
            break
        prev_step = step

    force = spring.force(two_l + float(_W @ eta))
    g = _clamped_qp(reduced.S, reduced.r + force * _W, lo, hi, two_l)
    theta, label, bound = _classify(two_l + float(_W @ g), lo, hi, two_l)
    return _finish(reduced, spring, lo, hi, g, theta, label, bound,
                   "fixed-point", iterations, converged, tuple(ratios))


# ---------------------------------------------------------------------------
# inequality residual certificate


def vi_residual(system: DiscreteSystem, spring: SpringLaw, variant: ConstraintVariant,
                candidate: DofVector, trials: int = 1000, seed: int = 0) -> float:
    """Most negative value of the variational inequality over trial directions.

    For each feasible trial v the quantity (A u, v-u) + j(u,v) - j(u,u)
    - (f, v-u) is evaluated, with j the frozen-force gap work; a result
    above minus tolerance certifies the candidate.  With the force frozen
    the quantity is linear in d = v - u, namely c.d with c = A u - f plus
    the force at g1 and minus it at g2, so all trials are one product of
    the probe matrix with c.  The probes are the gap shifted to each bound
    (and to the natural length) plus `trials` normal draws of d, each
    moved back into the gap bounds through its g2 entry.
    """
    mesh = system.mesh
    n1 = mesh.n1
    l = mesh.geometry.l
    lo, hi = variant.bounds(l)
    theta_u = theta_of(candidate, l)
    if theta_u < lo - 1e-9 or theta_u > hi + 1e-9:
        raise InfeasibleCandidate(f"gap {theta_u} outside [{lo}, {hi}]")

    force = spring.force(theta_u)
    au = system.apply(candidate)
    c = np.concatenate((au.rod1 - system.b1, au.rod2 - system.b2))
    c[n1 - 1] += force
    c[n1] -= force

    targets = [lo, hi if math.isfinite(hi) else theta_u + 1.0]
    if lo <= 2.0 * l <= hi:
        targets.append(2.0 * l)
    shifted = min(c[n1] * (target - theta_u) for target in targets)

    rng = np.random.default_rng(seed)
    D = rng.normal(0.0, 0.5, (trials, n1 + mesh.n2))
    t = theta_u - D[:, n1 - 1] + D[:, n1]
    D[:, n1] += np.clip(t, lo, hi) - t
    return float(min(shifted, np.min(D @ c, initial=np.inf)))


# ---------------------------------------------------------------------------
# one-call front end


def solve(problem: ProblemSpec, mesh_sizes: tuple[int, int] = (4, 4),
          method: str = "exact", config: SolverConfig | None = None,
          penalty: PenaltyProblem | None = None) -> EquilibriumSolution:
    """Assemble, condense and solve one problem with the chosen method."""
    mesh = build_mesh(problem.geometry, *mesh_sizes)
    system = assemble(mesh, problem.material, problem.forces)
    if method == "exact":
        reduced = schur_reduce(system)
        if penalty is not None:
            return solve_penalized(reduced, problem.spring, penalty)
        return solve_exact(reduced, problem.spring, problem.variant, problem.geometry.l)
    if method == "gradient":
        return solve_projected_gradient(system, problem.spring, problem.variant,
                                        penalty, config)
    if method == "fixed-point":
        if penalty is not None:
            raise ValueError("the fixed-point solver does not take a penalty term")
        return solve_qvi_fixed_point(system, problem.spring, problem.variant, config)
    raise ValueError(f"unknown method {method!r}")
