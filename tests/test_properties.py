"""Property tests over the whole valid parameter space, and a fuzz test beyond it."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from spring_rods import (BodyForce, ConstraintVariant, Geometry, Material,
                         PenaltyProblem, PenaltyVariant, ProblemSpec, SolverConfig,
                         SpringLaw, SpringRodsError, analytic_solution, make_problem,
                         run_penalty_convergence, solve)


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(l=_positive(0.05, 1.0), L1=_positive(0.2, 2.0), L2=_positive(0.2, 2.0),
       E1=_positive(0.5, 5.0), E2=_positive(0.5, 5.0),
       q1=_positive(0.01, 0.99), q2=_positive(0.01, 0.99),
       f1=_positive(-10.0, 10.0), f2=_positive(-10.0, 10.0),
       scale=st.sampled_from((1.0, 1e5, 1e10, 1e16)),
       variant=st.sampled_from(list(ConstraintVariant)),
       n1=st.integers(1, 16), n2=st.integers(1, 16))
def test_exact_solve_matches_continuum_oracle(l, L1, L2, E1, E2, q1, q2, f1, f2, scale,
                                              variant, n1, n2):
    # stiffnesses as fractions of the smallness bound (E1 + E2) / (2 L);
    # load densities up to 1e17, compared relative to the load scale, the
    # size of the rounding error carried by the loads themselves
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    problem = make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                           SpringLaw(q1 * k_max, q2 * k_max, 2.0 * l),
                           BodyForce(scale * f1, scale * f2), variant)
    sol = solve(problem, (n1, n2))
    ref = analytic_solution(problem)
    for got, want in zip((sol.g1, sol.g2, sol.theta, sol.s),
                         (ref.g1, ref.g2, ref.theta, ref.s)):
        assert abs(got - want) <= 1e-8 * max(scale, abs(want))
    assert sol.diagnostics.residual <= 1e-8 * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(l=_positive(0.05, 1.0), L1=_positive(0.2, 2.0), L2=_positive(0.2, 2.0),
       E1=_positive(0.5, 50.0), E2=_positive(0.5, 50.0),
       q1=_positive(0.01, 0.99), q2=_positive(0.01, 0.99),
       f1=_positive(-100.0, 100.0), f2=_positive(-100.0, 100.0),
       variant=st.sampled_from(list(ConstraintVariant)),
       n1=st.integers(1, 16), n2=st.integers(1, 16))
@pytest.mark.parametrize("method", ["gradient", "fixed-point"])
def test_projected_gradient_matches_continuum_oracle(method, l, L1, L2, E1, E2, q1, q2, f1, f2,
                                                     variant, n1, n2):
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    problem = make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                           SpringLaw(q1 * k_max, q2 * k_max, 2.0 * l),
                           BodyForce(f1, f2), variant)
    sol = solve(problem, (n1, n2), method, SolverConfig(tolerance=1e-10))
    ref = analytic_solution(problem)
    assert sol.diagnostics.converged
    for got, want in zip((sol.g1, sol.g2, sol.theta, sol.s),
                         (ref.g1, ref.g2, ref.theta, ref.s)):
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(l=_positive(0.05, 1.0), L1=_positive(0.2, 2.0), L2=_positive(0.2, 2.0),
       E1=_positive(0.01, 50.0), E2=_positive(0.01, 50.0),
       q1=_positive(0.01, 0.99), q2=_positive(0.01, 0.99),
       f1=_positive(-10.0, 10.0), f2=_positive(-10.0, 10.0),
       scale=st.sampled_from((1.0, 1e5, 1e8, 1e10, 1e12, 1e16)),
       variant=st.sampled_from(list(ConstraintVariant)),
       n1=st.integers(1, 64), n2=st.integers(1, 64))
@pytest.mark.parametrize("method", ["gradient", "fixed-point"])
def test_iterative_solvers_keep_exact_bounds_at_large_loads(method, l, L1, L2, E1, E2, q1, q2,
                                                            f1, f2, scale, variant, n1, n2):
    # large loads cannot meet the absolute tolerance, so convergence is not
    # asserted; the gap stays in its bounds, and a bound active for the exact
    # solve is the iterative solver's too, at exactly its value
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    problem = make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                           SpringLaw(q1 * k_max, q2 * k_max, 2.0 * l),
                           BodyForce(scale * f1, scale * f2), variant)
    exact = solve(problem, (n1, n2))
    sol = solve(problem, (n1, n2), method)
    lo, hi = problem.gap_bounds()
    assert lo <= sol.theta <= hi
    if exact.active_bound is not None:
        assert sol.diagnostics.regime == exact.diagnostics.regime
        assert sol.theta == exact.theta


# the draws of test_exact_solve_matches_continuum_oracle, shared by the symmetry tests
_DRAWS = dict(l=_positive(0.05, 1.0), L1=_positive(0.2, 2.0), L2=_positive(0.2, 2.0),
              E1=_positive(0.5, 5.0), E2=_positive(0.5, 5.0),
              q1=_positive(0.01, 0.99), q2=_positive(0.01, 0.99),
              f1=_positive(-10.0, 10.0), f2=_positive(-10.0, 10.0),
              variant=st.sampled_from(list(ConstraintVariant)),
              n1=st.integers(1, 16), n2=st.integers(1, 16))


def _problem(l, L1, L2, E1, E2, k1, k2, f1, f2, variant):
    return make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                        SpringLaw(k1, k2, 2.0 * l), BodyForce(f1, f2), variant)


def _states(l, L1, L2, E1, E2, k1, k2, f1, f2, variant, n1, n2):
    """(g1, g2, theta, s, regime) of the exact solve, and of the continuum oracle."""
    problem = _problem(l, L1, L2, E1, E2, k1, k2, f1, f2, variant)
    sol, ref = solve(problem, (n1, n2)), analytic_solution(problem)
    return ((sol.g1, sol.g2, sol.theta, sol.s, sol.diagnostics.regime),
            (ref.g1, ref.g2, ref.theta, ref.s, ref.regime))


def _interface(*spec):
    return _states(*spec)[0][:4]


def _iterative_labels(*spec):
    """The regime labels of the gradient and fixed-point solves of `_states`' problem."""
    *problem, n1, n2 = spec
    return [solve(_problem(*problem), (n1, n2), method).diagnostics.regime
            for method in ("gradient", "fixed-point")]


def _assert_close(got, want):
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (got, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(**_DRAWS)
def test_mirror_symmetry(l, L1, L2, E1, E2, q1, q2, f1, f2, variant, n1, n2):
    # reflecting x -> -x swaps the rods and reverses the loads and displacements
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    states = _states(l, L1, L2, E1, E2, q1 * k_max, q2 * k_max, f1, f2, variant, n1, n2)
    mirrored = _states(l, L2, L1, E2, E1, q1 * k_max, q2 * k_max, -f2, -f1, variant, n2, n1)
    g1, g2, theta, s, _ = states[0]
    _assert_close(mirrored[0][:4], (-g2, -g1, theta, s))
    # the exact solve and the oracle name the same regime on both sides
    assert [m[4] for m in mirrored] == [x[4] for x in states]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(m=st.integers(-60, 60), **_DRAWS)
def test_scaling_moduli_stiffness_and_loads(l, L1, L2, E1, E2, q1, q2, f1, f2, variant,
                                            n1, n2, m):
    # the energy scales by c, so the displacements stay and the stress scales by c
    c, k_max = 2.5, (E1 + E2) / (2.0 * max(L1, L2))
    states = _states(l, L1, L2, E1, E2, q1 * k_max, q2 * k_max, f1, f2, variant, n1, n2)
    g1, g2, theta, s, _ = states[0]
    scaled = _interface(l, L1, L2, c * E1, c * E2, c * q1 * k_max, c * q2 * k_max,
                        c * f1, c * f2, variant, n1, n2)
    _assert_close(scaled, (g1, g2, theta, c * s))
    # a power of two scales every product exactly, and neither the exact solve
    # nor the oracle has a tolerance: both keep their bits and their labels
    c = 2.0 ** m
    scaled = _states(l, L1, L2, c * E1, c * E2, c * q1 * k_max, c * q2 * k_max,
                     c * f1, c * f2, variant, n1, n2)
    assert scaled == tuple((g1, g2, theta, c * s, regime)
                           for g1, g2, theta, s, regime in states)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(m=st.integers(-40, 40), **_DRAWS)
def test_scaling_lengths_against_stiffness_and_loads(l, L1, L2, E1, E2, q1, q2, f1, f2, variant,
                                                     n1, n2, m):
    # lengths times c = 2**m, k and f over c: the gap pair and the gap scale by
    # c, the stress and the regime stay, bit for bit, in the exact solve and the
    # oracle alike, as neither compares a length with a constant
    c, k_max = 2.0 ** m, (E1 + E2) / (2.0 * max(L1, L2))
    spec = (l, L1, L2, E1, E2, q1 * k_max, q2 * k_max, f1, f2, variant, n1, n2)
    scaled_spec = (c * l, c * L1, c * L2, E1, E2, q1 * k_max / c, q2 * k_max / c,
                   f1 / c, f2 / c, variant, n1, n2)
    states, scaled = _states(*spec), _states(*scaled_spec)
    assert scaled == tuple((c * g1, c * g2, c * theta, s, regime)
                           for g1, g2, theta, s, regime in states)
    # the iterative solvers' absolute stop rule still moves their bits, but each
    # labels the branch of its last clamp, with no length tolerance: labels only
    assert _iterative_labels(*scaled_spec) == _iterative_labels(*spec)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(-60, 0), penalty=st.sampled_from(list(PenaltyVariant)),
       **{**_DRAWS, "f1": _positive(-1.0, 1.0), "f2": _positive(-1.0, 1.0)})
def test_stall_flag_does_not_depend_on_the_load_scale(l, L1, L2, E1, E2, q1, q2, f1, f2,
                                                      variant, n1, n2, m, penalty):
    # off the contact bound every error is linear in the loads, so loads times
    # 2**m scale each error exactly; whether the study stalled cannot change
    k_max = (E1 + E2) / (2.0 * max(L1, L2))

    def study(c):
        problem = _problem(l, L1, L2, E1, E2, q1 * k_max, q2 * k_max, c * f1, c * f2, variant)
        return run_penalty_convergence(problem, penalty, range(1, 13), (n1, n2))

    base, scaled = study(1.0), study(2.0 ** m)
    assume(all(r.theta > 0.0 for r in base.records))
    assert [r.error for r in scaled.records] == [math.ldexp(r.error, m) for r in base.records]
    assert scaled.non_convergence == base.non_convergence


@pytest.mark.parametrize("variant, loads, regime", [
    (ConstraintVariant.RIGID_COMPRESSION, (1.0, -1.0), "bound-lower"),
    (ConstraintVariant.RIGID_EXTENSION, (-1.0, 1.0), "bound-upper")])
def test_a_rigid_bound_keeps_its_label_at_tiny_stiffness(variant, loads, regime):
    # moduli, stiffness and loads times 2**-60 once made the exact solve call the
    # bound at 2l the breakpoint (a force-unit tie), and the oracle call the
    # rigid-extension state contact (a 1e-12 tolerance on forces and lengths)
    for c in (1.0, 2.0 ** -60):
        states = _states(0.5, 0.5, 0.5, c, c, 0.4 * c, 0.4 * c, c * loads[0], c * loads[1],
                         variant, 4, 4)
        for g1, g2, theta, s, label in states:
            assert label == regime
            assert theta == 1.0
            assert s == math.copysign(0.25 * c, loads[1])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(m1=st.integers(1, 16), m2=st.integers(1, 16), **_DRAWS)
def test_interface_state_is_mesh_invariant(l, L1, L2, E1, E2, q1, q2, f1, f2, variant,
                                           n1, n2, m1, m2):
    # linear elements are nodally exact for constant loads
    k_max = (E1 + E2) / (2.0 * max(L1, L2))
    spec = (l, L1, L2, E1, E2, q1 * k_max, q2 * k_max, f1, f2, variant)
    _assert_close(_interface(*spec, n1 + m1, n2 + m2), _interface(*spec, n1, n2))


#: Every input of one solve with its valid value; a None spring length follows 2l.
_FUZZ_BASE = dict(a=-1.3, b=0.9, l=0.4, E1=1.7, E2=0.6, k1=0.3, k2=0.5, spring_length=None,
                  f1=2.5, f2=-1.5, lam=0.5, tolerance=1e-8, max_iterations=200, n1=4, n2=4)
_FUZZ_CHANGES = [(name, value) for name in _FUZZ_BASE
                 for value in (math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, 0, -0.0,
                               "1", None, True, 1.5)]


def _solve_fuzzed(v, constraint, method):
    """Solve with the inputs v; a PenaltyVariant constraint penalizes non-penetration."""
    two_l = 2.0 * v["l"] if type(v["l"]) is float else 0.8
    spring_length = two_l if v["spring_length"] is None else v["spring_length"]
    penalized = isinstance(constraint, PenaltyVariant)
    problem = ProblemSpec(Geometry(v["a"], v["b"], v["l"]), Material(v["E1"], v["E2"]),
                          SpringLaw(v["k1"], v["k2"], spring_length),
                          BodyForce(v["f1"], v["f2"]),
                          ConstraintVariant.NON_PENETRATION if penalized else constraint)
    if penalized:
        problem = PenaltyProblem(problem, constraint, v["lam"])
    config = SolverConfig(v["tolerance"], v["max_iterations"])
    return solve(problem, (v["n1"], v["n2"]), method, config)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(changes=st.lists(st.sampled_from(_FUZZ_CHANGES), min_size=1, max_size=2),
       constraint=st.sampled_from((*ConstraintVariant, *PenaltyVariant)))
def test_any_input_raises_a_package_error_or_solves_finitely(changes, constraint):
    # underflow is not trapped: a subnormal result (l = 1e-308, E = 1e308) is benign
    for mesh in ((1, 1), (4, 4), (64, 64)):
        v = {**_FUZZ_BASE, "n1": mesh[0], "n2": mesh[1], **dict(changes)}
        for method in ("exact", "gradient", "fixed-point"):
            with np.errstate(over="raise", invalid="raise", divide="raise"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    sol = _solve_fuzzed(v, constraint, method)
                except SpringRodsError:
                    continue
            assert all(map(math.isfinite, (sol.g1, sol.g2, sol.theta, sol.s)))
            assert np.isfinite(sol.u.rod1).all() and np.isfinite(sol.u.rod2).all()
