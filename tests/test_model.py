import math

import numpy as np
import pytest

from spring_rods import (BodyForce, ConstraintVariant, ConvergenceStudy, Geometry,
                         GeometryError, Material, PenaltyProblem,
                         NonPositiveLambda, PenaltyVariant, SmallnessViolation, SolverConfig,
                         SpringLaw, SpringRodsError, SweepResult, ValidationError,
                         ZeroElements, assemble, build_mesh,
                         export_csv, export_svg, grid_search_minimizer, make_problem,
                         run_stiffness_sweep, solve, spring_gap)

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)


def benchmark_problem(k1=1.0, k2=1.0, f1=0.0, f2=0.0,
                      variant=ConstraintVariant.NON_PENETRATION):
    return make_problem(GEO, MAT, SpringLaw(k1, k2, 1.0), BodyForce(f1, f2), variant)


class TestGeometry:
    def test_benchmark_lengths(self):
        assert GEO.L1 == 0.5
        assert GEO.L2 == 0.5
        assert GEO.L == 0.5
        assert GEO.natural_length == 1.0

    def test_asymmetric_lengths(self):
        geo = Geometry(-2.0, 1.5, 0.5)
        assert geo.L1 == 1.5
        assert geo.L2 == 1.0
        assert geo.L == 1.5

    def test_left_rod_must_exist(self):
        with pytest.raises(GeometryError):
            Geometry(-0.4, 1.0, 0.5)

    def test_right_rod_must_exist(self):
        with pytest.raises(GeometryError):
            Geometry(-1.0, 0.5, 0.5)

    def test_half_length_positive(self):
        with pytest.raises(GeometryError):
            Geometry(-1.0, 1.0, -0.5)


class TestMakeProblem:
    def test_benchmark_is_valid(self):
        prob = benchmark_problem(k1=1.0, k2=1.0)
        assert prob.stiffness_sum == 2.0
        assert prob.coupling_bound == 1.0
        assert prob.contraction_ratio == 0.5

    def test_too_stiff_spring_rejected(self):
        with pytest.raises(SmallnessViolation):
            benchmark_problem(k1=2.5)

    def test_boundary_of_admissible_range(self):
        # admissible stiffness is exactly max(k1,k2) < (E1+E2)/(2L) = 2 here
        benchmark_problem(k1=1.999, k2=1.999)
        with pytest.raises(SmallnessViolation):
            benchmark_problem(k1=2.0, k2=2.0)

    def test_admissible_set_random(self):
        rng = np.random.default_rng(3)
        limit = (MAT.E1 + MAT.E2) / (2.0 * GEO.L)
        for _ in range(200):
            k1, k2 = rng.uniform(0.01, 3.0, 2)
            if max(k1, k2) < limit:
                benchmark_problem(k1=k1, k2=k2)
            else:
                with pytest.raises(SmallnessViolation):
                    benchmark_problem(k1=k1, k2=k2)

    def test_spring_length_must_match_geometry(self):
        with pytest.raises(GeometryError):
            make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 0.8), BodyForce(0.0, 0.0),
                         ConstraintVariant.NON_PENETRATION)

    @pytest.mark.parametrize("shift", [5e-13, -5e-13, math.ulp(1.0)])
    def test_spring_length_is_the_gap_exactly(self, shift):
        # a 1e-12 slack once let the spring bend 2.5e-13 off the gap 2l: exact and
        # the oracle put the gap at 2l, the iterative solvers at 2l + 2.5e-13
        with pytest.raises(GeometryError, match="natural length"):
            make_problem(GEO, MAT, SpringLaw(1.0, 1.0, 1.0 + shift), BodyForce(0.0, 0.0))

    def test_nonfinite_force_rejected(self):
        with pytest.raises(ValueError):
            BodyForce(math.inf, 0.0)

    @pytest.mark.parametrize("field, bad", [
        ("geometry", None), ("material", None), ("spring", None), ("forces", None),
        ("variant", None), ("variant", "non-penetration")])
    def test_a_field_of_the_wrong_type_is_a_validation_error(self, field, bad):
        # a variant given by its name was accepted, and analytic_solution and
        # run_stiffness_sweep then leaked AttributeError; so did a None geometry at once
        fields = dict(geometry=GEO, material=MAT, spring=SpringLaw(1.0, 1.0, 1.0),
                      forces=BodyForce(1.0, -1.0), variant=ConstraintVariant.NON_PENETRATION)
        with pytest.raises(ValidationError, match=f"^{field}: need a "):
            make_problem(**{**fields, field: bad})


class TestSpringLaw:
    def test_zero_at_natural_length(self):
        assert SpringLaw(1.0, 1.0, 1.0).force(1.0) == 0.0

    def test_compression_pushes(self):
        assert SpringLaw(1.0, 2.0, 1.0).force(0.5) == 0.5

    def test_extension_pulls(self):
        assert SpringLaw(1.0, 2.0, 1.0).force(1.25) == -0.5

    def test_potential_values(self):
        law = SpringLaw(1.0, 4.0, 1.0)
        assert law.potential(1.0) == 0.0
        assert law.potential(0.0) == 0.5
        assert law.potential(2.0) == 2.0

    def test_potential_overflows_to_inf(self):
        # a float power raises OverflowError where the product rounds to inf
        assert SpringLaw(1.0, 1.0, 1.0).potential(1e200) == math.inf
        assert SpringLaw(1.0, 1.0, 1.0).potential(-1e200) == math.inf

    def test_sign_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            k1, k2 = rng.uniform(0.1, 3.0, 2)
            law = SpringLaw(k1, k2, 1.0)
            r = rng.uniform(-2.0, 4.0, 1000)
            f = np.array([law.force(x) for x in r])
            assert np.all(np.sign(f) == np.sign(1.0 - r))
            order = np.argsort(r)
            assert np.all(np.diff(f[order]) <= 1e-15)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(1)
        law = SpringLaw(0.7, 1.9, 1.0)
        r = rng.uniform(-2.0, 4.0, 500)
        for a, b in zip(r[:-1], r[1:]):
            assert abs(law.force(a) - law.force(b)) <= law.lipschitz * abs(a - b) + 1e-14

    def test_potential_convex_and_consistent(self):
        law = SpringLaw(0.4, 1.6, 1.0)
        grid = np.linspace(-1.0, 3.0, 401)
        vals = np.array([law.potential(r) for r in grid])
        assert np.all(np.diff(vals, 2) >= -1e-12)
        h = 1e-5
        for r in np.linspace(-0.9, 2.9, 40):  # grid avoids the curvature kink
            slope = (law.potential(r + h) - law.potential(r - h)) / (2 * h)
            assert slope == pytest.approx(-law.force(r), rel=1e-6, abs=1e-9)


class TestSpringGap:
    def test_reference_configuration(self):
        assert spring_gap(0.5, 0.0, 0.0) == 1.0

    def test_full_compression(self):
        assert spring_gap(0.5, 0.5, -0.5) == 0.0

    def test_extension_case(self):
        assert spring_gap(0.5, -0.0625, 0.0625) == 1.125

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g1, g2, delta = rng.uniform(-5.0, 5.0, 3)
            assert spring_gap(0.5, g1 + delta, g2 + delta) == pytest.approx(
                spring_gap(0.5, g1, g2), abs=1e-12)


class TestConstraintVariant:
    def test_bounds(self):
        assert ConstraintVariant.NON_PENETRATION.bounds(0.5) == (0.0, math.inf)
        assert ConstraintVariant.RIGID_COMPRESSION.bounds(0.5) == (1.0, math.inf)
        assert ConstraintVariant.RIGID_EXTENSION.bounds(0.5) == (0.0, 1.0)
        assert ConstraintVariant.FULLY_RIGID.bounds(0.5) == (1.0, 1.0)

    def test_intervals_nonempty(self):
        for variant in ConstraintVariant:
            lo, hi = variant.bounds(0.5)
            assert lo <= hi


#: An int past the float range is not finite either; it used to leak OverflowError.
_NONFINITE = (math.inf, -math.inf, math.nan, 10 ** 400)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", _NONFINITE, ids=("inf", "-inf", "nan", "huge-int"))
    @pytest.mark.parametrize("build, error", [
        (lambda x: Material(x, 1.0), ValueError),
        (lambda x: Material(1.0, x), ValueError),
        (lambda x: SpringLaw(x, 1.0, 1.0), ValueError),
        (lambda x: SpringLaw(1.0, x, 1.0), ValueError),
        (lambda x: SpringLaw(1.0, 1.0, x), ValueError),
        (lambda x: Geometry(x, 1.0, 0.5), GeometryError),
        (lambda x: Geometry(-1.0, x, 0.5), GeometryError),
        (lambda x: Geometry(-1.0, 1.0, x), GeometryError),
        (lambda x: BodyForce(x, 1.0), ValueError),
        (lambda x: SolverConfig(tolerance=x), ValueError),
    ], ids=("E1", "E2", "k1", "k2", "spring-length", "a", "b", "l", "f1", "tolerance"))
    def test_rejected_at_construction(self, build, error, bad):
        with pytest.raises(error, match="finite"):
            build(bad)


@pytest.mark.parametrize("bad", ["1", None, True], ids=("str", "None", "bool"))
@pytest.mark.parametrize("build", [
    lambda x: Material(x, 1.0),
    lambda x: SpringLaw(1.0, x, 1.0),
    lambda x: Geometry(-1.0, x, 0.5),
    lambda x: BodyForce(x, 0.0),
], ids=("Material", "SpringLaw", "Geometry", "BodyForce"))
def test_non_numbers_raise_the_package_error(build, bad):
    # these used to leak TypeError from a comparison or from math.isfinite
    with pytest.raises(SpringRodsError, match="real number"):
        build(bad)


@pytest.mark.parametrize("value", [np.float64(0.75), np.int64(3), 3],
                         ids=("float64", "int64", "int"))
def test_model_values_store_python_floats(value):
    for stored in (Geometry(-value - 1, value + 1, value), Material(value, value),
                   SpringLaw(value, value, value), BodyForce(value, -value)):
        for name in stored.__dataclass_fields__:
            assert type(getattr(stored, name)) is float, (stored, name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
def test_numpy_moduli_solve_huge_loads_without_warnings(method):
    # np.float64 moduli made the iterative solvers' interface norm overflow a
    # numpy scalar product, which warns, where a float product is a quiet inf
    problem = make_problem(GEO, Material(np.float64(1.3), np.float64(0.7)),
                           SpringLaw(0.2, 0.2, 1.0), BodyForce(3e200, -1e200))
    sol = solve(problem, (4, 4), method)
    assert sol.diagnostics.regime == "contact" and sol.theta == 0.0


def _system(n1, n2):
    return assemble(build_mesh(GEO, n1, n2), MAT, BodyForce(1.0, -1.0))


_NP = ConstraintVariant.NON_PENETRATION
_EMPTY_SWEEP = SweepResult((), _NP, BodyForce(1.0, -1.0))
_PENALTY = PenaltyProblem(benchmark_problem(), PenaltyVariant.TWO_SIDED, 1.0)

#: Every place a bad value is rejected with ValidationError, by module.
_VALIDATION_SITES = {
    "model-modulus": lambda path: Material(-1.0, 1.0),
    "model-stiffness": lambda path: SpringLaw(1.0, 0.0, 1.0),
    "model-spring-length": lambda path: SpringLaw(1.0, 1.0, -1.0),
    "model-force": lambda path: BodyForce(math.nan, 0.0),
    "solver-tolerance": lambda path: SolverConfig(tolerance=0.0),
    "solver-iterations": lambda path: SolverConfig(max_iterations=0),
    "solver-penalty-variant": lambda path: PenaltyProblem(
        benchmark_problem(variant=ConstraintVariant.FULLY_RIGID), _PENALTY.variant, 1.0),
    "solver-fixed-point-penalty": lambda path: solve(_PENALTY, (2, 2), "fixed-point"),
    "solver-method": lambda path: solve(benchmark_problem(), (2, 2), "newton"),
    "solver-problem": lambda path: solve("x", (2, 2)),
    "oracle-dofs": lambda path: grid_search_minimizer(
        _system(4, 3), SpringLaw(1.0, 1.0, 1.0), _NP, (-1.0, 1.0), 0.5),
    "oracle-ranges": lambda path: grid_search_minimizer(
        _system(1, 1), SpringLaw(1.0, 1.0, 1.0), _NP, [(-1.0, 1.0)] * 3, 0.5),
    "oracle-points": lambda path: grid_search_minimizer(
        _system(3, 3), SpringLaw(1.0, 1.0, 1.0), _NP, (-1.0, 1.0), 0.1),
    "experiments-grid": lambda path: run_stiffness_sweep(
        benchmark_problem(), BodyForce(1.0, -1.0), [1.0, 0.5]),
    "experiments-empty-sweep-csv": lambda path: export_csv(_EMPTY_SWEEP, path),
    "experiments-empty-study-csv": lambda path: export_csv(
        ConvergenceStudy((), ConstraintVariant.FULLY_RIGID, None, False), path),
    "experiments-empty-svg": lambda path: export_svg(_EMPTY_SWEEP, path, "gap"),
    "experiments-svg-panel": lambda path: export_svg(
        run_stiffness_sweep(benchmark_problem(), BodyForce(1.0, -1.0), [1.0]), path, "pressure"),
}


@pytest.mark.parametrize("site", sorted(_VALIDATION_SITES))
def test_bad_values_raise_the_package_error(site, tmp_path):
    path = tmp_path / "out"
    with pytest.raises(SpringRodsError) as info:
        _VALIDATION_SITES[site](path)
    assert type(info.value) is ValidationError and isinstance(info.value, ValueError)
    assert not path.exists()


_SPECIFIC_REJECTIONS = {
    GeometryError: lambda: Geometry(1.0, 0.0, 0.5),
    SmallnessViolation: lambda: benchmark_problem(k1=2.5),
    ZeroElements: lambda: build_mesh(GEO, 0, 4),
    NonPositiveLambda: lambda: PenaltyProblem(
        benchmark_problem(), PenaltyVariant.TWO_SIDED, 0.0),
}


@pytest.mark.parametrize("error", list(_SPECIFIC_REJECTIONS), ids=lambda e: e.__name__)
def test_specific_rejections_are_validation_errors(error):
    # a bad value is a ValidationError, and so a ValueError, whatever its own class
    with pytest.raises(SpringRodsError) as info:
        _SPECIFIC_REJECTIONS[error]()
    assert type(info.value) is error
    assert isinstance(info.value, ValidationError) and isinstance(info.value, ValueError)
