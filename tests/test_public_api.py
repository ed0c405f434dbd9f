import os
import subprocess
import sys
from pathlib import Path

import pytest

import spring_rods
import spring_rods.fem

#: The package's public names; adding or removing one means editing this list.
PUBLIC_NAMES = [
    "AnalyticSolution", "BodyForce", "ConstraintVariant", "ConvergenceRecord",
    "ConvergenceStudy", "DiscreteSystem", "DofVector",
    "EmptyFeasibleGrid", "EquilibriumSolution", "Geometry", "GeometryError",
    "InfeasibleCandidate", "Material", "Mesh", "NoConsistentRegime",
    "NonPositiveLambda", "ParseError", "PenaltyProblem",
    "PenaltyVariant", "ProblemSpec", "ReducedSystem", "SmallnessViolation",
    "SolverConfig", "SolverDiagnostics", "SpringLaw", "SpringRodsError",
    "SweepRecord", "SweepResult", "ValidationError", "ZeroElements",
    "analytic_solution", "assemble", "build_mesh", "effective_spring",
    "export_csv", "export_svg", "grid_search_minimizer", "interface_stress",
    "make_problem", "recover_full", "run_penalty_convergence", "run_stiffness_sweep",
    "schur_reduce", "solve", "solve_exact", "solve_penalized",
    "solve_projected_gradient", "solve_qvi_fixed_point", "vi_residual",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert sorted(spring_rods.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spring_rods, name) is not None


def test_energy_norm_is_a_fem_helper_only():
    # the reference energy norm of the tests, not a package-level name
    assert not hasattr(spring_rods, "v_norm")
    assert callable(spring_rods.fem.v_norm)


_PROBLEM = spring_rods.make_problem(spring_rods.Geometry(-1.0, 1.0, 0.5),
                                    spring_rods.Material(1.0, 1.0),
                                    spring_rods.SpringLaw(0.4, 0.4, 1.0),
                                    spring_rods.BodyForce(1.0, -1.0))
_MESH = spring_rods.build_mesh(_PROBLEM.geometry, 4, 4)
_SYSTEM = spring_rods.assemble(_MESH, _PROBLEM.material, _PROBLEM.forces)
_PENALTY = spring_rods.PenaltyVariant.EXTENSION_ONLY


@pytest.mark.parametrize("call, what", [
    (lambda tmp: spring_rods.export_csv(None, tmp / "out.csv"), "result"),
    (lambda tmp: spring_rods.export_svg(None, tmp / "out.svg", "gap"), "result"),
    (lambda tmp: spring_rods.analytic_solution(None), "problem"),
    (lambda tmp: spring_rods.solve_exact(spring_rods.schur_reduce(_SYSTEM), _PROBLEM.spring,
                                         "non-penetration", _PROBLEM.geometry.l), "variant"),
    (lambda tmp: spring_rods.solve(_PROBLEM, (4,)), "mesh sizes"),
    (lambda tmp: spring_rods.solve(_PROBLEM, None), "mesh sizes"),
    (lambda tmp: spring_rods.solve(_PROBLEM, (4, 4), "gradient", "x"), "config"),
    (lambda tmp: spring_rods.PenaltyProblem(_PROBLEM, None, 0.1), "penalty variant"),
    (lambda tmp: spring_rods.PenaltyProblem(None, _PENALTY, 0.1), "base problem"),
    (lambda tmp: spring_rods.effective_spring(None, _PENALTY, 0.5), "spring"),
    (lambda tmp: spring_rods.effective_spring(_PROBLEM.spring, None, 0.5), "penalty variant"),
    (lambda tmp: spring_rods.effective_spring(_PROBLEM.spring, "extension", 0.5),
     "penalty variant"),
    (lambda tmp: spring_rods.solve_projected_gradient(_SYSTEM, _PROBLEM.spring,
                                                      "non-penetration"), "variant"),
    (lambda tmp: spring_rods.solve_qvi_fixed_point(_SYSTEM, _PROBLEM.spring,
                                                   "non-penetration"), "variant"),
    (lambda tmp: spring_rods.vi_residual(_SYSTEM, _PROBLEM.spring, "non-penetration",
                                         spring_rods.solve(_PROBLEM).u), "variant"),
    (lambda tmp: spring_rods.assemble(None, _PROBLEM.material, _PROBLEM.forces), "mesh"),
    (lambda tmp: spring_rods.assemble(_MESH, None, _PROBLEM.forces), "material"),
    (lambda tmp: spring_rods.build_mesh(None, 2, 2), "geometry"),
    (lambda tmp: spring_rods.interface_stress(_MESH, None, _PROBLEM.material,
                                              _PROBLEM.forces), "field"),
    (lambda tmp: spring_rods.run_penalty_convergence(_PROBLEM, None), "penalty variant"),
    (lambda tmp: spring_rods.solve_exact(None, _PROBLEM.spring, _PROBLEM.variant,
                                         _PROBLEM.geometry.l), "reduced system"),
    (lambda tmp: spring_rods.vi_residual(None, _PROBLEM.spring, _PROBLEM.variant,
                                         spring_rods.solve(_PROBLEM).u), "system"),
    (lambda tmp: spring_rods.solve_penalized(None, spring_rods.PenaltyProblem(
        _PROBLEM, _PENALTY, 0.1)), "reduced system"),
    (lambda tmp: spring_rods.solve_penalized(spring_rods.schur_reduce(_SYSTEM), None),
     "penalty problem"),
    (lambda tmp: spring_rods.grid_search_minimizer(None, _PROBLEM.spring, _PROBLEM.variant,
                                                   (-1.0, 1.0), 0.5), "system"),
    (lambda tmp: spring_rods.run_stiffness_sweep(None, _PROBLEM.forces, [0.5]), "base problem"),
    (lambda tmp: spring_rods.run_penalty_convergence(None, _PENALTY), "base problem"),
    (lambda tmp: spring_rods.schur_reduce(None), "system"),
    (lambda tmp: spring_rods.solve_projected_gradient(None, _PROBLEM.spring,
                                                      _PROBLEM.variant), "system"),
    (lambda tmp: spring_rods.solve_qvi_fixed_point(None, _PROBLEM.spring,
                                                   _PROBLEM.variant), "system"),
    (lambda tmp: spring_rods.recover_full(None, 0.0, 0.0), "reduced system"),
    (lambda tmp: spring_rods.interface_stress(None, spring_rods.solve(_PROBLEM).u,
                                              _PROBLEM.material, _PROBLEM.forces), "mesh"),
], ids=["export_csv", "export_svg", "analytic_solution", "solve_exact", "solve-one-count",
        "solve-no-counts", "solve-config", "PenaltyProblem-variant", "PenaltyProblem-base",
        "effective_spring-spring", "effective_spring-None", "effective_spring-str",
        "solve_projected_gradient", "solve_qvi_fixed_point", "vi_residual", "assemble-mesh",
        "assemble-material", "build_mesh", "interface_stress", "run_penalty_convergence",
        "solve_exact-reduced", "vi_residual-system", "solve_penalized-reduced",
        "solve_penalized-penalty", "grid_search_minimizer", "run_stiffness_sweep",
        "run_penalty_convergence-base", "schur_reduce", "solve_projected_gradient-system",
        "solve_qvi_fixed_point-system", "recover_full", "interface_stress-mesh"])
def test_an_argument_of_the_wrong_type_is_a_validation_error(call, what, tmp_path):
    # these leaked TypeError, AttributeError or KeyError from inside the call; a None
    # first argument, AttributeError
    with pytest.raises(spring_rods.ValidationError, match=f"^{what}: need a "):
        call(tmp_path)
    assert not list(tmp_path.iterdir())


def test_the_cli_imports_only_the_standard_library_and_numpy():
    # every console-script run pays for these imports before it solves anything
    src = str(Path(spring_rods.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import spring_rods.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    new = set(proc.stdout.split())
    assert {"numpy", "spring_rods"} <= new
    assert new - set(sys.stdlib_module_names) <= {"numpy", "spring_rods"}
