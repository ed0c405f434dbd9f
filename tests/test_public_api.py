import spring_rods
import spring_rods.fem

#: The package's public names; adding or removing one means editing this list.
PUBLIC_NAMES = [
    "AnalyticSolution", "BodyForce", "ConstraintVariant", "ConvergenceRecord",
    "ConvergenceStudy", "DiscreteSystem", "DofVector",
    "EmptyFeasibleGrid", "EquilibriumSolution", "Geometry", "GeometryError",
    "InfeasibleCandidate", "Material", "Mesh", "NoConsistentRegime",
    "NonPositiveLambda", "ParseError", "PenaltyLaw", "PenaltyProblem",
    "PenaltyVariant", "ProblemSpec", "ReducedSystem", "SmallnessViolation",
    "SolverConfig", "SolverDiagnostics", "SpringLaw", "SpringRodsError",
    "SweepRecord", "SweepResult", "ValidationError", "ZeroElements",
    "analytic_solution", "assemble", "build_mesh", "effective_spring",
    "export_csv", "export_svg", "grid_search_minimizer", "interface_stress",
    "make_problem", "recover_full", "run_penalty_convergence", "run_stiffness_sweep",
    "schur_reduce", "solve", "solve_exact", "solve_penalized",
    "solve_projected_gradient", "solve_qvi_fixed_point", "spring_gap", "vi_residual",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(spring_rods.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spring_rods, name) is not None


def test_energy_norm_is_a_fem_helper_only():
    # the reference energy norm of the tests, not a package-level name
    assert not hasattr(spring_rods, "v_norm")
    assert callable(spring_rods.fem.v_norm)
