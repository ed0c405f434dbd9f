"""Equilibrium of two elastic rods coupled by a nonlinear unilateral spring."""

from .errors import (EmptyFeasibleGrid, GeometryError, InfeasibleCandidate,
                     NoConsistentRegime, NonPositiveLambda, ParseError, SmallnessViolation,
                     SpringRodsError, ValidationError, ZeroElements)
from .experiments import (ConvergenceRecord, ConvergenceStudy, SweepRecord, SweepResult,
                          export_csv, export_svg, run_penalty_convergence,
                          run_stiffness_sweep)
from .fem import (DiscreteSystem, DofVector, Mesh, ReducedSystem, assemble, build_mesh,
                  interface_stress, recover_full, schur_reduce)
from .model import (BodyForce, ConstraintVariant, Geometry, Material, PenaltyVariant,
                    ProblemSpec, SpringLaw, make_problem, spring_gap)
from .oracle import AnalyticSolution, analytic_solution, grid_search_minimizer
from .solver import (EquilibriumSolution, PenaltyProblem, SolverConfig,
                     SolverDiagnostics, effective_spring, solve, solve_exact,
                     solve_penalized, solve_projected_gradient, solve_qvi_fixed_point,
                     vi_residual)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution", "BodyForce", "ConstraintVariant",
    "ConvergenceRecord", "ConvergenceStudy", "DiscreteSystem", "DofVector",
    "EmptyFeasibleGrid", "EquilibriumSolution", "Geometry", "GeometryError",
    "InfeasibleCandidate", "Material", "Mesh", "NoConsistentRegime",
    "NonPositiveLambda", "ParseError", "PenaltyProblem",
    "PenaltyVariant", "ProblemSpec", "ReducedSystem",
    "SmallnessViolation", "SolverConfig", "SolverDiagnostics", "SpringLaw",
    "SpringRodsError", "SweepRecord", "SweepResult", "ValidationError",
    "ZeroElements", "analytic_solution", "assemble", "build_mesh", "effective_spring",
    "export_csv", "export_svg", "grid_search_minimizer", "interface_stress",
    "make_problem", "recover_full", "run_penalty_convergence", "run_stiffness_sweep",
    "schur_reduce", "solve", "solve_exact", "solve_penalized",
    "solve_projected_gradient", "solve_qvi_fixed_point", "spring_gap", "vi_residual",
]
