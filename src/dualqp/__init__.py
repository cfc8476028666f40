"""Dense convex QP solver working through the dual.

The pipeline: transform a strictly convex primal QP into its dual bound-
constrained QP (build_dual), run the dual active-set method with masked
Cholesky updates and proximal-point refinement (solve_dual), and map the
multipliers back to the primal point (recover_primal).  solve() chains
the three.  The masked-factor kernel and the refinement loop are
internals, importable from dualqp.kernel and dualqp.refine; so is
build_dual's DualQP, from dualqp.active_set.  Its other output, the
factor of P that recover_primal takes, is scipy's cho_factor pair, or
None when identity_p is set.
"""

from .kernel import WorkingSet
from .active_set import (SolveReport, SolveStatus, SolverConfig,
                         smartstart, solve_dual)
from .transform import (InvalidProblemError, PrimalQP, PrimalSolution,
                        build_dual, recover_primal)
from .oracle import (InfeasibleProblemError, OracleResult, enumerate_solve,
                     random_qp)
from .generators import (MpcSpec, PolytopeSpec, afti16_spec, build_mpc,
                         build_polytope)
from .cli import ProblemFormatError, load_problem, save_problem

__version__ = "0.1.0"


def solve(primal, cfg=None):
    """Solve a PrimalQP end to end.

    Returns (PrimalSolution, SolveReport).  An infeasible primal is
    not an error: the report's status is PRIMAL_INFEASIBLE and its ray
    the Farkas certificate.
    """
    dual, pf = build_dual(primal)
    report = solve_dual(dual, cfg=cfg)
    solution = recover_primal(primal, pf, report.mu_star)
    return solution, report


__all__ = [
    "solve", "PrimalQP", "PrimalSolution", "build_dual", "recover_primal",
    "WorkingSet", "smartstart", "solve_dual",
    "SolverConfig", "SolveReport", "SolveStatus",
    "InvalidProblemError",
    "enumerate_solve", "random_qp", "OracleResult", "InfeasibleProblemError",
    "MpcSpec", "PolytopeSpec", "afti16_spec", "build_mpc", "build_polytope",
    "load_problem", "save_problem", "ProblemFormatError",
]
