"""Dense convex QP solver working through the dual.

The pipeline: transform a strictly convex primal QP into its dual bound-
constrained QP (build_dual), run the dual active-set method with masked
Cholesky updates and proximal-point refinement (solve_dual), and map the
multipliers back to the primal point (recover_primal).  solve() chains
the three.  The masked-factor kernel and the refinement loop are
internals, importable from dualqp.kernel and dualqp.refine; so are
build_dual's DualQP and the smartstart rule, from dualqp.active_set.
build_dual's other output, the factor of P that recover_primal takes,
is P's lower Cholesky factor (LAPACK's potrf, Fortran order, read-only),
or None when identity_p is set.  The problem-file format (load_problem,
save_problem, ProblemFormatError) belongs to the command line and is
imported from dualqp.cli; importing dualqp does not load it.
"""

from .kernel import WorkingSet
from .active_set import SolveReport, SolveStatus, SolverConfig, solve_dual
from .transform import (InvalidProblemError, PrimalQP, PrimalSolution,
                        build_dual, recover_primal)
from .oracle import (InfeasibleProblemError, OracleResult, enumerate_solve,
                     random_qp)
from .generators import (MpcSpec, PolytopeSpec, afti16_spec, build_mpc,
                         build_polytope)

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
    "WorkingSet", "solve_dual",
    "SolverConfig", "SolveReport", "SolveStatus",
    "InvalidProblemError",
    "enumerate_solve", "random_qp", "OracleResult", "InfeasibleProblemError",
    "MpcSpec", "PolytopeSpec", "afti16_spec", "build_mpc", "build_polytope",
]
