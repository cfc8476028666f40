"""Brute-force reference solver and seeded problem generator.

enumerate_solve walks every subset of the inequality constraints,
solves the equality-pinned KKT system for each (least squares when the
active rows are dependent), and keeps the best feasible candidate.  For
a strictly convex QP the optimizer appears among these candidates, so
the minimum-objective feasible one is the global solution.  This is
exponential in m_in by construction; it exists to check the fast
solver, not to compete with it.

random_qp draws reproducible test problems from numpy's default
generator (PCG64), so a seed pins the problem bytes on every platform.
Feasibility is guaranteed by construction: offsets are generated from a
sampled interior point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .transform import PrimalQP

_MAX_ENUM = 20
_FEAS_TOL = 1e-8   # violation / row norm, times 1 + ||(b, d) / row norm||
_MULT_TOL = 1e-8   # inequality multipliers down to -tol count as >= 0


class InfeasibleProblemError(RuntimeError):
    """Exhaustive enumeration found no feasible candidate."""


@dataclass
class OracleResult:
    x: np.ndarray
    active: tuple          # 0-based inequality indices, ascending
    objective: float
    certified: bool        # KKT verified (feasible + valid multiplier signs)


def _kkt_candidate(P, q, rows, rhs):
    # Stationary point with the given rows pinned as equalities.
    n = P.shape[0]
    ma = rows.shape[0]
    K = np.zeros((n + ma, n + ma))
    K[:n, :n] = P
    K[:n, n:] = rows.T
    K[n:, :n] = rows
    full_rhs = np.concatenate([-q, rhs])
    z = None
    try:
        z = np.linalg.solve(K, full_rhs)
    except np.linalg.LinAlgError:
        pass
    tol = 1e-8 * (1.0 + np.linalg.norm(full_rhs, np.inf))
    if z is None or not np.isfinite(z).all() \
            or np.linalg.norm(K @ z - full_rhs, np.inf) > tol:
        z = np.linalg.lstsq(K, full_rhs, rcond=None)[0]
        if np.linalg.norm(K @ z - full_rhs, np.inf) > tol:
            return None, None  # no stationary point under this pinning
    return z[:n], z[n:]


def enumerate_solve(primal):
    """Globally solve a small QP by enumerating active sets.

    Refuses problems with more than 20 inequality rows.  Raises
    InfeasibleProblemError when no candidate satisfies the constraints.
    Feasibility is tested on |a_i x - b_i| / ||a_i|| and (c_i x - d_i)
    / ||c_i||, so one row's scale cannot loosen another's test.
    Ties in objective (within 1e-9 relative) resolve to the smallest
    active set, then lexicographic order.
    """
    if primal.m_in > _MAX_ENUM:
        raise ValueError(
            f"enumeration bound exceeded: m_in={primal.m_in} > {_MAX_ENUM}")
    n = primal.n
    P = np.eye(n) if primal.identity_p else primal.P
    A, b, C, d = primal.A, primal.b, primal.C, primal.d
    norms = np.concatenate([np.linalg.norm(A, axis=1),
                            np.linalg.norm(C, axis=1)])
    norms[norms == 0.0] = 1.0  # a zero row is tested as it is
    offsets = np.concatenate([b, d]) / norms
    ftol = _FEAS_TOL * (1.0 + np.max(np.abs(offsets), initial=0.0))

    best = None        # (objective, x, subset)
    sign_valid = []    # x of candidates whose multipliers pass the sign test
    for r in range(primal.m_in + 1):
        for S in combinations(range(primal.m_in), r):
            rows = np.vstack([A, C[list(S)]])
            rhs = np.concatenate([b, d[list(S)]])
            x, mults = _kkt_candidate(P, primal.q, rows, rhs)
            if x is None:
                continue
            viol = np.concatenate([np.abs(A @ x - b), C @ x - d]) / norms
            if np.max(viol, initial=0.0) > ftol:
                continue
            obj = primal.objective(x)
            if mults[primal.m_eq:].size == 0 \
                    or np.min(mults[primal.m_eq:]) >= -_MULT_TOL:
                sign_valid.append(x)
            if best is None or obj < best[0] - 1e-9 * (1.0 + abs(best[0])):
                best = (obj, x, S)

    if best is None:
        raise InfeasibleProblemError(
            "no active set yields a feasible point: problem is infeasible")
    obj, x, S = best
    xtol = 1e-8 * (1.0 + np.linalg.norm(x, np.inf))
    certified = any(np.linalg.norm(xs - x, np.inf) <= xtol
                    for xs in sign_valid)
    return OracleResult(x=x, active=tuple(S), objective=float(obj),
                        certified=bool(certified))


def random_qp(seed, n, m_eq, m_in, make_degenerate=False):
    """Seeded strictly convex QP with a guaranteed interior point.

    P = M'M + I for a square standard-normal M; b and d are generated
    from a sampled point so the constraints are consistent and strictly
    satisfiable.  With make_degenerate, every third inequality row is
    an exact copy of its predecessor (same offset), which forces
    rank-deficient constraint blocks and a singular dual Hessian.
    """
    if make_degenerate and m_in < 2:
        raise ValueError("make_degenerate needs at least two inequality rows")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    P = M.T @ M + np.eye(n)
    q = rng.standard_normal(n)
    x_int = rng.standard_normal(n)
    A = rng.standard_normal((m_eq, n))
    b = A @ x_int
    C = rng.standard_normal((m_in, n))
    gap = rng.uniform(0.1, 1.0, m_in)
    d = C @ x_int + gap
    if make_degenerate:
        for k in range(1, m_in, 3):
            C[k] = C[k - 1]
            d[k] = d[k - 1]
    return PrimalQP(P=P, q=q, A=A, b=b, C=C, d=d)
