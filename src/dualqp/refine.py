"""Proximal-point iterative refinement on the shifted masked system.

The pinned subproblem reduces to the linear system  masked(G) x = -c_bar
with masked(G) only positive semidefinite in general.  Given the factor
of (masked(G) + eps*I), the iteration

    x_{k+1} = x_k + (masked(G) + eps*I)^{-1} (-c_bar - masked(G) x_k)

is the proximal-point method with step 1/eps.  Two regimes:

* consistent system: x_k converges to a solution and the steps vanish;
* inconsistent system (RHS has a component in the null space): the
  steps converge to the null-space component of the RHS scaled by
  1/eps, i.e. a direction of zero curvature along which the subproblem
  objective decreases without bound.

Classification reads the iterate statistics.  A small residual with a
collapsing step means a solution; settled second differences with a
step that stays large relative to ||x_k|| mean a descent direction.
The returned direction is the normalized limit step, oriented so its
slope on c_bar is negative (the sign of the raw limit is not trusted),
then checked for curvature and slope.  refine_solve returns p, the
iteration count and the regime: all that the active-set loop reads.

The shift eps is read off the factor.  Which shift a factor carries,
and when to sharpen it after a failed classification, is the policy of
the active-set loop (active_set.py); the iteration budget and the
classification tolerances are the constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import matvec_masked, solve_with_factor

_MAX_ITERS = 20         # refinement budget per subproblem
_CURVATURE_TOL = 1e-6   # runtime guarantee on returned descent directions
_RES_TOL = 1e-11        # on ||masked(G) x + c_bar|| / (1 + ||c_bar||)
_STAGNATION_TOL = 1e-3  # step ratio separating the two regimes
_DD_TOL = 1e-7          # on ||second difference|| / ||x||


class RefinementError(RuntimeError):
    """Refinement failed to classify within the iteration budget, or a
    descent direction failed its runtime checks.

    `iterate` is what callers may salvage, though it certifies neither
    regime.  When the budget runs out it is the last refinement iterate,
    a strict descent direction for the subproblem whenever c_bar is
    nonzero.  When a descent direction fails its checks it is the
    unoriented limit step, which may slope uphill.  `iters` is the
    iteration count at the failure.
    """

    def __init__(self, message, iterate, iters):
        super().__init__(message)
        self.iterate, self.iters = iterate, iters


@dataclass
class RefineOutcome:
    p: np.ndarray
    iters: int
    is_solution: bool  # else p is a descent direction


def refine_solve(f, c_bar):
    """Solve or refute masked(G) x = -c_bar through the shifted factor.

    Parameters
    ----------
    f : MaskedFactor of (masked(G) + eps*I); eps is f.epsilon.
    c_bar : masked right-hand side (zero on the working set), float
        vector of length f.n.

    Returns
    -------
    RefineOutcome with is_solution True (p solves the system, masked
    coordinates exactly zero) or False (p a descent direction: unit
    norm, masked(G) p ~ 0 and c_bar @ p < 0), and the iteration count.

    Raises
    ------
    RefinementError if neither test fires within _MAX_ITERS
    iterations, or a descent direction fails its runtime checks.
    """
    G, W = f.base, f.mask

    c_norm = _norm(c_bar)
    x = np.zeros(f.n)
    r = -c_bar
    prev_step = None
    for k in range(1, _MAX_ITERS + 1):
        step = solve_with_factor(f, r)
        x = x + step
        r = -c_bar - matvec_masked(G, W, x)
        res = _norm(r)
        x_norm = _norm(x)
        step_norm = _norm(step)
        ratio = step_norm / x_norm if x_norm > 0 else 0.0

        if res <= _RES_TOL * (1.0 + c_norm) and ratio <= _STAGNATION_TOL:
            return RefineOutcome(x, k, True)

        if prev_step is not None and x_norm > 0:
            dd = _norm(step - prev_step)
            if dd <= _DD_TOL * x_norm:
                if ratio > _STAGNATION_TOL:
                    return RefineOutcome(
                        _extract_direction(f, c_bar, step, k), k, False)
                # Steps have stopped moving and are tiny relative to x:
                # converged to the attainable accuracy for this system.
                return RefineOutcome(x, k, True)
        prev_step = step

    raise RefinementError(f"no convergence within {_MAX_ITERS} iterations",
                          x, _MAX_ITERS)


def _norm(v):
    # np.linalg.norm of a real 1-D v, bit for bit, without its wrapper
    return math.sqrt(v.dot(v))


def _extract_direction(f, c_bar, step, iters):
    p = step / _norm(step)
    if c_bar @ p > 0:
        p = -p

    curvature = _norm(matvec_masked(f.base, f.mask, p))
    slope = c_bar @ p
    if curvature > _CURVATURE_TOL or not slope < 0:
        raise RefinementError(
            f"extracted direction failed verification: curvature "
            f"{curvature:.6g}, slope {slope:.6g}", step, iters)
    return p
