"""Dual active-set loop.

Minimizes 0.5 mu' G mu + h' mu subject to nonnegativity of the
inequality block of mu, starting from the feasible point mu = 0.  Each
iteration pins the working set to zero, asks the refinement module for
a direction, and either steps (with a ratio test against the bounds),
grows the working set at a blocking bound, or, at a subspace minimizer,
inspects the bound multipliers to drop an index or declare optimality.
The loop carries mu, its product g_mu = G mu, formed anew only after a
step, and the factor record f, which holds G and the working set.
The subspace-minimizer test allows for the rounding in G mu (the
_ROUNDING_TOL term): at a large mu that rounding is all the gradient
has left, and a test without it would never pass.

solve_dual runs on the DualQP that build_dual returns, and checks its
data no further.  This module alone applies the dual's row scale s:
multipliers and rays leave solve_dual times s.

Unbounded descent (a zero-curvature direction with no blocking bound)
means the original inequality-constrained problem is infeasible; the
solve then ends with status PRIMAL_INFEASIBLE and the ray on its
report, but only once the curvature along the direction is confirmed
to be zero at machine level and the ray y = s p is a Farkas
certificate on the rows M = [A; C] and offsets [b; d] of the primal
the dual was built from:

    ||M'y||_inf <= _RAY_TOL ||M||_inf ||y||_inf   and   [b; d]'y < 0,

where ||M||_inf is the largest absolute row sum.  A ray that fails
this check ends the solve as NUMERICAL_FAILURE.

The proximal shift used by the refinement module doubles as a spectral
cutoff: eigenvalues far below it act as zeros, far above it as regular
curvature, and eigenvalues near it are ambiguous.  build_dual scales
the rows so that max|G| <= 1, so one cutoff means the same on every
problem, and the shift policy is a fixed rule of this module, not a
setting.  When refinement cannot classify a subproblem the loop
refactorizes in place at a shift _SHIFT_SHRINK times smaller and
retries, down to _SHIFT_FLOOR.  At the floor the last refinement
iterate is salvaged as an uncertified descent direction.

The shift comes back after a hard subproblem.  The loop keeps a home
shift: _SHIFT_START at the start, then the shift of the last
subproblem that refinement classified without salvage.  Classification
happens at or below home, so home never rises.

One rule builds the factor: each outer iteration that needs
refinement first factorizes in place at home when there is no factor
or the factor's shift is below home.  So the first factor is built on
the first step, at _SHIFT_START; a solve whose start set is already
optimal never factorizes.  A collapsed downdate drops the factor, and
the next step rebuilds it.  When a build at home fails, the loop keeps
the sharper factor it has; with none, the solve ends as
NUMERICAL_FAILURE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernel import (CholeskyDowndateError, MaskedFactor, WorkingSet,
                     add_index, as_integer, factorize,
                     lambda_from_direction, mask_vector, remove_index)
from .refine import (OutcomeKind, RefineOutcome, RefinementError,
                     refine_solve)

_LAMBDA_TOL = 1e-10        # bound-multiplier slack, times 1+||h||
_STATIONARITY_TOL = 1e-10  # subspace-minimizer test, same scaling
_ROUNDING_TOL = 1e-13      # rounding in G mu, times (1+max|G|)||mu||_inf
_FLAT_TOL = 1e-12          # certified-flat curvature, times 1+max|G|
_SHIFT_START = 1e-7        # first shift and first home shift
_SHIFT_SHRINK = 1e-2       # shift reduction per escalation
_SHIFT_FLOOR = 1e-12       # smallest shift worth factorizing with
_RAY_TOL = 1e-10           # primal check on a ray, times ||M||_inf ||p||_inf


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"
    PRIMAL_INFEASIBLE = "primal_infeasible"


@dataclass
class DualQP:
    """What build_dual returns: G and h of the rows s_i [A; C]_i and
    offsets s_i [b; d]_i, the PrimalQP behind them (by reference, not a
    stacked copy of its rows), and the row scale s.  The first m_eq
    coordinates, one per equality row, are free; the other m_in are
    bounded below by 0.  solve_dual reports mu and rays times s, in the
    caller's row units, and checks an infeasibility ray on the primal."""

    G: np.ndarray
    h: np.ndarray
    primal: object = field(repr=False)
    s: np.ndarray = field(repr=False)

    @property
    def m_eq(self):
        return self.primal.m_eq

    @property
    def m_in(self):
        return self.primal.m_in

    @property
    def m(self):
        return self.m_eq + self.m_in


@dataclass(frozen=True)
class SolverConfig:
    """The caller's budget and start; the solver's rules are constants.

    Checked when built (ValueError for a setting the solver cannot run
    with) and frozen, so nothing downstream re-checks it."""

    max_outer_iters: int | None = None  # default 10 * (m_eq + m_in)
    smartstart: bool = True

    def __post_init__(self):
        if not isinstance(self.smartstart, (bool, np.bool_)):
            raise ValueError("smartstart must be a bool")
        n = self.max_outer_iters
        if n is not None and as_integer("max_outer_iters", n) < 1:
            raise ValueError("max_outer_iters must be None or an integer "
                             ">= 1")


@dataclass
class SolveReport:
    """What solve_dual returns: mu_star in row units, the status, the
    dual objective and the work of the loop.  It carries no residuals:
    recover_primal measures them on the primal data.  ray is the checked
    Farkas certificate y = s p, in row units, when the status is
    PRIMAL_INFEASIBLE: [A; C]'y ~ 0, y >= 0 on the inequality rows and
    [b; d]'y < 0.  It is None for every other status."""

    mu_star: np.ndarray
    status: SolveStatus
    objective: float
    outer_iters: int
    refine_calls: int
    refine_iters_min: int
    refine_iters_max: int
    refine_iters_mean: float
    descent_count: int
    salvaged_steps: int              # descent steps on uncertified directions
    shift_retries: int               # escalations to a sharper shift
    final_shift: float               # shift in effect at termination
    message: str = ""
    ray: np.ndarray | None = None


def smartstart(qp):
    """Initial working set {i in the inequality block : h_i >= 0}.

    The gradient of the dual objective at mu = 0 is h.  Where h_i >= 0
    the objective grows along the coordinate, so the bound is likely
    active at the optimum and gets pinned; where h_i < 0 the first
    unconstrained step pushes into the interior, so the coordinate
    stays free.  On problems where few bounds end up inactive this
    leaves a small first subproblem and the loop mostly drops pins."""
    m_eq = qp.m_eq
    return WorkingSet(m_eq, qp.m_in,
                      m_eq + np.flatnonzero(qp.h[m_eq:] >= 0.0))


def step_length(mu, p, W):
    """Largest feasible step along p from mu, and the blocking index.

    Only free inequality coordinates with (p)_i < 0 limit the step; ties
    pick the smallest index.  Returns (inf, None) when nothing blocks.
    """
    m_eq = W.m_eq
    cand = m_eq + np.flatnonzero((p[m_eq:] < 0.0) & ~W.member[m_eq:])
    if not cand.size:
        return math.inf, None
    ratios = -mu[cand] / p[cand]
    j = int(np.argmin(ratios))  # first minimum = smallest index
    return float(ratios[j]), int(cand[j])


def _reshift(f, epsilon):
    # (Re)factorize f in place at epsilon on f.base, the one place that
    # builds a factor.  Returns None, or the LinAlgError with f untouched
    # when the shifted block does not factor (on a G with large entries,
    # a rank-deficient block can round to indefinite at a small shift).
    try:
        fresh = factorize(f.base, f.mask, epsilon)
    except np.linalg.LinAlgError as err:
        return err
    f.factor, f.epsilon = fresh.factor, fresh.epsilon
    return None


def _sharpen(f):
    # Refactorize f in place at the next shift down; False, with f
    # untouched, at the floor or when the sharper shift does not factor.
    return f.epsilon > _SHIFT_FLOOR and _reshift(
        f, max(f.epsilon * _SHIFT_SHRINK, _SHIFT_FLOOR)) is None


def _salvage(err, c_bar):
    """Turn a failed classification into an uncertified descent direction.

    The final refinement iterate descends the subproblem objective by
    construction, so when classification is out of reach (spectrum
    crowding the shift from both sides) the iterate still drives the
    outer loop: it selects a blocking bound, or gets cut at its exact
    line minimizer.  Returns None when the iterate is zero, not finite
    or fails the slope check.
    """
    nrm = np.linalg.norm(err.iterate)
    if not nrm > 0.0:
        return None
    p = err.iterate / nrm
    if not float(c_bar @ p) < 0.0:
        return None
    return RefineOutcome(OutcomeKind.DESCENT_DIRECTION, p, err.iters,
                         err.residual)


def _directed_step(f, c_bar, mu, g_scale):
    """Classify the pinned subproblem and settle the step along the result.

    Returns (outcome, alpha, blocking, salvaged, retries, failure).
    When refinement cannot classify at the current shift, f is
    refactorized in place at a sharper one and the subproblem retried;
    retries counts those escalations.  Once the floor is reached the
    last iterate is salvaged as an uncertified descent direction, and
    salvaged is True: the caller's home shift then stays where it was
    (module docstring).  Otherwise it was classified at f.epsilon.  A
    solution steps at most to 1, the subspace minimizer.  Every descent
    step is capped at its exact line minimizer -slope/curvature, the
    curvature p' G p read on f.base, so real curvature along a nominally
    flat direction cannot break the monotone decrease of the objective.

    failure is None, or the reason the subproblem gave no usable step,
    with (outcome, alpha, blocking) all None: the refinement error when
    salvage fails, or a flat salvaged direction that no bound blocks.
    A classified direction whose curvature is zero at machine level
    while no bound blocks it comes back with alpha = inf and blocking
    None, a ray for the caller to check on the primal.
    """
    retries = 0
    salvaged = False
    while True:
        try:
            outcome = refine_solve(f, c_bar)
        except RefinementError as err:
            if _sharpen(f):
                retries += 1
                continue
            outcome = _salvage(err, c_bar)
            if outcome is None:
                return None, None, None, False, retries, str(err)
            salvaged = True
        break

    p = outcome.p
    alpha, blocking = step_length(mu, p, f.mask)
    if outcome.is_solution:
        if alpha > 1.0:  # the subspace minimizer comes first
            alpha, blocking = 1.0, None
        return outcome, alpha, blocking, salvaged, retries, None

    curv = float(p @ (f.base @ p))
    flat = curv <= _FLAT_TOL * g_scale * float(p @ p)
    alpha_min = math.inf if flat else -float(c_bar @ p) / curv
    if alpha_min < alpha:
        return outcome, alpha_min, None, salvaged, retries, None
    if blocking is None and salvaged:  # flat, and no bound blocks
        return (None, None, None, True, retries,
                "flat uncertified direction with no blocking bound")
    return outcome, alpha, blocking, salvaged, retries, None


def _ray_check(qp, p):
    # None when p, in row units, is a Farkas certificate on the primal
    # rows (module docstring); else the failure message.  p >= 0 on the
    # inequality rows holds already: no bound blocks p.
    A, C, m_eq = qp.primal.A, qp.primal.C, qp.m_eq
    resid = _inf_norm(A.T @ p[:m_eq] + C.T @ p[m_eq:])
    gap = float(np.concatenate([qp.primal.b, qp.primal.d]) @ p)
    # ||M||_inf, the largest absolute row sum over both blocks
    m_norm = max(_inf_norm(np.abs(A).sum(axis=1)),
                 _inf_norm(np.abs(C).sum(axis=1)))
    if resid <= _RAY_TOL * m_norm * _inf_norm(p) and gap < 0.0:
        return None
    return (f"infeasibility ray failed the primal check: "
            f"||M'p||_inf {resid:.3g}, [b; d]'p {gap:.3g}")


def _inf_norm(v):
    return float(np.max(np.abs(v), initial=0.0))


def solve_dual(qp, cfg=None):
    """Run the dual active-set method from mu = 0.

    Parameters
    ----------
    qp : DualQP, as build_dual returns it.
    cfg : SolverConfig, checked when it was built.  The start set is
        smartstart(qp) when cfg.smartstart, else the empty set; at
        mu = 0 either is valid.

    g_mu = G mu is formed at mu = 0 and after each step; the gradient
    and the reported objective read it.  f is built when a step first
    needs it, at the home shift (module docstring); f.mask is the only
    copy of the working set, moved with the factor by add_index and
    remove_index, and a drop with no factor built edits the mask alone.

    Returns
    -------
    SolveReport.  status OPTIMAL carries the certified multipliers,
    and its message names the count of salvaged steps, if any;
    PRIMAL_INFEASIBLE carries the ray of a zero-curvature descent
    direction that meets no blocking bound and passes the primal check;
    ITERATION_LIMIT and NUMERICAL_FAILURE report the best iterate with
    a diagnostic message.  mu_star is s mu, in row units; its KKT
    residuals are measured on the primal data, by recover_primal.
    """
    cfg = cfg or SolverConfig()
    W0 = smartstart(qp) if cfg.smartstart else WorkingSet(qp.m_eq, qp.m_in)
    m = qp.m
    max_outer = cfg.max_outer_iters or max(10 * m, 1)
    h_scale = 1.0 + _inf_norm(qp.h)

    mu = np.zeros(m)
    g_mu = qp.G @ mu  # formed, not zeroed: c keeps G mu's signed zeros
    # 1 + max|G|, read off the diagonal in O(m): G is PSD, so its
    # largest entry is a diagonal one; in [1, 2], as build_dual bounds
    # max|G| by 1
    g_scale = 1.0 + _inf_norm(np.diagonal(qp.G))
    refine_iters = []
    descent_count = 0
    salvaged_steps = 0
    shift_retries = 0
    k = 0
    f = MaskedFactor(qp.G, W0, _SHIFT_START, factor=None)
    home = _SHIFT_START
    status = SolveStatus.ITERATION_LIMIT
    message = "outer iteration cap reached"
    ray = None

    for k in range(1, max_outer + 1):
        c = g_mu + qp.h
        c_bar = mask_vector(c, f.mask)
        if _inf_norm(c_bar) <= (_STATIONARITY_TOL * h_scale
                                + _ROUNDING_TOL * g_scale * _inf_norm(mu)):
            # at this subspace's minimizer: check the bound multipliers
            sigma = -lambda_from_direction(c, f.mask)
            if sigma.size == 0 or np.min(sigma) >= -_LAMBDA_TOL * h_scale:
                status = SolveStatus.OPTIMAL
                message = (f"optimal, but {salvaged_steps} step(s) "
                           f"took salvaged, uncertified directions"
                           if salvaged_steps else "")
                break
            j = int(f.mask.indices[int(np.argmin(sigma))])
            if f.factor is None:
                f.mask = f.mask.remove(j)
                continue
            try:
                f = remove_index(f, j)
            except CholeskyDowndateError:
                # the downdate spoiled the factor: the next step rebuilds
                # it at home
                f.factor, f.epsilon, f.mask = None, home, f.mask.remove(j)
            continue

        if f.factor is None or f.epsilon < home:
            err = _reshift(f, home)  # on failure a sharper f is kept
            if f.factor is None:
                status = SolveStatus.NUMERICAL_FAILURE
                message = (f"factorization failed at iteration {k}, "
                           f"shift {home:g}: {err}")
                break
        (outcome, alpha, blocking, salvaged, retries,
         failure) = _directed_step(f, c_bar, mu, g_scale)
        shift_retries += retries
        if alpha == math.inf:
            # certified flat, and no bound blocks: a ray of the dual
            y = qp.s * outcome.p  # in row units
            failure = _ray_check(qp, y)
            if failure is None:
                status, ray = SolveStatus.PRIMAL_INFEASIBLE, y
                message = ("unbounded descent direction with no blocking "
                           "bound: the primal problem is infeasible")
                break
        if failure is not None:
            status = SolveStatus.NUMERICAL_FAILURE
            message = f"refinement failed at iteration {k}: {failure}"
            break
        if salvaged:
            salvaged_steps += 1
        else:
            home = f.epsilon
        refine_iters.append(outcome.iters)
        if not outcome.is_solution:
            descent_count += 1
        mu = mu + alpha * outcome.p
        np.maximum(mu[qp.m_eq:], 0.0, out=mu[qp.m_eq:])
        if blocking is not None:
            mu[blocking] = 0.0
            f = add_index(f, blocking)
        g_mu = qp.G @ mu

    iters = refine_iters or [0]
    return SolveReport(
        mu_star=qp.s * mu,
        status=status,
        objective=float(0.5 * mu @ g_mu + qp.h @ mu),
        outer_iters=k,
        refine_calls=len(refine_iters),
        refine_iters_min=min(iters),
        refine_iters_max=max(iters),
        refine_iters_mean=sum(iters) / len(iters),
        descent_count=descent_count,
        salvaged_steps=salvaged_steps,
        shift_retries=shift_retries,
        final_shift=f.epsilon,
        message=message,
        ray=ray,
    )
