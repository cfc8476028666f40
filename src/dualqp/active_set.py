"""Dual active-set loop.

Minimizes 0.5 mu' G mu + h' mu subject to nonnegativity of the
inequality block of mu, starting from the feasible point mu = 0.  Each
iteration pins the working set to zero, asks the refinement module for
a direction, and either steps (with a ratio test against the bounds),
grows the working set at a blocking bound, or, at a subspace minimizer,
inspects the bound multipliers to drop an index or declare optimality.
The loop carries mu, its product g_mu = G mu, formed anew only after a
step of nonzero length, and the factor record f, which holds G and the
working set.
The subspace-minimizer test allows for the rounding in G mu (the
_ROUNDING_TOL term): at a large mu that rounding is all the gradient
has left, and a test without it would never pass.

solve_dual runs on the DualQP that build_dual returns, and checks its
data no further.  This module alone applies the dual's row scale s:
multipliers and rays leave solve_dual times s.

Unbounded descent (a zero-curvature direction with no blocking bound,
certified or salvaged) means the original inequality-constrained
problem is infeasible; the solve then ends with status
PRIMAL_INFEASIBLE and the ray on its report, but only once the
curvature along the direction is confirmed to be zero at machine level
and the ray y = s p is a Farkas certificate on the rows M = [A; C]
and offsets [b; d] of the primal the dual was built from:

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

The shift only falls.  It is the factor record's own f.epsilon: it
starts at _SHIFT_START, escalation lowers it, and nothing raises it, so
a solve that has met a hard subproblem stays at the sharper shift.

One rule builds the factor: each outer iteration that needs
refinement first factorizes in place at f.epsilon when there is no
factor.  So the first factor is built on the first step, at
_SHIFT_START; a solve whose start set is already optimal never
factorizes.  A collapsed downdate drops the factor, and the next step
rebuilds it.  When a build fails, the solve ends as NUMERICAL_FAILURE.

Steps of length 0 pin in batches.  From a cold start nearly every
ratio test blocks at once, on a bound with mu_i = 0.  Such a step
pins every free inequality coordinate with mu_i = 0 and p_i < 0, each
through add_index, and drops the factor: mu does not move, no product
with G is formed, and the next step rebuilds the factor, one
factorization per batch instead of one rank-1 update per pin.  A pin
that the batch got wrong leaves through the multiplier test, as any
other does (compare gradient projection, More and Toraldo, SIAM J.
Optim. 1991).

Every OPTIMAL is checked on the primal data.  x is recovered from
s mu as recover_primal does, and each row of [A; C] must hold to
_ROW_TOL (1 + ||x||) times its Euclidean norm: |A x - b| on an
equality row, max(C x - d, 0) on an inequality row.  A row of zero
length has no norm to divide by, and holds only exactly: an
inequality row when its offset is >= 0, an equality row when its
offset is 0.  At a large mu the rounding in G mu + h can hide a
violated row from the loop's tests; the check does not read G mu.  A
solve that took no step and has no equality row ends at mu = 0, where
r = -h / s, so h >= 0 passes it with no x formed.  An OPTIMAL that
fails the check is re-read:

* if s mu passes the ray check above, the multipliers have run off
  along an infeasibility ray, and the solve ends PRIMAL_INFEASIBLE with
  ray = s mu;
* else the loop corrects mu itself, as iterative refinement on the
  primal residual (Higham, Accuracy and Stability of Numerical
  Algorithms, 2002, ch. 12).  Its next iteration reads the gradient off
  the primal rows, c = -s r with r = [A; C] x - [b; d]: that is
  G mu + h without G mu's rounding, so the subspace-minimizer test
  drops the _ROUNDING_TOL term for it.  The iteration is an ordinary
  one: the multiplier test releases a pinned bound on a violated row,
  and a step is refined, escalated, salvaged, ratio-tested and pinned
  as any other.  c stays that of r until a step of nonzero length
  moves mu; the loop then returns to G mu and checks its next OPTIMAL
  anew.  _CORRECTIONS bounds the failed checks re-read; the next one
  ends NUMERICAL_FAILURE, as does an OPTIMAL reached again under r,
  at the mu whose check failed, with the violation in the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernel import (CholeskyDowndateError, MaskedFactor, WorkingSet,
                     add_index, as_integer, factorize,
                     lambda_from_direction, mask_vector, remove_index,
                     solve_cholesky)
from .refine import RefineOutcome, RefinementError, _norm, refine_solve

_KKT_TOL = 1e-10           # stationarity and multiplier tests, times 1+||h||
_ROUNDING_TOL = 1e-13      # rounding in G mu, times (1+max|G|)||mu||_inf
_FLAT_TOL = 1e-12          # certified-flat curvature, times 1+max|G|
_SHIFT_START = 1e-7        # first shift; only escalation lowers it
_SHIFT_SHRINK = 1e-2       # shift reduction per escalation
_SHIFT_FLOOR = 1e-12       # smallest shift worth factorizing with
_RAY_TOL = 1e-10           # primal check on a ray, times ||M||_inf ||p||_inf
_ROW_TOL = 1e-6            # primal check on an OPTIMAL, times 1+||x||
_CORRECTIONS = 6           # failed OPTIMAL checks the loop re-reads


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"
    PRIMAL_INFEASIBLE = "primal_infeasible"


@dataclass
class DualQP:
    """What build_dual returns: G and h of the rows s_i [A; C]_i and
    offsets s_i [b; d]_i, the PrimalQP behind them (by reference, not a
    stacked copy of its rows), the row scale s, P's lower Cholesky
    factor pf (None with identity_p) and the Euclidean norms of the
    unscaled rows [A; C].  The first m_eq coordinates, one per equality
    row, are free; the other m_in are bounded below by 0.  solve_dual
    reports mu and rays times s, in the caller's row units, and checks
    an OPTIMAL and an infeasibility ray on the primal."""

    G: np.ndarray
    h: np.ndarray
    primal: object = field(repr=False)
    s: np.ndarray = field(repr=False)
    pf: np.ndarray | None = field(repr=False)
    norms: np.ndarray = field(repr=False)

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
    dual objective and the work of the loop, correction iterations
    included.  It carries no residuals: recover_primal measures them on
    the primal data, where solve_dual has checked the rows of an
    OPTIMAL.  ray is the checked Farkas certificate y = s p, in row
    units, when the status is PRIMAL_INFEASIBLE: [A; C]'y ~ 0, y >= 0
    on the inequality rows and [b; d]'y < 0.  It is None for every
    other status."""

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
    member = np.zeros(qp.m, dtype=bool)
    np.greater_equal(qp.h[m_eq:], 0.0, out=member[m_eq:])
    return WorkingSet._trusted(m_eq, qp.m_in, member)


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

    err.iterate is the last refinement iterate, which descends the
    subproblem objective by construction, or the unoriented limit step
    of a direction that failed its checks (RefinementError).  When
    classification is out of reach (spectrum crowding the shift from
    both sides) it still drives the outer loop: it selects a blocking
    bound, or gets cut at its exact line minimizer.  Returns None when
    it is zero or not finite, or when it fails the slope check, as a
    limit step that slopes uphill does.
    """
    nrm = _norm(err.iterate)
    if not nrm > 0.0:
        return None
    p = err.iterate / nrm
    if not float(c_bar @ p) < 0.0:
        return None
    return RefineOutcome(p, err.iters, False)


def _directed_step(f, c_bar, mu, g_scale):
    """Classify the pinned subproblem and settle the step along the result.

    Returns (outcome, alpha, blocking, salvaged, retries, failure).
    When refinement cannot classify at the current shift, f is
    refactorized in place at a sharper one and the subproblem retried;
    retries counts those escalations.  Once the floor is reached the
    last iterate is salvaged as an uncertified descent direction, and
    salvaged is True.  Otherwise it was classified at f.epsilon.  Either
    way f keeps the shift it ended at (module docstring).

    The step stops at the first blocking bound or at a cap: 1 for a
    solution, the subspace minimizer; for a descent direction its exact
    line minimizer -slope/curvature, with p' G p read on f.base, so real
    curvature along a nominally flat direction cannot break the
    monotone decrease of the objective; inf when that curvature is zero
    at machine level.  alpha = inf thus means a flat direction that no
    bound blocks, salvaged or not, for the caller to judge.

    failure is None, or the refinement error that salvage could not
    use, with (outcome, alpha, blocking) all None.
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
    if outcome.is_solution:
        cap = 1.0
    else:
        curv = float(p @ (f.base @ p))
        flat = curv <= _FLAT_TOL * g_scale * float(p @ p)
        cap = math.inf if flat else -float(c_bar @ p) / curv
    alpha, blocking = step_length(mu, p, f.mask)
    if cap < alpha:
        alpha, blocking = cap, None
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
    return float(np.abs(v).max(initial=0.0))


def _stationary_point(primal, pf, mu):
    """(grad, x): grad = q + A' mu_eq + C' mu_in, mu in row units, and
    x = -P^-1 grad, solved with P's factor pf (None with identity_p)."""
    m_eq = primal.m_eq
    grad = primal.q + primal.A.T @ mu[:m_eq] + primal.C.T @ mu[m_eq:]
    return grad, (-grad if pf is None else -solve_cholesky(pf, grad))


def _worst_row(qp, r):
    # Largest violation of a row over its norm, r = [A; C] x - [b; d]:
    # |r_i| on an equality row, max(r_i, 0) on an inequality row.  A
    # row of zero length is met exactly or not at all: 0 or inf.
    v = np.abs(r)
    np.maximum(r[qp.m_eq:], 0.0, out=v[qp.m_eq:])
    out = np.where(v > 0.0, math.inf, 0.0)
    np.divide(v, qp.norms, out=out, where=qp.norms > 0.0)
    return float(out.max(initial=0.0))


def _primal_check(qp, mu):
    """(r, worst, bound): the residual r = [A; C] x - [b; d] of the x
    that mu recovers, its worst row (_worst_row) and the bound on it,
    _ROW_TOL (1 + ||x||)."""
    primal = qp.primal
    x = _stationary_point(primal, qp.pf, qp.s * mu)[1]
    r = np.concatenate([primal.A @ x - primal.b, primal.C @ x - primal.d])
    return r, _worst_row(qp, r), _ROW_TOL * (1.0 + _norm(x))


def _certify(qp, mu, stepped):
    """Check an OPTIMAL mu on the primal rows (module docstring).

    stepped is False when no step was taken, so that mu = 0.  Returns
    (status, message, r): OPTIMAL, with message "" and r None;
    PRIMAL_INFEASIBLE, the ray being s mu, with r None; or
    NUMERICAL_FAILURE, with the violation in message and the residual
    r = [A; C] x - [b; d] for the loop to re-read."""
    h = qp.h
    if not stepped and not qp.m_eq and h.size and h[h.argmin()] >= 0.0:
        # mu = 0, so x = -P^-1 q and r = -h / s <= 0 on inequality rows
        # alone: no row is violated, and no x needs forming
        return SolveStatus.OPTIMAL, "", None
    r, worst, bound = _primal_check(qp, mu)
    if worst <= bound:
        return SolveStatus.OPTIMAL, "", None
    if _ray_check(qp, qp.s * mu) is None:
        return (SolveStatus.PRIMAL_INFEASIBLE,
                "the optimal multipliers fail the primal check and are "
                "an infeasibility ray: the primal problem is infeasible",
                None)
    return (SolveStatus.NUMERICAL_FAILURE,
            f"optimal multipliers failed the primal check: row violation "
            f"{worst:.3g} over its bound {bound:.3g}", r)


def solve_dual(qp, cfg=None):
    """Run the dual active-set method from mu = 0.

    Parameters
    ----------
    qp : DualQP, as build_dual returns it.
    cfg : SolverConfig, checked when it was built.  The start set is
        smartstart(qp) when cfg.smartstart, else the empty set; at
        mu = 0 either is valid.

    g_mu = G mu starts at 0, with mu, and is formed after each step of
    nonzero length; the gradient and the reported objective read it.
    After a failed primal check, the gradient is read off the primal
    residual r until mu moves (module docstring); those iterations count
    in outer_iters and against cfg.max_outer_iters.
    f is built when a step first needs it, at its own shift f.epsilon,
    which only falls (module docstring).  f.mask is the only copy of
    the working set, and only add_index and remove_index move it; with
    no factor, not yet built or dropped by a batch of pins or a
    collapsed downdate, they edit the mask alone.

    Returns
    -------
    SolveReport.  status OPTIMAL carries the certified multipliers,
    whose x passed the primal check on the rows, and its message names
    the count of salvaged steps, if any; PRIMAL_INFEASIBLE carries the
    ray of a zero-curvature descent direction, certified or salvaged,
    that meets no blocking bound, or the multipliers of an OPTIMAL that
    failed the row check, either one passing the ray check; ITERATION_LIMIT and
    NUMERICAL_FAILURE report the best iterate with a diagnostic
    message.  mu_star is s mu, in row units; its KKT residuals are
    measured on the primal data, by recover_primal.
    """
    cfg = cfg or SolverConfig()
    m = qp.m
    W0 = (smartstart(qp) if cfg.smartstart
          else WorkingSet._trusted(qp.m_eq, qp.m_in, np.zeros(m, dtype=bool)))
    max_outer = cfg.max_outer_iters or max(10 * m, 1)
    h_scale = 1.0 + _inf_norm(qp.h)

    mu = np.zeros(m)
    g_mu = np.zeros(m)  # G 0: +0 in every entry, as every G_ii >= 0
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
    ray = None
    r = None     # residual of a failed primal check, until mu moves
    rereads = 0  # failed checks whose residual the loop re-read

    for k in range(1, max_outer + 1):
        c_tol = _KKT_TOL * h_scale
        if r is None:
            c = g_mu + qp.h
            c_tol += _ROUNDING_TOL * g_scale * _inf_norm(mu)
        else:
            c = -qp.s * r  # G mu + h, free of G mu's rounding
        c_bar = mask_vector(c, f.mask)
        if _inf_norm(c_bar) <= c_tol:
            # at this subspace's minimizer: check the bound multipliers
            lam = lambda_from_direction(c, f.mask)
            if lam.min(initial=math.inf) >= -_KKT_TOL * h_scale:
                # optimal to the loop: check it on the primal rows,
                # unless mu is that of a failed check, whose status
                # and message then stand
                if r is None:
                    status, message, r = _certify(qp, mu, bool(refine_iters))
                    if r is not None and rereads < _CORRECTIONS:
                        rereads += 1
                        continue
                    if status is SolveStatus.PRIMAL_INFEASIBLE:
                        ray = qp.s * mu
                    elif status is SolveStatus.OPTIMAL and salvaged_steps:
                        message = (f"optimal, but {salvaged_steps} step(s) "
                                   f"took salvaged, uncertified directions")
                break
            j = int(f.mask.indices[int(np.argmin(lam))])
            try:
                remove_index(f, j)
            except CholeskyDowndateError:
                # the downdate spoiled the factor: drop it and unpin j on
                # the mask alone; the next step rebuilds the factor
                f.factor = None
                remove_index(f, j)
            continue

        if f.factor is None:
            err = _reshift(f, f.epsilon)
            if err is not None:
                status = SolveStatus.NUMERICAL_FAILURE
                message = (f"factorization failed at iteration {k}, "
                           f"shift {f.epsilon:g}: {err}")
                break
        (outcome, alpha, blocking, salvaged, retries,
         failure) = _directed_step(f, c_bar, mu, g_scale)
        shift_retries += retries
        if failure is None:
            # counted before the ray check, which may end the solve here
            refine_iters.append(outcome.iters)
            if not outcome.is_solution:
                descent_count += 1
            if salvaged:
                salvaged_steps += 1
        if alpha == math.inf:
            # flat, and no bound blocks: a ray of the dual
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
        if alpha != 0.0:
            # mu + alpha p, clamped at 0 on the inequality block, with
            # the blocking bound, if any, set to 0 and pinned
            mu = mu + alpha * outcome.p
            np.maximum(mu[qp.m_eq:], 0.0, out=mu[qp.m_eq:])
            if blocking is not None:
                mu[blocking] = 0.0
                add_index(f, blocking)
            g_mu = qp.G @ mu
            r = None
        elif blocking is not None:
            # a step of 0 leaves mu, so g_mu, as it is: every bound at 0
            # that p leaves is pinned at once, and the next step rebuilds
            # the factor
            f.factor = None
            m_eq = qp.m_eq
            leaves = (outcome.p[m_eq:] < 0.0) & (mu[m_eq:] == 0.0)
            for i in m_eq + np.flatnonzero(leaves & ~f.mask.member[m_eq:]):
                add_index(f, i)
    else:
        status = SolveStatus.ITERATION_LIMIT
        message = "outer iteration cap reached"

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
