"""Primal problem container and the primal <-> dual transformations.

The primal problem is

    min 0.5 x' P x + q' x   s.t.  A x = b,  C x <= d,

with P symmetric positive definite.  Eliminating x through the
stationarity condition gives the lower (dual) problem handled by
active_set: G is the Gram matrix of the stacked constraint rows under
the P^-1 inner product, each row first scaled down to norm at most 1
there, and h collects the constraint offsets, scaled alike.  P is
factored once and the triangular factor is retained for every
subsequent solve; no inverse is ever formed.  Projection problems
(P = I) skip the factorization entirely via the identity_p flag.

In condensed MPC only q and d change between QPs, so build_dual keeps
the factor, s, G and the scaled rows of its last build with m >= n,
keyed on P, A and C, and shares them, read-only, with the next build
whose P, A and C repeat bit for bit: that build forms only h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .active_set import DualQP
from .kernel import solve_cholesky


class InvalidProblemError(ValueError):
    """The problem data violate a structural requirement (e.g. P not
    positive definite), or overflow in the dual's arithmetic."""


def check_symmetric(name, M):
    """Raise ValueError unless the finite square matrix M is symmetric
    to rounding: max |M - M'| <= 1e-12 (1 + max |M|).

    Callers check finiteness first; a NaN would pass this test."""
    scale = 1.0 + np.abs(M).max(initial=0.0)
    asym = M - M.T
    np.abs(asym, out=asym)  # in place: one m x m temporary, not two
    if asym.max(initial=0.0) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")


def _as_2d(name, M, ncols):
    if M is None:
        M = np.zeros((0, ncols))
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={M.ndim}")
    return M


@dataclass
class PrimalQP:
    """Dense strictly convex QP data.

    A/b and C/d may be None or empty (zero-row) blocks.  With
    identity_p=True, P may be omitted (None) and is treated as the
    identity; if P is given anyway it must actually be the identity.
    """

    P: np.ndarray | None
    q: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    C: np.ndarray | None = None
    d: np.ndarray | None = None
    identity_p: bool = False

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.ndim != 1:
            raise ValueError("q must be a vector")
        n = self.q.shape[0]
        if not isinstance(self.identity_p, (bool, np.bool_)):
            raise ValueError("identity_p must be a bool")
        if self.P is None:
            if not self.identity_p:
                raise ValueError("P may only be omitted with identity_p=True")
        else:
            self.P = np.asarray(self.P, dtype=float)
            if self.P.shape != (n, n):
                raise ValueError(
                    f"P must have shape ({n}, {n}), got {self.P.shape}")
        self.A = _as_2d("A", self.A, n)
        self.C = _as_2d("C", self.C, n)
        if self.A.shape[1] != n or self.C.shape[1] != n:
            raise ValueError("A and C must have n columns")
        self.b = (np.zeros(0) if self.b is None
                  else np.asarray(self.b, dtype=float))
        self.d = (np.zeros(0) if self.d is None
                  else np.asarray(self.d, dtype=float))
        if self.b.shape != (self.A.shape[0],):
            raise ValueError(
                f"b must have length {self.A.shape[0]}, got {self.b.shape}")
        if self.d.shape != (self.C.shape[0],):
            raise ValueError(
                f"d must have length {self.C.shape[0]}, got {self.d.shape}")
        for name in ("P", "q", "A", "b", "C", "d"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"{name} contains non-finite entries")
        if self.P is not None:
            check_symmetric("P", self.P)
            if self.identity_p and not np.array_equal(self.P, np.eye(n)):
                raise ValueError("identity_p=True but P is not the identity")

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def m_eq(self):
        return self.A.shape[0]

    @property
    def m_in(self):
        return self.C.shape[0]

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        if self.identity_p:
            return 0.5 * x @ x + self.q @ x
        return 0.5 * x @ (self.P @ x) + self.q @ x


@dataclass
class PrimalSolution:
    x: np.ndarray
    mu_eq: np.ndarray
    mu_in: np.ndarray
    eq_violation: float
    ineq_violation: float
    stationarity_residual: float
    complementarity_residual: float


_memo = None  # build_dual's ((P or None, A, C) copies, (pf, s, G, M))


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return (a.shape == b.shape
            and (a.view(np.uint64) == b.view(np.uint64)).all())


def build_dual(primal):
    """Assemble the dual QP and the retained factor of P.

    Returns (DualQP, pf): pf is P's lower Cholesky factor, in Fortran
    order, or None with identity_p.  [A; C] is stacked here, into the
    copy that is scaled in place, and nowhere else.  Each row of [A; C]
    and its offset in [b; d] is scaled by s_i = 1/sqrt(max(1, G_ii)),
    G_ii read off the unscaled rows, so max|G| <= 1; G is then
    symmetrized, so nothing checks it again.  The checks are O(m), on
    what the arithmetic can break: every s_i finite and > 0 (else G_ii
    overflowed) and h finite; given the first, |G_ij| <= 1 by
    Cauchy-Schwarz.  A failed check raises InvalidProblemError naming
    the first bad row, as does a Cholesky breakdown of P: the package's
    one check that P is positive definite.

    pf, s, G and the scaled rows M do not depend on q, b or d.  A
    build that passes its checks with m >= n (so M and copies of P, A
    and C cost no more than G) keeps them, keyed on those copies; a
    call whose P (None with identity_p), A and C each repeat bit for
    bit (-0.0 is not 0.0) reuses them and forms only h, by the same
    operations, so bit-identically.  G, s and pf are read-only, as a
    hit shares them; M never leaves this function.
    """
    global _memo
    key = (None if primal.identity_p else primal.P, primal.A, primal.C)
    memo = _memo  # read once: another thread may swap the entry
    if memo is not None and all(map(_same_bits, key, memo[0])):
        pf, s, G, M = memo[1]
    else:
        _memo = None
        M = np.vstack([primal.A, primal.C])
        if primal.identity_p:
            pf = None
            Y = M.T  # a view: scaling M scales Y
        else:
            # P's own lower triangle: PrimalQP allows asymmetry to 1e-12
            pf, info = dpotrf(primal.P, lower=1)
            if info > 0:
                raise InvalidProblemError(
                    f"P is not positive definite (leading minor {info})")
            Y = solve_cholesky(pf, M.T)
        s = 1.0 / np.sqrt(np.maximum(1.0, np.einsum("ij,ji->i", M, Y)))
        if not np.all(s > 0.0):  # s <= 1, so this fails only for 0 or NaN
            i = int(np.argmin(s > 0.0))
            raise InvalidProblemError(
                f"row {i} of [A; C] overflows: its P^-1 norm squared is "
                f"not finite")
        M *= s[:, None]
        if not primal.identity_p:
            Y *= s
        G = M @ Y
        G = 0.5 * (G + G.T)
        for a in (s, G) if pf is None else (s, G, pf):
            a.flags.writeable = False
        if M.shape[0] >= M.shape[1]:
            _memo = (tuple(None if a is None else a.copy() for a in key),
                     (pf, s, G, M))
    offsets = np.concatenate([primal.b, primal.d])
    p_inv_q = primal.q if pf is None else solve_cholesky(pf, primal.q)
    with np.errstate(over="ignore"):  # checked next
        h = M @ p_inv_q + s * offsets
    if not np.isfinite(h).all():
        i = int(np.argmin(np.isfinite(h)))
        raise InvalidProblemError(
            f"row {i} of h = [A; C] P^-1 q + [b; d], scaled, overflows")
    dual = DualQP(G=G, h=h, primal=primal, s=s)
    return dual, pf


def recover_primal(primal, pf, mu):
    """Recover the primal point x = -P^{-1} (q + A' mu_eq + C' mu_in).

    pf is build_dual's factor of P (None with identity_p).  mu stacks
    the equality multipliers first; its inequality part is expected to
    be nonnegative (as produced by solve_dual).  Residuals of the
    recovered point are reported alongside it.
    """
    mu = np.asarray(mu, dtype=float)
    m = primal.m_eq + primal.m_in
    if mu.shape != (m,):
        raise ValueError(f"mu must have length {m}, got {mu.shape}")
    mu_eq = mu[:primal.m_eq]
    mu_in = mu[primal.m_eq:]
    grad = primal.q + primal.A.T @ mu_eq + primal.C.T @ mu_in
    x = -grad if pf is None else -solve_cholesky(pf, grad)
    eq_violation = float(np.abs(primal.A @ x - primal.b).max(initial=0.0))
    slack = primal.C @ x - primal.d
    ineq_violation = float(max(0.0, slack.max(initial=0.0)))
    complementarity = float(np.abs(mu_in * slack).max(initial=0.0))
    px = x if primal.identity_p else primal.P @ x
    stationarity = float(np.abs(px + grad).max(initial=0.0))
    return PrimalSolution(x=x, mu_eq=mu_eq, mu_in=mu_in,
                          eq_violation=eq_violation,
                          ineq_violation=ineq_violation,
                          stationarity_residual=stationarity,
                          complementarity_residual=complementarity)
