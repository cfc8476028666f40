"""Masked Cholesky kernel for bound-pinned quadratic subproblems.

The dual active-set iteration repeatedly solves linear systems in a
"masked" copy of the dual quadratic term G: every working-set row and
column is replaced by the corresponding identity row, which pins those
coordinates to zero without shrinking the matrix or reindexing anything.
This module owns that masked matrix, the Cholesky factorization of
(masked G + eps*I), and the rank-1 update/downdate pair that tracks
single-index working-set changes in O(n^2) instead of refactorizing.

The factor is stored column-major (Fortran order), so LAPACK and BLAS
work on it in place: potrf builds it, a rank-1 sweep addresses each
contiguous column it touches by offset in the flat factor, and potrs
reads it without a copy.  The layout is a correctness invariant, not
a speed hint: f2py silently copies a non-contiguous argument, and
ravel a C-ordered factor, so an in-place sweep would leave the factor
unchanged; the sweeps raise on it instead.  factorize is the only
creator of factors, and it returns Fortran order.

Masking preserves positive definiteness: reordering so the masked block
comes first gives blockdiag(I, G_ff) with G_ff a principal submatrix of
G, so every pivot stays positive.  The eps shift is applied after
masking, hence masked diagonal entries store 1 + eps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import daxpy, drot, dscal
from scipy.linalg.lapack import dpotrf, dpotrs

# Downdated pivots at or below _PIVOT_FLOOR * (1 + eps*n) abort the
# incremental path; the caller refactorizes from scratch.
_PIVOT_FLOOR = 1e-12


class CholeskyDowndateError(RuntimeError):
    """A rank-1 downdate produced a non-positive (or tiny) pivot.

    The factor is left in an undefined state; rebuild it with factorize().
    """


class WorkingSet:
    """Ordered set of masked dual indices.

    Indices are 0-based integer positions into the stacked dual vector
    (equalities first, inequalities after) and must lie in the
    inequality block [m_eq, m_eq + m_in).  Instances are immutable:
    the membership mask is read-only, and add/remove return new sets.
    indices are ascending, and that order is what
    lambda_from_direction reports multipliers in.  The constructor,
    add and remove check their arguments; the private trusted
    constructor _trusted(m_eq, m_in, member) checks nothing, and wraps
    only masks valid by construction, as solve_dual's start sets are.
    """

    __slots__ = ("m_eq", "m_in", "_member")

    def __init__(self, m_eq, m_in, indices=()):
        self.m_eq = as_integer("m_eq", m_eq)
        self.m_in = as_integer("m_in", m_in)
        if self.m_eq < 0 or self.m_in < 0:
            raise ValueError("m_eq and m_in must be nonnegative")
        idx = np.asarray(indices).reshape(-1)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        self._member = np.zeros(self.m, dtype=bool)
        # On bad input, _pinnable raises the error naming the first
        # offending index: one outside the block, else one listed twice.
        outside = idx[(idx < self.m_eq) | (idx >= self.m)]
        if outside.size:
            self._pinnable(outside[0])
        self._member[idx] = True
        if np.count_nonzero(self._member) != idx.size:
            s = np.sort(idx)
            self._pinnable(s[1:][s[1:] == s[:-1]][0])
        self._member.flags.writeable = False

    @property
    def m(self):
        """Dimension of the dual vector the set indexes into."""
        return self.m_eq + self.m_in

    @property
    def indices(self):
        """Masked indices in ascending order."""
        return np.flatnonzero(self._member)

    @property
    def member(self):
        """Boolean membership array of length m (read-only)."""
        return self._member

    def __contains__(self, i):
        i = as_integer("index", i)
        return 0 <= i < self.m and bool(self._member[i])

    def _pinnable(self, i):
        # i as an int, if it is a free index of the inequality block.
        i = as_integer("index", i)
        if not self.m_eq <= i < self.m:
            raise ValueError(
                f"index {i} outside the inequality block "
                f"[{self.m_eq}, {self.m})")
        if self._member[i]:
            raise ValueError(f"index {i} already in the working set")
        return i

    def add(self, i):
        return self._with(self._pinnable(i), True)

    def remove(self, i):
        i = as_integer("index", i)
        if i not in self:
            raise ValueError(f"index {i} not in the working set")
        return self._with(i, False)

    def _with(self, i, member):
        # Copy with one membership entry set; add/remove checked i.
        mask = self._member.copy()
        mask[i] = member
        return WorkingSet._trusted(self.m_eq, self.m_in, mask)

    @staticmethod
    def _trusted(m_eq, m_in, member):
        # A set over the boolean mask member, of length m_eq + m_in and
        # false on the equality block, which it takes over read-only.
        out = object.__new__(WorkingSet)
        out.m_eq, out.m_in = m_eq, m_in
        out._member = member
        member.flags.writeable = False
        return out


def as_integer(name, v):
    # v as an int; int() would truncate a float and take a bool as 0/1.
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {v!r}")


def build_masked(G, W):
    """Masked copy of G: unit diagonal at working-set indices, zeros on
    their rows/columns, everything else untouched."""
    out = np.array(G, dtype=float)
    idx = W.indices
    out[idx, :] = 0.0
    out[:, idx] = 0.0
    out[idx, idx] = 1.0
    return out


def mask_vector(c, W):
    """Copy of c with working-set entries zeroed."""
    return np.where(W.member, 0.0, c)


def matvec_masked(G, W, x):
    """Product masked(G) @ x without materializing the masked matrix."""
    x = np.asarray(x, dtype=float)
    y = G @ np.where(W.member, 0.0, x)
    np.copyto(y, x, where=W.member)
    return y


@dataclass
class MaskedFactor:
    """Lower-triangular Cholesky factor of (masked(base) + epsilon*I).

    `base` is the unmasked symmetric matrix and is never modified; the
    mask and the factor move together through add_index/remove_index,
    and shift escalation in active_set replaces factor and epsilon
    together.  `factor` is None until it is built: active_set starts
    from such a record, factorizes it when a step first needs it, and
    drops it again to pin a batch of bounds.
    Single-writer semantics: updates mutate `factor` in place, which
    requires it to be Fortran-ordered (see the module docstring).
    """

    base: np.ndarray
    mask: WorkingSet
    epsilon: float
    factor: np.ndarray | None

    @property
    def n(self):
        return self.base.shape[0]


def factorize(G, W, epsilon):
    """Factor masked(G) + epsilon*I from scratch.

    Parameters
    ----------
    G : (m, m) float array, finite, symmetric positive semidefinite.
    W : WorkingSet of dimension m.
    epsilon : float, > 0.  Regularization added after masking, so masked
        diagonal entries hold 1 + epsilon.

    The arguments are trusted: build_dual makes G symmetric with
    max|G| <= 1 and checks what can overflow, WorkingSet checks W where
    it is built, and the shift is one of active_set's fixed rules.

    Returns
    -------
    MaskedFactor, its factor in Fortran order.

    Raises
    ------
    np.linalg.LinAlgError when the shifted masked matrix is not
    positive definite.
    """
    M = build_masked(G, W)
    M[np.diag_indices_from(M)] += epsilon
    # M is symmetric, so M.T is the same matrix already in Fortran
    # order: potrf factors it in place, with no copy.
    M, info = dpotrf(M.T, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"masked matrix is not positive definite (leading minor "
            f"{info})")
    return MaskedFactor(base=G, mask=W, epsilon=float(epsilon), factor=M)


def _column_major(L):
    # L's storage as one flat view, L[r, c] at c*m + r; ravel would
    # silently copy any other layout.  add_index and remove_index sweep
    # before they write, so a factor refused here is left as it was.
    if not L.flags.f_contiguous:
        raise ValueError("the factor must be Fortran-ordered")
    return L.ravel(order="F")


def _rank1_update(L, v, j):
    # L[j:, j:] <- chol(L[j:, j:] L[j:, j:]' + v v') in place; v is
    # consumed.  Step k is one Givens rotation of the column
    # L[j+k+1:, j+k] against v[k+1:], both addressed by offset.  No step
    # touches another's diagonal entry, so it is read and written once.
    m = L.shape[0]
    flat = _column_major(L)
    diag = flat[j * (m + 1)::m + 1].tolist()
    for k, lkk in enumerate(diag):
        vk = v.item(k)
        r = math.hypot(lkk, vk)
        diag[k] = r
        if j + k + 1 < m:
            drot(flat, v, lkk / r, vk / r, m - j - k - 1,
                 (j + k) * (m + 1) + 1, 1, k + 1, 1, 1, 1)
    flat[j * (m + 1)::m + 1] = diag


def _rank1_downdate(L, v, j, pivot_floor):
    # L[j:, j:] <- chol(L[j:, j:] L[j:, j:]' - v v') in place, addressed
    # as _rank1_update is; v is consumed.  Raises when a pivot falls to
    # or below pivot_floor, at position k of the block.  Mixed form: the
    # column is updated first and v is rotated with the new column,
    # which keeps the hyperbolic step stable.
    m = L.shape[0]
    flat = _column_major(L)
    diag = flat[j * (m + 1)::m + 1].tolist()
    floor2 = pivot_floor * pivot_floor
    for k, lkk in enumerate(diag):
        vk = v.item(k)
        r2 = (lkk - vk) * (lkk + vk)
        if not r2 > floor2:
            raise CholeskyDowndateError(
                f"downdate pivot {r2:.3e} at position {k} fell below "
                f"{floor2:.3e}; refactorize")
        r = math.sqrt(r2)
        s = vk / lkk
        diag[k] = r
        if j + k + 1 < m:
            n, col = m - j - k - 1, (j + k) * (m + 1) + 1
            daxpy(v, flat, n, -s, k + 1, 1, col, 1)  # col -= s v
            dscal(lkk / r, flat, n, col, 1)          # col /= c, c = r/lkk
            dscal(r / lkk, v, n, k + 1, 1)           # v <- c v - s col,
            daxpy(flat, v, n, -s, col, 1, k + 1, 1)  # with the new col
    flat[j * (m + 1)::m + 1] = diag


def add_index(f, i):
    """Grow f's mask by index i and update its factor, in place.

    Row/column i of the masked matrix become the unit vector (diagonal
    1 + eps).  Blocks above/left of i are untouched; the trailing block
    absorbs the removed column piece through a rank-1 update.  O(n^2).
    A record with no factor (factor None) has its mask grown alone.
    """
    new_mask = f.mask.add(i)  # raises ValueError unless i may be pinned
    L = f.factor
    if L is not None:
        _rank1_update(L, L[i + 1:, i].copy(), i + 1)
        L[i, :i] = 0.0
        L[i, i] = np.sqrt(1.0 + f.epsilon)
        L[i + 1:, i] = 0.0
    f.mask = new_mask


def remove_index(f, i):
    """Shrink f's mask by index i and update its factor, in place.

    Row i of the factor is recomputed from the unmasked base column
    (entries at still-masked indices stay zero), then the trailing block
    sheds the new column piece through a rank-1 downdate.  O(n^2).

    Raises CholeskyDowndateError when a pivot collapses; the factor is
    then invalid and must be rebuilt with factorize().
    """
    new_mask = f.mask.remove(i)  # raises ValueError unless i is pinned
    L = f.factor
    pivot_floor = _PIVOT_FLOOR * (1.0 + f.epsilon * f.n)

    col = f.base[:, i].copy()
    col[new_mask.member] = 0.0  # other masked rows keep zero coupling
    diag = f.base[i, i] + f.epsilon

    l21 = solve_triangular(L[:i, :i], col[:i], lower=True,
                           check_finite=False)
    piv2 = diag - l21 @ l21
    if not piv2 > pivot_floor * pivot_floor:
        raise CholeskyDowndateError(
            f"diagonal pivot {piv2:.3e} at index {i} is not positive; "
            "refactorize")
    ell = np.sqrt(piv2)
    l32 = (col[i + 1:] - L[i + 1:, :i] @ l21) / ell

    _rank1_downdate(L, l32.copy(), i + 1, pivot_floor)
    L[i, :i] = l21
    L[i, i] = ell
    L[i + 1:, i] = l32
    f.mask = new_mask


def solve_cholesky(L, rhs):
    """Solve L L' x = rhs, L a lower Cholesky factor in Fortran order."""
    if rhs.size == 0:  # f2py's potrs rejects a 0 x 0 factor
        return np.zeros(rhs.shape)
    return dpotrs(L, rhs, lower=1)[0]  # info < 0: bad shapes only


def solve_with_factor(f, rhs):
    """Solve (masked(base) + eps*I) x = rhs with the retained factor."""
    return solve_cholesky(f.factor, rhs)


def lambda_from_direction(c, W):
    """Bound multipliers of the pinned subproblem at its minimizer.

    There the step is zero, so entry j is c at the j-th working-set
    index, c the gradient, in ascending index order: each is >= 0 at an
    optimum of the dual.
    """
    return c[W.member]
