"""Benchmark problem generators: condensed linear MPC and polytope
projection.

build_mpc condenses a linear-quadratic tracking problem over a finite
horizon into a dense QP in the stacked input vector.  With dynamics
x[k] = A x[k-1] + B u[k] the stacked states are  xbar = Phi x0 + Gamma
ubar, so the cost  sum_k x[k]'Q x[k] + u[k]'R u[k]  becomes

    ubar' F ubar + 2 ubar' G x0 + const,   F = Gamma' Qbar Gamma + Rbar.

Symmetric state bounds |x[k]| <= bound for k = 1..N turn into two
one-sided inequality blocks [Gamma; -Gamma].  The canned aircraft
pitch-dynamics instance (afti16_spec) is deliberately nasty: the open
loop is unstable, so F picks up a condition number near 1e8 at horizon
30, and the dual Hessian is rank deficient (2N input dof against 8N
constraint rows).

build_polytope draws a random projection problem: P = I (flagged so the
pipeline can skip the factorization), unit-norm constraint rows, and
offsets placed so about half of the constraints are violated at the
point being projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import as_integer
from .transform import PrimalQP, check_symmetric

AFTI16_A = np.array([
    [0.999, -3.008, -0.113, -1.608],
    [0.0, 0.986, 0.048, 0.0],
    [0.0, 2.083, 1.009, 0.0],
    [0.0, 0.053, 0.050, 1.0],
])

AFTI16_B = np.array([
    [-0.080, -0.635],
    [-0.029, -0.014],
    [-0.868, -0.092],
    [-0.022, -0.002],
])

# Chosen so the unconstrained optimal trajectory violates the +-0.2
# state bounds (which makes the benchmark QP nontrivial).  Smaller
# perturbations along the first state are absorbed by the optimal
# input sequence without touching the bounds.  See tests for the
# violation check.
AFTI16_X0 = np.array([0.5, 0.0, 0.0, 0.0])

AFTI16_STATE_BOUND = 0.2


@dataclass
class MpcSpec:
    """Condensed-MPC problem description (dense, state-bounded)."""

    a_dyn: np.ndarray
    b_dyn: np.ndarray
    horizon: int
    q_weight: np.ndarray
    r_weight: np.ndarray
    x0: np.ndarray
    state_bound: float

    def __post_init__(self):
        self.a_dyn = np.asarray(self.a_dyn, dtype=float)
        self.b_dyn = np.asarray(self.b_dyn, dtype=float)
        self.q_weight = np.asarray(self.q_weight, dtype=float)
        self.r_weight = np.asarray(self.r_weight, dtype=float)
        self.x0 = np.asarray(self.x0, dtype=float)
        nx = self.a_dyn.shape[0]
        if self.a_dyn.shape != (nx, nx):
            raise ValueError("a_dyn must be square")
        if self.b_dyn.ndim != 2 or self.b_dyn.shape[0] != nx:
            raise ValueError("b_dyn must have one row per state")
        nu = self.b_dyn.shape[1]
        self.horizon = as_integer("horizon", self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.q_weight.shape != (nx, nx) or self.r_weight.shape != (nu, nu):
            raise ValueError("weight shapes must match the dynamics")
        for name in ("q_weight", "r_weight"):
            Wt = getattr(self, name)
            if not np.isfinite(Wt).all():
                raise ValueError(f"{name} must be finite")
            check_symmetric(name, Wt)
            if np.linalg.eigvalsh(Wt).min() < -1e-12:
                raise ValueError(f"{name} must be positive semidefinite")
        if self.x0.shape != (nx,):
            raise ValueError(f"x0 must have length {nx}")
        if not self.state_bound > 0:
            raise ValueError("state_bound must be positive")

    @property
    def nx(self):
        return self.a_dyn.shape[0]

    @property
    def nu(self):
        return self.b_dyn.shape[1]


def afti16_spec(horizon=30, x0=None):
    """The canned pitch-dynamics benchmark (horizon 30, unit weights,
    |x| <= 0.2)."""
    return MpcSpec(
        a_dyn=AFTI16_A.copy(),
        b_dyn=AFTI16_B.copy(),
        horizon=horizon,
        q_weight=np.eye(4),
        r_weight=np.eye(2),
        x0=AFTI16_X0.copy() if x0 is None else np.asarray(x0, dtype=float),
        state_bound=AFTI16_STATE_BOUND,
    )


def prediction_matrices(spec):
    """Stacked prediction xbar = Phi x0 + Gamma ubar for k = 1..N."""
    nx, nu, N = spec.nx, spec.nu, spec.horizon
    powers = [np.eye(nx)]
    for _ in range(N):
        powers.append(spec.a_dyn @ powers[-1])
    Phi = np.vstack([powers[k] for k in range(1, N + 1)])
    Gamma = np.zeros((N * nx, N * nu))
    for k in range(1, N + 1):          # block row: state x[k]
        for j in range(1, k + 1):      # block col: input u[j]
            Gamma[(k - 1) * nx:k * nx, (j - 1) * nu:j * nu] = \
                powers[k - j] @ spec.b_dyn
    return Phi, Gamma


def build_mpc(spec):
    """Condense an MpcSpec into a PrimalQP over the stacked inputs.

    The QP is  min 0.5 u' (2F) u + (2 G x0)' u  subject to the state
    bounds written as [Gamma; -Gamma] u <= offsets, with no equality
    rows.  build_dual refuses a condensed Hessian that is not positive
    definite.
    """
    Phi, Gamma = prediction_matrices(spec)
    N = spec.horizon
    Qbar = np.kron(np.eye(N), spec.q_weight)
    Rbar = np.kron(np.eye(N), spec.r_weight)
    F = Gamma.T @ Qbar @ Gamma + Rbar
    F = 0.5 * (F + F.T)
    g_lin = Gamma.T @ Qbar @ Phi
    free = Phi @ spec.x0
    bound = np.full(N * spec.nx, spec.state_bound)
    C = np.vstack([Gamma, -Gamma])
    d = np.concatenate([bound - free, bound + free])
    return PrimalQP(P=2.0 * F, q=2.0 * (g_lin @ spec.x0), A=None, b=None,
                    C=C, d=d)


@dataclass
class PolytopeSpec:
    """Random projection benchmark: project a point onto the
    intersection of m halfspaces in R^n (m < n)."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        self.n = as_integer("n", self.n)
        self.m = as_integer("m", self.m)
        self.seed = as_integer("seed", self.seed)
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if not self.m < self.n:
            raise ValueError("this generator targets the m < n regime")


def build_polytope(spec):
    """Draw the projection QP  min 0.5||x - c||^2  s.t.  C x <= d.

    Rows of C are unit norm and oriented toward the drawn point c, so a
    constraint is violated at c exactly when its offset factor is below
    one; offsets keep the origin strictly feasible.  Each row is
    violated at c with probability 1/2, and the violated rows are
    likely active at the projection.  P is the identity and is flagged,
    not materialized.
    """
    rng = np.random.default_rng(spec.seed)
    C = rng.standard_normal((spec.m, spec.n))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    c = rng.standard_normal(spec.n)
    u = C @ c
    C[u < 0] *= -1.0
    u = np.abs(u)
    violated = rng.random(spec.m) < 0.5
    factors = np.where(violated,
                       rng.uniform(0.3, 0.8, spec.m),
                       rng.uniform(1.3, 2.5, spec.m))
    d = factors * u
    return PrimalQP(P=None, q=-c, A=None, b=None, C=C, d=d, identity_p=True)
