"""Seeded workloads and the correctness gate.

Each workload is a closed loop with one caller: `next()` hands out a
small key for the next QP, `inputs(key)` builds its raw data (keyword
arguments for `PrimalQP`), the benchmark solves it, and `feedback(x)`
reports the primal answer, or None when the QP failed.  The benchmark
rebuilds the data from the key before every solve, so it never holds
more than one QP's arrays.  `reset()` restarts the same sequence from
QP 0.  All inputs come from `dualqp.generators` and the seed; the
solver only ever sees the generated arrays.

Why these three (see README.md for the layer predictions):

* mpc_loop: receding-horizon control on the AFTI-16 model.  Set-up
  work (P factor, Gram assembly, validation, masked factorization) is
  paid on every solve, so this is where parametric re-solve and
  validate-once show and where factor-update or refinement changes
  should show nothing.
* polytope_cold: large projections (n=10000, m=500) started cold.
  Hundreds of pins per QP put the rank-1 factor update on the hot
  path, with refinement classifying quickly.
* mpc_cold: the AFTI family started cold.  Hundreds of descent steps
  on rank-deficient subproblems, shift escalations and salvaged
  refinements: the only workload where refinement dominates.
"""

from __future__ import annotations

import numpy as np

from dualqp import (PolytopeSpec, SolverConfig, afti16_spec, build_mpc,
                    build_polytope)
from dualqp.generators import prediction_matrices

# Acceptance criterion 5 accepts MPC answers at 1e-5 and criterion 6
# polytope answers at 1e-6 (max KKT residual on the primal data).
MPC_TOL = 1e-5
POLYTOPE_TOL = 1e-6


def kkt_violation(data, x, mu):
    """Largest KKT residual of (x, mu) on the primal data, recomputed.

    Covers stationarity, equality and inequality feasibility, the sign
    of the inequality multipliers and complementarity.  Uses nothing
    the solver reports about itself.
    """
    q = data["q"]
    n = q.shape[0]
    A, b = data.get("A", np.zeros((0, n))), data.get("b", np.zeros(0))
    C, d = data.get("C", np.zeros((0, n))), data.get("d", np.zeros(0))
    m_eq = A.shape[0]
    mu_eq, mu_in = mu[:m_eq], mu[m_eq:]
    P = data.get("P")
    px = x if P is None else P @ x
    grad = px + q + A.T @ mu_eq + C.T @ mu_in
    slack = C @ x - d
    parts = [np.max(np.abs(grad), initial=0.0),
             np.max(np.abs(A @ x - b), initial=0.0),
             max(0.0, np.max(slack, initial=0.0)),
             max(0.0, -np.min(mu_in, initial=0.0)),
             np.max(np.abs(mu_in * slack), initial=0.0)]
    return float(max(parts))


class _Condensed:
    """AFTI-16 condensed once; q and d are affine in the start state."""

    def __init__(self, horizon):
        spec = afti16_spec(horizon=horizon)
        base = build_mpc(spec)
        Phi, Gamma = prediction_matrices(spec)
        Qbar = np.kron(np.eye(spec.horizon), spec.q_weight)
        self.P, self.C = base.P, base.C
        self.a_dyn, self.b_dyn, self.nu = spec.a_dyn, spec.b_dyn, spec.nu
        self._q_map = 2.0 * (Gamma.T @ Qbar @ Phi)
        self._phi = Phi
        self._bound = np.full(Phi.shape[0], spec.state_bound)
        # Guard against drift from build_mpc's own condensation.
        probe = self.data(spec.x0)
        if not (np.allclose(probe["q"], base.q, rtol=1e-12, atol=1e-12)
                and np.allclose(probe["d"], base.d, rtol=1e-12, atol=1e-12)):
            raise RuntimeError("q/d maps disagree with build_mpc")

    def data(self, x0):
        free = self._phi @ x0
        return {"P": self.P, "q": self._q_map @ x0, "C": self.C,
                "d": np.concatenate([self._bound - free, self._bound + free])}

    def step(self, x, u_bar):
        """Apply the first input of u_bar to the nominal plant."""
        return self.a_dyn @ x + self.b_dyn @ u_bar[:self.nu]


class MpcLoop:
    """Receding-horizon episodes; the default (smartstart) config."""

    tol = MPC_TOL
    pass_size = 500

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.model = _Condensed(horizon=8 if tiny else 30)
        self.episode_len = 10 if tiny else 30
        self.cfg = SolverConfig()
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng([self.seed, 0])
        self._k = self.episode_len  # start a fresh episode on next()

    def _start_state(self):
        x1 = self._rng.uniform(0.3, 0.6) * self._rng.choice([-1.0, 1.0])
        return np.array([x1, 0.0, 0.0, 0.0])

    def next(self):
        if self._k >= self.episode_len:
            self._x = self._start_state()
            self._k = 0
        self._k += 1
        return self._x.copy()

    def inputs(self, x0):
        return self.model.data(x0)

    def feedback(self, x):
        if x is None:
            self._k = self.episode_len
        else:
            self._x = self.model.step(self._x, x)


class MpcCold:
    """Independent AFTI-16 solves from perturbed states, smartstart off."""

    tol = MPC_TOL
    pass_size = 6

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.model = _Condensed(horizon=8 if tiny else 30)
        self.cfg = SolverConfig(smartstart=False)
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng([self.seed, 1])

    def next(self):
        rng = self._rng
        x1 = rng.uniform(0.4, 0.6) * rng.choice([-1.0, 1.0])
        return np.concatenate([[x1], rng.normal(0.0, 0.01, 3)])

    def inputs(self, x0):
        return self.model.data(x0)

    def feedback(self, x):
        pass


class PolytopeCold:
    """Independent random projections, smartstart off."""

    tol = POLYTOPE_TOL
    pass_size = 4

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n, self.m = (400, 40) if tiny else (10000, 500)
        self.cfg = SolverConfig(smartstart=False)
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng([self.seed, 2])

    def next(self):
        return int(self._rng.integers(2**31))

    def inputs(self, seed):
        primal = build_polytope(PolytopeSpec(n=self.n, m=self.m, seed=seed))
        return {"P": None, "q": primal.q, "C": primal.C, "d": primal.d,
                "identity_p": True}

    def feedback(self, x):
        pass


WORKLOADS = {"mpc_loop": MpcLoop, "polytope_cold": PolytopeCold,
             "mpc_cold": MpcCold}
