"""Receding-horizon benchmark: why the warm start matters.

A pitch-dynamics model with tight state bounds is condensed into a QP
over 60 inputs with 240 inequality rows, so the dual quadratic is
rank-deficient by construction.  Started cold, the active-set loop
spends hundreds of iterations pinning bounds one at a time; seeding the
working set from the sign of the dual gradient removes almost all of
that work.
"""

import time

import numpy as np

from dualqp import (SolverConfig, afti16_spec, build_dual, build_mpc,
                    recover_primal, solve_dual)


def run():
    primal = build_mpc(afti16_spec())
    print(f"condensed QP: {primal.n} inputs, {primal.m_in} state bounds")

    dual, pf = build_dual(primal)
    rank = np.linalg.matrix_rank(dual.G)
    print(f"dual quadratic: {dual.G.shape[0]}x{dual.G.shape[1]}, "
          f"rank {rank}\n")

    print(f"{'start':<12} {'outer':>6} {'descent':>8} {'refine':>8} "
          f"{'time':>9} {'kkt':>9}")
    for name, smart in (("gradient", True), ("cold", False)):
        t0 = time.perf_counter()
        rep = solve_dual(dual, cfg=SolverConfig(smartstart=smart))
        dt = time.perf_counter() - t0
        sol = recover_primal(primal, pf, rep.mu_star)
        kkt = max(sol.stationarity_residual, sol.eq_violation,
                  sol.ineq_violation, sol.complementarity_residual)
        refine = f"{rep.refine_iters_min}-{rep.refine_iters_max}"
        print(f"{name:<12} {rep.outer_iters:>6} {rep.descent_count:>8} "
              f"{refine:>8} {1e3 * dt:>6.0f} ms {kkt:>9.1e}")

    active = int(np.sum(sol.mu_in > 1e-8))
    print(f"\n{active} of {primal.m_in} bounds active at the optimum")


if __name__ == "__main__":
    run()
