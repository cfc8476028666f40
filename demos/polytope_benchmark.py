"""Projection onto a polytope at increasing scale.

The dual formulation shines when constraints are few and variables are
many: the active-set loop works in dimension m (the constraint count)
no matter how large n gets, and with an identity cost the primal never
needs factorizing at all.  The table reports the dual solve and the
recovery separately; recovery is a single matrix-vector product.
"""

import time

import numpy as np

from dualqp import PolytopeSpec, build_dual, build_polytope, recover_primal, solve_dual


def run():
    print(f"{'n':>7} {'m':>5} {'outer':>6} {'active':>7} "
          f"{'dual solve':>11} {'recovery':>9} {'kkt':>9}")
    for n, m in ((1000, 50), (4000, 200), (10000, 500)):
        primal = build_polytope(PolytopeSpec(n=n, m=m, seed=1))
        t0 = time.perf_counter()
        dual, pf = build_dual(primal)
        rep = solve_dual(dual)
        t_dual = time.perf_counter() - t0

        t0 = time.perf_counter()
        sol = recover_primal(primal, pf, rep.mu_star)
        t_rec = time.perf_counter() - t0

        kkt = max(sol.stationarity_residual, sol.eq_violation,
                  sol.ineq_violation, sol.complementarity_residual)
        active = int(np.sum(sol.mu_in > 1e-8 * (1 + sol.mu_in.max())))
        print(f"{n:>7} {m:>5} {rep.outer_iters:>6} {active:>7} "
              f"{1e3 * t_dual:>8.0f} ms {1e3 * t_rec:>6.1f} ms {kkt:>9.1e}")


if __name__ == "__main__":
    run()
