"""What the shifted refinement loop does on singular systems.

The subproblem solver never sees a clean invertible matrix: pinning
rows of a rank-deficient quadratic leaves blocks that are singular on
purpose.  Instead of regularizing the answer away, the loop iterates
through a slightly shifted factor and watches how the iterates move:

* convergence: the system is consistent, the limit is the solution;
* linear growth along one direction: the system is inconsistent, and
  the growth direction is a certified descent ray of the quadratic.

Both verdicts come out of the same iteration, shown here side by side,
plus the per-eigenvalue contraction factors that explain the speed.

The shift is the one the factor was built with; refine_solve reads it
off the factor.  In a full solve, the active-set loop builds the first
factor at a fixed start shift of 1e-7, and refactorizes at a sharper
one when a subproblem cannot be classified within the fixed budget of
20 iterations.
"""

import numpy as np

from dualqp import WorkingSet
from dualqp.kernel import factorize
from dualqp.refine import refine_solve


def run(n=12, nullity=2, seed=4):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([rng.uniform(0.05, 2.0, n - nullity),
                          np.zeros(nullity)])
    G = (Q * lam) @ Q.T
    G = 0.5 * (G + G.T)
    eps = 1e-7
    f = factorize(G, WorkingSet(0, n), eps)

    print(f"{n}x{n} system, rank {n - nullity}, shift {eps:.0e}")
    # range-space error shrinks by eps / (lam + eps) per iteration
    rates = [eps / (v + eps) for v in sorted(lam[lam > 0])[:3]]
    print("slowest contraction factors:",
          ", ".join(f"{r:.1e}" for r in rates))

    # consistent right-hand side: lies in the range space
    c = -(G @ rng.standard_normal(n))
    out = refine_solve(f, c)
    assert out.is_solution
    print(f"\nconsistent rhs   -> solution in {out.iters} iterations, "
          f"residual {np.linalg.norm(G @ out.p + c):.1e}")

    # inconsistent: add a component on the null space
    null = Q[:, -1]
    c_bad = c - 0.5 * null
    out = refine_solve(f, c_bad)
    assert not out.is_solution
    p = out.p
    print(f"inconsistent rhs -> descent direction in {out.iters} "
          f"iterations")
    print(f"  ||G p|| / ||p|| = "
          f"{np.linalg.norm(G @ p) / np.linalg.norm(p):.1e}")
    print(f"  slope c'p       = {float(c_bad @ p):.4f}  (negative)")
    print(f"  alignment with the planted null direction: "
          f"{abs(float(p @ null)) / np.linalg.norm(p):.9f}")


if __name__ == "__main__":
    run()
