"""Rank-1 masked-factor updates versus refactorizing from scratch.

Walks a random sequence of pin/unpin operations on a 400x400 matrix
twice: once keeping the Cholesky factor current through O(n^2) rank-1
updates, once rebuilding it with a fresh O(n^3) factorization.  The two
factors agree to machine precision; the incremental path is the one
that makes a pivoting active-set loop affordable.
"""

import time

import numpy as np

from dualqp import WorkingSet
from dualqp.kernel import add_index, factorize, remove_index


def run(n=400, ops=120, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    G = M @ M.T + np.eye(n)

    f = factorize(G, WorkingSet(0, n), 1e-7)
    plan = []
    mask = set()
    for _ in range(ops):
        if mask and rng.random() < 0.4:
            i = int(rng.choice(sorted(mask)))
            mask.discard(i)
            plan.append(("remove", i))
        else:
            i = int(rng.choice(np.setdiff1d(np.arange(n), sorted(mask))))
            mask.add(i)
            plan.append(("add", i))

    t0 = time.perf_counter()
    for op, i in plan:
        (add_index if op == "add" else remove_index)(f, i)
    t_inc = time.perf_counter() - t0

    t0 = time.perf_counter()
    W = WorkingSet(0, n)
    for op, i in plan:
        W = W.add(i) if op == "add" else W.remove(i)
        fresh = factorize(G, W, 1e-7)
    t_full = time.perf_counter() - t0

    err = np.linalg.norm(f.factor - fresh.factor, "fro") \
        / np.linalg.norm(fresh.factor, "fro")
    print(f"{ops} updates on a {n}x{n} matrix "
          f"({len(f.mask.indices)} pinned at the end)")
    print(f"incremental: {1e3 * t_inc:7.1f} ms")
    print(f"refactorize: {1e3 * t_full:7.1f} ms  "
          f"({t_full / t_inc:.0f}x slower)")
    print(f"relative factor difference: {err:.2e}")


if __name__ == "__main__":
    run()
