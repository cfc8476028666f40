"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v` to get one pass/fail line per criterion.  Each
test also prints a short detail line (timings, iteration counts) that
pytest shows for failures or under -rP.
"""

import time

import numpy as np

from dualqp import (PrimalQP, SolverConfig, SolveStatus, WorkingSet,
                    afti16_spec, build_dual, build_mpc, build_polytope,
                    enumerate_solve, random_qp, recover_primal, solve,
                    solve_dual, PolytopeSpec)
from dualqp.kernel import add_index, build_masked, factorize, remove_index
from dualqp.refine import refine_solve


def kkt_max(sol):
    return max(sol.stationarity_residual, sol.eq_violation,
               sol.ineq_violation, sol.complementarity_residual)


def test_criterion_1_random_sweep_matches_enumeration():
    # 500 seeded problems (half with duplicated constraint rows), solved
    # end to end and checked against the exhaustive active-set oracle
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_obj, worst_feas = 0.0, 0.0
    for i in range(500):
        n = int(rng.integers(1, 9))
        m_eq = int(rng.integers(0, 3))
        m_in = int(rng.integers(2, 7))
        prob = random_qp(int(rng.integers(1 << 30)), n=n, m_eq=m_eq,
                         m_in=m_in, make_degenerate=i % 2 == 0)
        want = enumerate_solve(prob)
        sol, rep = solve(prob)
        assert rep.status is SolveStatus.OPTIMAL, f"problem {i}"
        rel = abs(prob.objective(sol.x) - want.objective) \
            / (1.0 + abs(want.objective))
        feas = max(sol.eq_violation, sol.ineq_violation)
        assert rel <= 1e-6, f"problem {i}: objective off by {rel:.2e}"
        assert feas <= 1e-6, f"problem {i}: infeasible by {feas:.2e}"
        worst_obj = max(worst_obj, rel)
        worst_feas = max(worst_feas, feas)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 1: 500 problems in {elapsed:.1f}s, "
          f"worst objective gap {worst_obj:.1e}, "
          f"worst violation {worst_feas:.1e}")


def test_criterion_2_incremental_factors_track_refactorization():
    # 200 random add/remove walks on 60x60 matrices; after every single
    # update the incremental factor must match a from-scratch one
    rng = np.random.default_rng(7)
    n, eps = 60, 1e-7
    t0 = time.perf_counter()
    worst = 0.0
    for seq in range(200):
        M = rng.standard_normal((n, n))
        G = M @ M.T + np.eye(n)
        f = factorize(G, WorkingSet(0, n), eps)
        for op in range(10):
            inside = f.mask.indices
            if len(inside) and rng.random() < 0.4:
                remove_index(f, int(rng.choice(inside)))
            else:
                outside = np.setdiff1d(np.arange(n), inside)
                add_index(f, int(rng.choice(outside)))
            fresh = factorize(G, f.mask, eps)
            rel = (np.linalg.norm(f.factor - fresh.factor, "fro")
                   / np.linalg.norm(fresh.factor, "fro"))
            assert rel <= 1e-9, f"sequence {seq}, op {op}: {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 2: 200 walks in {elapsed:.1f}s, "
          f"worst relative error {worst:.1e}")


def test_criterion_3_masking_preserves_positive_definiteness():
    # 100 positive definite matrices with random masks factor cleanly
    # with no shift at all
    rng = np.random.default_rng(11)
    min_pivot = np.inf
    for trial in range(100):
        n = int(rng.integers(2, 51))
        M = rng.standard_normal((n, n))
        G = M @ M.T + 1e-3 * np.eye(n)
        k = int(rng.integers(0, n + 1))
        W = WorkingSet(0, n, rng.choice(n, size=k, replace=False))
        L = np.linalg.cholesky(build_masked(G, W))  # raises if not PD
        min_pivot = min(min_pivot, float(np.min(np.diag(L))))
    assert min_pivot > 0.0
    print(f"criterion 3: 100 masked factorizations, "
          f"smallest pivot {min_pivot:.1e}")


def test_criterion_4_refinement_classifies_singular_systems():
    # 50 singular systems with nullity 1..5: inconsistent right-hand
    # sides yield certified descent directions aligned with the null
    # space; consistent ones yield solutions at tight residual
    rng = np.random.default_rng(33)
    eps = 1e-7
    worst_angle, worst_res = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(6, 31))
        nullity = int(rng.integers(1, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([rng.uniform(0.1, 2.0, n - nullity),
                              np.zeros(nullity)])
        G = (Q * lam) @ Q.T
        G = 0.5 * (G + G.T)
        Qn = Q[:, n - nullity:]
        f = factorize(G, WorkingSet(0, n), eps)

        # inconsistent: a null component in the right-hand side
        c = -(G @ rng.standard_normal(n)) - Qn @ rng.uniform(0.2, 1.0, nullity)
        out = refine_solve(f, c)
        assert not out.is_solution, f"trial {trial}"
        p = out.p
        assert np.linalg.norm(G @ p) <= 1e-6 * np.linalg.norm(p)
        assert float(c @ p) < 0.0
        oracle = -(Qn @ (Qn.T @ c))
        oracle /= np.linalg.norm(oracle)
        cosine = abs(float(p @ oracle)) / np.linalg.norm(p)
        angle = float(np.arccos(min(1.0, cosine)))
        assert angle <= 1e-4, f"trial {trial}: angle {angle:.2e}"
        worst_angle = max(worst_angle, angle)

        # consistent: right-hand side entirely in the range space
        c = -(G @ rng.standard_normal(n))
        out = refine_solve(f, c)
        assert out.is_solution, f"trial {trial}"
        res = np.linalg.norm(G @ out.p + c)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(c))
        worst_res = max(worst_res, res / (1.0 + np.linalg.norm(c)))
    print(f"criterion 4: 50 singular systems, worst angle "
          f"{worst_angle:.1e} rad, worst solution residual {worst_res:.1e}")


def test_criterion_5_mpc_benchmark_with_smartstart():
    primal = build_mpc(afti16_spec())
    dual, pf = build_dual(primal)
    t0 = time.perf_counter()
    reports = {}
    for smart in (True, False):
        rep = solve_dual(dual, cfg=SolverConfig(smartstart=smart))
        assert rep.status is SolveStatus.OPTIMAL
        sol = recover_primal(primal, pf, rep.mu_star)
        assert kkt_max(sol) <= 1e-5
        assert 1 <= rep.refine_iters_min <= rep.refine_iters_max <= 20
        reports[smart] = rep
    elapsed = time.perf_counter() - t0
    smart, cold = reports[True], reports[False]
    assert smart.outer_iters <= 0.5 * cold.outer_iters
    assert elapsed < 5.0
    print(f"criterion 5: optimal in {elapsed:.2f}s, outer iterations "
          f"{smart.outer_iters} warm vs {cold.outer_iters} cold, refine "
          f"span [{cold.refine_iters_min}, {cold.refine_iters_max}]")


def test_criterion_6_polytope_scaling():
    def run(n, m, dual_only):
        primal = build_polytope(PolytopeSpec(n=n, m=m, seed=1))
        t0 = time.perf_counter()
        dual, pf = build_dual(primal)
        rep = solve_dual(dual)
        sol = None if dual_only else recover_primal(primal, pf, rep.mu_star)
        return time.perf_counter() - t0, rep, sol

    # medium scale: the full pipeline fits in the budget and skipping
    # recovery is measurably cheaper.  Recovery is a small part of the
    # run, so each full run is paired with a dual-only one, the two
    # alternating which goes first, and the test reads the median of
    # the within-pair differences: a slow stretch of the host then hits
    # both runs of a pair alike and cancels.  If recovery cost nothing,
    # that median would be positive half the time; 101 pairs (about
    # 0.7 s) keep it positive.
    pairs = 101
    t_fulls, diffs = [], []
    for i in range(pairs):
        t = {}
        for dual_only in ((False, True) if i % 2 else (True, False)):
            t[dual_only] = run(1000, 50, dual_only)[0]
        t_fulls.append(t[False])
        diffs.append(t[False] - t[True])
    t_full = float(np.median(t_fulls))
    t_recover = float(np.median(diffs))
    assert t_full < 1.0
    assert t_recover > 0.0

    # large scale
    t_large, rep, sol = run(10000, 500, False)
    assert t_large < 60.0
    assert rep.status is SolveStatus.OPTIMAL
    assert kkt_max(sol) <= 1e-6
    scale = 1.0 + float(np.max(sol.mu_in, initial=0.0))
    active = int(np.sum(sol.mu_in > 1e-8 * scale))
    assert 0.3 * 500 <= active <= 0.7 * 500
    print(f"criterion 6: n=1000 median {1e3 * t_full:.1f}ms full, "
          f"recovery adds {1e6 * t_recover:.0f}us (median of {pairs} "
          f"pairs); n=10000 in {t_large:.1f}s, {active}/500 active")


def test_criterion_7_redundant_rows_force_descent_steps():
    # duplicated and negated inequality rows make the dual quadratic
    # singular; the solver must classify descent directions on the way
    # yet land on the enumerated optimum
    hit_descent = 0
    for seed in range(10):
        base = random_qp(seed, n=4, m_eq=0, m_in=4)
        C = np.vstack([base.C, base.C[0], -base.C[1]])
        d = np.concatenate([base.d, [base.d[0]], [10.0]])
        prob = PrimalQP(P=base.P, q=base.q, C=C, d=d)
        want = enumerate_solve(prob)
        dual, pf = build_dual(prob)
        rep = solve_dual(dual, cfg=SolverConfig(smartstart=False))
        assert rep.status is SolveStatus.OPTIMAL, f"seed {seed}"
        sol = recover_primal(prob, pf, rep.mu_star)
        rel = abs(prob.objective(sol.x) - want.objective) \
            / (1.0 + abs(want.objective))
        assert rel <= 1e-6, f"seed {seed}"
        hit_descent += rep.descent_count > 0
    assert hit_descent >= 1
    print(f"criterion 7: descent steps taken on {hit_descent}/10 seeds, "
          f"all optima match enumeration")


def test_criterion_8_contradictory_equalities_report_infeasibility():
    prob = PrimalQP(P=np.eye(2), q=np.zeros(2),
                    A=np.array([[1.0, 0.0], [1.0, 0.0]]),
                    b=np.array([0.0, 1.0]))
    _, rep = solve(prob)
    assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
    # the ray is a Farkas certificate on the equality rows: A'y ~ 0
    # with b'y < 0, where y has either sign
    A, b, y = prob.A, prob.b, rep.ray
    assert b @ y < 0.0
    assert np.max(np.abs(A.T @ y)) <= (
        1e-10 * np.linalg.norm(A, np.inf) * np.max(np.abs(y)))
    print(f"criterion 8: contradictory equalities end primal_infeasible, "
          f"ray {y} with b'y = {b @ y:.3g}")
