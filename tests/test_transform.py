import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from dualqp import (InvalidProblemError, PrimalQP, build_dual, recover_primal,
                    solve, solve_dual)
from dualqp import transform


def small_problem():
    P = np.array([[4.0, 1.0], [1.0, 3.0]])
    q = np.array([1.0, -2.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([0.5])
    C = np.array([[2.0, 0.0], [0.0, -1.0]])
    d = np.array([1.0, 0.0])
    return PrimalQP(P=P, q=q, A=A, b=b, C=C, d=d)


class TestPrimalQP:

    def test_dimensions_and_blocks(self):
        p = small_problem()
        assert p.n == 2 and p.m_eq == 1 and p.m_in == 2
        assert p.A.shape == (1, 2) and p.C.shape == (2, 2)

    def test_missing_blocks_become_empty(self):
        p = PrimalQP(P=np.eye(2), q=np.zeros(2))
        assert p.m_eq == 0 and p.m_in == 0
        assert p.A.shape == (0, 2) and p.C.shape == (0, 2)

    def test_identity_flag(self):
        p = PrimalQP(P=None, q=np.array([1.0, 2.0]), identity_p=True)
        x = np.array([3.0, -1.0])
        assert p.objective(x) == pytest.approx(0.5 * 10 + 1.0)
        with pytest.raises(ValueError):
            PrimalQP(P=None, q=np.zeros(2))
        with pytest.raises(ValueError):
            PrimalQP(P=2 * np.eye(2), q=np.zeros(2), identity_p=True)

    # a flag that is not a bool was taken by truthiness: "no" and 1
    # solved as the identity, and "false" with P = 3I failed with an
    # error claiming identity_p=True
    @pytest.mark.parametrize("P, flag", [
        (None, "no"), (None, 1), (None, None), (3 * np.eye(2), "false"),
    ], ids=["no", "one", "none", "false-3I"])
    def test_identity_flag_must_be_a_bool(self, P, flag):
        with pytest.raises(ValueError, match="identity_p must be a bool"):
            PrimalQP(P=P, q=np.zeros(2), identity_p=flag)

    def test_rejects_shape_mismatches(self):
        with pytest.raises(ValueError):
            PrimalQP(P=np.eye(3), q=np.zeros(2))
        with pytest.raises(ValueError):
            PrimalQP(P=np.eye(2), q=np.zeros(2), A=np.eye(2))
        with pytest.raises(ValueError):
            PrimalQP(P=np.eye(2), q=np.zeros(2), C=np.ones((1, 2)),
                     d=np.zeros(2))
        with pytest.raises(ValueError, match="q must be a vector"):
            PrimalQP(P=np.eye(2), q=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="A must be a 2-D array"):
            PrimalQP(P=np.eye(2), q=np.zeros(2), A=np.ones(2), b=np.zeros(1))
        with pytest.raises(ValueError, match="A and C must have n columns"):
            PrimalQP(P=np.eye(2), q=np.zeros(2), C=np.ones((1, 3)),
                     d=np.zeros(1))
        p = PrimalQP(P=np.eye(2), q=np.zeros(2), C=np.ones((1, 2)),
                     d=np.zeros(1))
        with pytest.raises(ValueError, match="mu must have length 1"):
            recover_primal(p, build_dual(p)[1], np.zeros(2))

    def test_rejects_asymmetric_p(self):
        P = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            PrimalQP(P=P, q=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_p_is_reported_as_such(self, bad):
        P = np.eye(3)
        P[0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="P contains non-finite"):
                PrimalQP(P=P, q=np.zeros(3))


class TestBuildDual:

    def test_matches_hand_assembly(self):
        # row 1, [2, 0], has P^-1 norm 12/11 > 1 and is scaled down;
        # the other two are below 1 and stay as they are
        p = small_problem()
        dual, pf = build_dual(p)
        Pinv = np.linalg.inv(p.P)
        M = np.vstack([p.A, p.C])
        G = M @ Pinv @ M.T
        s = np.array([1.0, np.sqrt(11.0 / 12.0), 1.0])
        assert_allclose(np.diag(G), [5.0 / 11.0, 12.0 / 11.0, 4.0 / 11.0],
                        rtol=1e-15)
        assert dual.s[0] == dual.s[2] == 1.0
        assert_allclose(dual.s, s, rtol=1e-15, atol=0)
        assert_allclose(dual.G, s[:, None] * G * s, rtol=0, atol=1e-12)
        assert_allclose(dual.h,
                        s * (M @ Pinv @ p.q + np.concatenate([p.b, p.d])),
                        rtol=0, atol=1e-12)
        assert dual.primal is p and dual.m_eq == 1 and dual.m_in == 2
        # the retained factor solves against P
        rhs = np.array([1.0, 2.0])
        assert_allclose(cho_solve((pf, True), rhs), Pinv @ rhs,
                        rtol=0, atol=1e-12)

    def test_identity_shortcut_agrees(self):
        q = np.array([1.0, -1.0, 0.5])
        C = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        d = np.array([1.0, 2.0])
        a = PrimalQP(P=np.eye(3), q=q, C=C, d=d)
        b = PrimalQP(P=None, q=q, C=C, d=d, identity_p=True)
        Ga, _ = build_dual(a)
        Gb, pf = build_dual(b)
        assert_allclose(Ga.G, Gb.G, rtol=0, atol=1e-14)
        assert_allclose(Ga.h, Gb.h, rtol=0, atol=1e-14)
        assert pf is None

    def test_rejects_indefinite_p(self):
        p = PrimalQP(P=np.array([[1.0, 2.0], [2.0, 1.0]]), q=np.zeros(2))
        with pytest.raises(InvalidProblemError):
            build_dual(p)

    # rows whose arithmetic overflows: a P^-1 norm of 1e160 squares to
    # inf, which would make s_i = 0, and a q of 1.5e308 overflows h
    @pytest.mark.parametrize("q, C, d, match", [
        ([0.0, 0.0], [[1e160, 0.0]], [-1e160], r"row 0 of \[A; C\]"),
        ([0.0, 0.0], [[1.0, 0.0], [1e160, 0.0]], [0.0, -1e160],
         r"row 1 of \[A; C\]"),
        ([1.5e308, 1.5e308], [[1.0, 1.0]], [0.0], r"row 0 of h"),
    ], ids=["row-0", "row-1", "h"])
    @pytest.mark.parametrize("identity", [False, True],
                             ids=["P", "identity"])
    def test_overflow_is_an_invalid_problem(self, q, C, d, match, identity):
        p = PrimalQP(P=None if identity else np.eye(2), q=np.array(q),
                     C=np.array(C), d=np.array(d), identity_p=identity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported once, as the error
            with pytest.raises(InvalidProblemError, match=match):
                build_dual(p)

    def test_factor_and_solves_are_bit_equal_to_scipys(self):
        # P is symmetric only to one ulp; the factor reads P's own lower
        # triangle, as cho_factor(P, lower=True) does, so every output
        # keeps the bits of the cho_factor/cho_solve path
        rng = np.random.default_rng(11)
        n, m = 6, 8
        B = rng.standard_normal((n, n))
        P = B @ B.T + n * np.eye(n)
        P[1, 0] = np.nextafter(P[1, 0], np.inf)
        p = PrimalQP(P=P, q=rng.standard_normal(n),
                     A=rng.standard_normal((2, n)), b=rng.standard_normal(2),
                     C=rng.standard_normal((m - 2, n)),
                     d=rng.standard_normal(m - 2))
        dual, pf = build_dual(p)
        mu = np.abs(rng.standard_normal(m))
        x = recover_primal(p, pf, mu).x

        c = cho_factor(P, lower=True, check_finite=False)
        M = np.vstack([p.A, p.C])
        Y = cho_solve(c, M.T, check_finite=False)
        s = 1.0 / np.sqrt(np.maximum(1.0, np.einsum("ij,ji->i", M, Y)))
        M *= s[:, None]
        Y *= s
        G = M @ Y
        G = 0.5 * (G + G.T)
        h = (M @ cho_solve(c, p.q, check_finite=False)
             + s * np.concatenate([p.b, p.d]))
        grad = p.q + p.A.T @ mu[:2] + p.C.T @ mu[2:]
        x_ref = -cho_solve(c, grad, check_finite=False)
        assert np.tril(pf).tobytes() == np.tril(c[0]).tobytes()
        assert dual.G.tobytes() == G.tobytes()
        assert dual.h.tobytes() == h.tobytes()
        assert x.tobytes() == x_ref.tobytes()

    def test_empty_dense_p_builds_and_recovers(self):
        p = PrimalQP(P=np.zeros((0, 0)), q=np.zeros(0))
        dual, pf = build_dual(p)
        assert pf.shape == (0, 0) and dual.G.shape == (0, 0)
        assert recover_primal(p, pf, np.zeros(0)).x.shape == (0,)

    def test_g_is_symmetric(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((4, 4))
        p = PrimalQP(P=M @ M.T + np.eye(4), q=rng.standard_normal(4),
                     C=rng.standard_normal((6, 4)), d=rng.standard_normal(6))
        dual, _ = build_dual(p)
        assert np.array_equal(dual.G, dual.G.T)


def memo_problem(rng, n=4, m=9, dense_p=True, C=None, P=None, m_eq=0,
                 A=None):
    """A problem with m >= n inequality rows, so build_dual keeps its P
    and rows, and m_eq equality rows (those of A if given)."""
    if P is None and dense_p:
        U = rng.standard_normal((n, n))
        P = U @ U.T + np.eye(n)
    q = rng.standard_normal(n)
    C = rng.standard_normal((m, n)) if C is None else C
    d = rng.standard_normal(m)
    A = rng.standard_normal((m_eq, n)) if A is None else A
    return PrimalQP(P=P, q=q, A=A, b=rng.standard_normal(len(A)), C=C, d=d,
                    identity_p=not dense_p)


def fresh_build(p):
    """build_dual of a copy of p, after other rows evicted the memo."""
    build_dual(PrimalQP(P=None, q=np.zeros(1), C=np.ones((1, 1)),
                        d=np.zeros(1), identity_p=True))
    return build_dual(PrimalQP(P=None if p.P is None else p.P.copy(),
                               q=p.q, A=p.A.copy(), b=p.b, C=p.C.copy(),
                               d=p.d, identity_p=p.identity_p))


def bits(dual, pf):
    return (dual.G.tobytes(), dual.s.tobytes(), dual.h.tobytes(),
            None if pf is None else pf.tobytes())


class TestBuildDualMemo:
    """build_dual reuses pf, s, G and the scaled rows when P, A and C
    repeat bit for bit; a hit shares the kept G object, a miss builds a
    new one."""

    @pytest.mark.parametrize("dense_p, m_eq", [
        (True, 0), (False, 0), (True, 3), (False, 3)],
        ids=["P", "identity", "P-A", "identity-A"])
    def test_hit_with_new_q_and_d_matches_a_fresh_build(self, dense_p, m_eq):
        rng = np.random.default_rng(30)
        first = memo_problem(rng, dense_p=dense_p, m_eq=m_eq)
        # new q, b and d, and fresh copies of P, A and C
        again = memo_problem(rng, dense_p=dense_p, C=first.C.copy(),
                             P=None if first.P is None else first.P.copy(),
                             A=first.A.copy())
        kept = build_dual(first)[0].G
        hit = build_dual(again)
        assert hit[0].G is kept
        fresh = fresh_build(again)
        assert fresh[0].G is not kept
        assert bits(*hit) == bits(*fresh)

    @pytest.mark.parametrize("block", ["C", "P", "A"])
    def test_caller_mutating_in_place_gets_a_fresh_build(self, block):
        rng = np.random.default_rng(31)
        p = memo_problem(rng, m_eq=2)
        kept = build_dual(p)[0].G
        getattr(p, block)[0, 0] *= 2.0  # P stays symmetric and PD
        mutated = build_dual(p)
        assert mutated[0].G is not kept
        assert bits(*mutated) == bits(*fresh_build(p))

    def test_signed_zero_is_a_miss(self):
        rng = np.random.default_rng(32)
        p = memo_problem(rng)
        p.C[0, 0] = 0.0
        kept = build_dual(p)[0].G
        C = p.C.copy()
        C[0, 0] = -0.0
        dual = build_dual(PrimalQP(P=p.P, q=p.q, C=C, d=p.d))[0]
        assert dual.G is not kept
        assert np.array_equal(dual.G, kept)

    def test_toggling_identity_p_is_a_miss(self):
        rng = np.random.default_rng(33)
        p = memo_problem(rng, dense_p=False)
        dense = PrimalQP(P=np.eye(p.n), q=p.q, C=p.C, d=p.d)
        flagged = PrimalQP(P=np.eye(p.n), q=p.q, C=p.C, d=p.d,
                           identity_p=True)
        G0, pf0 = build_dual(dense)
        G1, pf1 = build_dual(flagged)
        G2, pf2 = build_dual(dense)
        assert G1.G is not G0.G and G2.G is not G1.G
        assert pf0 is not None and pf1 is None and pf2 is not None

    def test_more_variables_than_rows_keeps_nothing(self):
        rng = np.random.default_rng(34)
        build_dual(memo_problem(rng))
        assert transform._memo is not None
        wide = memo_problem(rng, n=6, m=5)
        G = build_dual(wide)[0].G
        assert transform._memo is None
        assert build_dual(wide)[0].G is not G

    @pytest.mark.parametrize("P, C, match", [
        ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
         "not positive definite"),
        (np.eye(2), [[1.0, 0.0], [1e160, 0.0]], r"row 1 of \[A; C\]"),
    ], ids=["not-pd", "row-overflow"])
    def test_a_failed_build_fails_again(self, P, C, match):
        p = PrimalQP(P=np.array(P), q=np.zeros(2), C=np.array(C),
                     d=np.zeros(2))
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(InvalidProblemError, match=match):
                    build_dual(p)

    # a hit forms h from the kept rows: no stacked or scaled copy of A
    # and C, only the comparison's bool temporary of their size / 8
    @pytest.mark.parametrize("dense_p", [False, True], ids=["I", "dense"])
    def test_hit_copies_no_rows(self, dense_p):
        rng = np.random.default_rng(36)
        p = memo_problem(rng, n=100, m=900, dense_p=dense_p, m_eq=100)
        kept = build_dual(p)[0].G
        row_bytes = p.A.nbytes + p.C.nbytes
        tracemalloc.start()
        try:
            hit = build_dual(p)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit.G is kept
        assert peak < 0.5 * row_bytes

    def test_shared_arrays_are_read_only(self):
        rng = np.random.default_rng(35)
        p = memo_problem(rng)
        first, pf = build_dual(p)
        hit, pf_hit = build_dual(p)
        assert hit.G is first.G and hit.s is first.s
        assert pf_hit is pf
        for a in (hit.G, hit.s, pf_hit):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestRecoverPrimal:

    def test_projection_example(self):
        # project (2, 0) onto x1 <= 1: the optimum is (1, 0)
        p = PrimalQP(P=None, q=np.array([-2.0, 0.0]), identity_p=True,
                     C=np.array([[1.0, 0.0]]), d=np.array([1.0]))
        sol, rep = solve(p)
        assert_allclose(sol.x, [1.0, 0.0], rtol=0, atol=1e-9)
        assert_allclose(sol.mu_in, [1.0], rtol=0, atol=1e-9)
        assert p.objective(sol.x) == pytest.approx(-1.5, abs=1e-9)

    def test_recovery_formula(self):
        p = small_problem()
        dual, pf = build_dual(p)
        rep = solve_dual(dual)
        sol = recover_primal(p, pf, rep.mu_star)
        M = np.vstack([p.A, p.C])
        x_hand = -np.linalg.solve(p.P, p.q + M.T @ rep.mu_star)
        assert_allclose(sol.x, x_hand, rtol=0, atol=1e-10)

    def test_residual_fields(self):
        p = small_problem()
        sol, rep = solve(p)
        assert sol.stationarity_residual <= 1e-8
        assert sol.eq_violation <= 1e-8
        assert sol.ineq_violation <= 1e-8
        assert sol.complementarity_residual <= 1e-8
        assert sol.mu_eq.shape == (1,) and sol.mu_in.shape == (2,)
        assert np.all(sol.mu_in >= -1e-10)

    def test_unconstrained_recovery(self):
        P = np.diag([1.0, 4.0])
        q = np.array([-1.0, -8.0])
        p = PrimalQP(P=P, q=q)
        sol, rep = solve(p)
        assert_allclose(sol.x, [1.0, 2.0], rtol=0, atol=1e-10)
        assert rep.outer_iters <= 1
        assert sol.complementarity_residual == 0.0

    # recovery reads A and C in place: one product per block and one
    # solve, no stacked copy of the rows
    @pytest.mark.parametrize("dense_p", [False, True], ids=["I", "dense"])
    def test_recovery_copies_no_rows(self, dense_p):
        n, m_eq, m_in = 2000, 20, 180
        rng = np.random.default_rng(3)
        U = rng.standard_normal((n, 10))
        p = PrimalQP(P=np.eye(n) + U @ U.T if dense_p else None,
                     q=rng.standard_normal(n),
                     A=rng.standard_normal((m_eq, n)),
                     b=rng.standard_normal(m_eq),
                     C=rng.standard_normal((m_in, n)),
                     d=rng.standard_normal(m_in), identity_p=not dense_p)
        pf = build_dual(p)[1]
        mu = np.abs(rng.standard_normal(m_eq + m_in))
        row_bytes = p.A.nbytes + p.C.nbytes
        tracemalloc.start()
        try:
            recover_primal(p, pf, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * row_bytes
