import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import dualqp.active_set as active_set
import dualqp.transform as transform
from dualqp import (SolveStatus, SolverConfig, WorkingSet, afti16_spec,
                    build_dual, build_mpc, enumerate_solve, random_qp,
                    recover_primal, solve, solve_dual)
from dualqp.active_set import DualQP, smartstart, step_length
from dualqp.kernel import CholeskyDowndateError, factorize
from dualqp.refine import RefineOutcome, RefinementError
from dualqp.transform import PrimalQP


def identity_dual(h, m_eq=0):
    # build_dual of the projection of 0 onto the rows of I with offsets
    # h: G = I and h exactly, s = 1, the first m_eq rows equalities
    h = np.asarray(h, dtype=float)
    rows = np.eye(h.size)
    primal = PrimalQP(P=None, identity_p=True, q=np.zeros(h.size),
                      A=rows[:m_eq], b=h[:m_eq], C=rows[m_eq:], d=h[m_eq:])
    return build_dual(primal)[0]


def unscaled_dual(primal):
    # the DualQP record, built by keyword, of a P = I primal on its rows
    # as given, which build_dual would scale down: G = M M',
    # h = M q + [b; d], s = 1, P's factor I and the norms of M's rows
    M = np.vstack([primal.A, primal.C])
    G = M @ M.T
    return DualQP(G=0.5 * (G + G.T),
                  h=M @ primal.q + np.concatenate([primal.b, primal.d]),
                  primal=primal, s=np.ones(M.shape[0]),
                  pf=np.eye(primal.n), norms=np.linalg.norm(M, axis=1))


def start_from(monkeypatch, pins):
    # solve_dual takes its start set from smartstart alone, so a test
    # that needs another start set replaces the rule
    monkeypatch.setattr(active_set, "smartstart",
                        lambda qp: WorkingSet(qp.m_eq, qp.m_in, pins))


class TestSmartstart:

    def test_pins_nonnegative_gradient_coordinates(self):
        qp = identity_dual([0.5, -1.0, 0.0, -2.0])
        assert_array_equal(smartstart(qp).indices, [0, 2])

    def test_never_pins_equalities(self):
        qp = identity_dual([1.0, 1.0, -1.0], m_eq=2)
        assert smartstart(qp).indices.size == 0

    @pytest.mark.parametrize("h, m_eq", [
        ([0.0, -0.0, 1.0, -1e-300, -2.0], 0),
        ([-0.0, 0.0, -0.0, 0.5, 0.0, -3.0], 2),
        ([1.0, -1.0], 2),
    ], ids=["signed-zeros", "equalities", "no-inequalities"])
    def test_matches_the_validated_constructor(self, h, m_eq):
        h = np.array(h)
        qp = dataclasses.replace(identity_dual(np.ones(h.size), m_eq), h=h)
        got = smartstart(qp)
        want = WorkingSet(m_eq, h.size - m_eq,
                          m_eq + np.flatnonzero(h[m_eq:] >= 0))
        assert (got.m_eq, got.m_in) == (want.m_eq, want.m_in)
        assert got.member.tobytes() == want.member.tobytes()
        assert_array_equal(got.indices, want.indices)
        assert not got.member.flags.writeable

    @pytest.mark.parametrize("warm", [True, False], ids=["smart", "cold"])
    def test_solve_builds_no_validated_set(self, monkeypatch, warm):
        # the sets solve_dual builds itself, from a start that is
        # optimal (smart) or one that pins a bound (cold), skip the
        # validating constructor
        calls = []
        init = WorkingSet.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(WorkingSet, "__init__", counting_init)
        rep = solve_dual(identity_dual([1.0, 0.5]),
                         SolverConfig(smartstart=warm))
        assert rep.status is SolveStatus.OPTIMAL
        assert (rep.outer_iters == 1) is warm
        assert calls == []

    def test_matches_scalar_optima(self):
        # per coordinate of a diagonal dual: mu_i* > 0 iff h_i < 0, so
        # exactly the h_i >= 0 coordinates belong in the initial set
        qp = identity_dual([-3.0, 0.25, -0.5, 1.0])
        rep = solve_dual(qp)
        W = smartstart(qp)
        for i in range(4):
            if rep.mu_star[i] > 0:
                assert i not in W
            else:
                assert i in W


def directed_step(monkeypatch, mu, c_bar, outcome):
    # _directed_step on G = I with no bound pinned, refinement patched
    # to return `outcome`; returns (alpha, blocking)
    m = len(mu)
    qp = identity_dual(np.zeros(m))
    f = factorize(qp.G, WorkingSet(0, m), 1e-7)
    monkeypatch.setattr(active_set, "refine_solve", lambda f, c_bar: outcome)
    _, alpha, blocking, salvaged, retries, failure = (
        active_set._directed_step(f, np.asarray(c_bar, dtype=float),
                                  np.asarray(mu, dtype=float), 2.0))
    assert not salvaged and retries == 0 and failure is None
    return alpha, blocking


def solution(p):
    return RefineOutcome(np.asarray(p, dtype=float), 1, True)


class TestStepLength:
    """The ratio test of step_length, and the caps _directed_step puts
    on its result."""

    def test_blocking_bound(self):
        mu = np.array([0.0, 2.0, 1.0])
        p = np.array([1.0, -1.0, -4.0])
        W = WorkingSet(0, 3)
        alpha, blocking = step_length(mu, p, W)
        assert alpha == pytest.approx(0.25)
        assert blocking == 2

    def test_full_step_when_nothing_blocks(self, monkeypatch):
        alpha, blocking = directed_step(monkeypatch, [0.0, 0.0],
                                        [-1.0, -1.0], solution([1.0, 1.0]))
        assert alpha == 1.0 and blocking is None

    def test_cap_at_subspace_minimizer(self, monkeypatch):
        # the bound would block at 5, beyond the solution at step 1
        alpha, blocking = directed_step(monkeypatch, [5.0], [1.0],
                                        solution([-1.0]))
        assert alpha == 1.0 and blocking is None

    def test_cap_at_line_minimizer_before_blocking_bound(self, monkeypatch):
        # along p the objective bottoms out at 1/sqrt(2), before bound 1
        # blocks at 10 sqrt(2)
        p = np.array([1.0, -1.0]) / np.sqrt(2.0)
        descent = RefineOutcome(p, 1, False)
        alpha, blocking = directed_step(monkeypatch, [0.0, 10.0],
                                        [-1.0, 0.0], descent)
        assert alpha == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
        assert blocking is None

    def test_working_set_members_do_not_block(self):
        mu = np.array([0.0, 0.0])
        p = np.array([-1.0, -1.0])
        W = WorkingSet(0, 2, [0])
        alpha, blocking = step_length(mu, p, W)
        assert blocking == 1

    def test_nothing_blocking_gives_an_infinite_step(self):
        mu = np.zeros(1)
        p = np.array([1.0])
        alpha, blocking = step_length(mu, p, WorkingSet(0, 1))
        assert alpha == np.inf and blocking is None

    def test_tie_picks_smallest_index(self):
        mu = np.array([1.0, 1.0])
        p = np.array([-1.0, -1.0])
        alpha, blocking = step_length(mu, p, WorkingSet(0, 2))
        assert alpha == 1.0 and blocking == 0

    def test_matches_loop_reference(self):
        # the scalar loop that step_length vectorizes; same arithmetic,
        # so results must agree exactly, ties included
        def loop(mu, p, ineq, W):
            member = W.member
            cand = [i for i in ineq if not member[i] and p[i] < 0.0]
            if not cand:
                return np.inf, None
            ratios = np.array([-mu[i] / p[i] for i in cand])
            j = int(np.argmin(ratios))
            return float(ratios[j]), int(cand[j])

        rng = np.random.default_rng(11)
        for trial in range(300):
            m_eq, m_in = int(rng.integers(0, 3)), int(rng.integers(1, 10))
            m = m_eq + m_in
            mu = rng.integers(0, 3, m) * rng.choice([0.5, 1.0 / 3.0])
            p = rng.choice([-2.0, -1.0, -0.3, 0.0, 1.0], m)
            pins = [i for i in range(m_eq, m) if rng.random() < 0.3]
            W = WorkingSet(m_eq, m_in, pins)
            ineq = np.arange(m_eq, m)
            assert step_length(mu, p, W) == loop(mu, p, ineq, W), trial


class TestScalarDuals:

    def test_active_bound(self):
        rep = solve_dual(identity_dual([-2.0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [2.0], rtol=0, atol=1e-9)

    def test_inactive_bound(self):
        rep = solve_dual(identity_dual([2.0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [0.0], rtol=0, atol=1e-12)

    def test_equality_coordinate_goes_negative(self):
        # min x^2 / 4 subject to x = 3: the dual G = 2 is scaled to 1,
        # and the multiplier comes back in the row's units
        primal = PrimalQP(P=np.array([[0.5]]), q=np.zeros(1),
                          A=np.array([[1.0]]), b=np.array([3.0]))
        rep = solve_dual(build_dual(primal)[0])
        assert_allclose(rep.mu_star, [-1.5], rtol=0, atol=1e-9)

    def test_zero_step_solution_is_optimal(self):
        # G = 1e6, h = 5e-7, on the unscaled row 1e3: the gradient is
        # above the stationarity test; the step -5e-13 it solves to is
        # taken like any other, and the next iteration finds the
        # subspace minimizer
        qp = unscaled_dual(PrimalQP(P=np.eye(1), q=np.zeros(1),
                                    A=np.array([[1e3]]),
                                    b=np.array([5e-7])))
        rep = solve_dual(qp)
        assert rep.status is SolveStatus.OPTIMAL
        assert abs(rep.mu_star[0]) <= 1e-12
        assert rep.outer_iters == 2 and rep.refine_calls == 1


class TestAgainstEnumeration:

    def test_random_problems_both_starts(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            primal = random_qp(int(rng.integers(1 << 30)), n=5, m_eq=1,
                               m_in=4, make_degenerate=trial % 2 == 0)
            want = enumerate_solve(primal)
            dual, pf = build_dual(primal)
            for smart in (True, False):
                rep = solve_dual(dual, cfg=SolverConfig(smartstart=smart))
                assert rep.status is SolveStatus.OPTIMAL, (trial, smart)
                sol = recover_primal(primal, pf, rep.mu_star)
                got = primal.objective(sol.x)
                scale = 1 + abs(want.objective)
                assert abs(got - want.objective) <= 1e-6 * scale, (trial, smart)

    def test_explicit_working_set_start(self, monkeypatch):
        primal = random_qp(123, n=4, m_eq=0, m_in=5)
        want = enumerate_solve(primal)
        dual, pf = build_dual(primal)
        start_from(monkeypatch, [1, 3])
        rep = solve_dual(dual)
        sol = recover_primal(primal, pf, rep.mu_star)
        assert primal.objective(sol.x) == pytest.approx(want.objective,
                                                        abs=1e-8)


class TestRedundantRows:

    def test_duplicated_and_negated_constraints(self):
        # x1 <= 1 twice plus x1 >= 1/4 makes the dual quadratic singular
        primal = PrimalQP(P=np.eye(2), q=np.array([-2.0, 0.0]),
                          C=np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
                          d=np.array([1.0, 1.0, -0.25]))
        dual, pf = build_dual(primal)
        assert np.linalg.matrix_rank(dual.G) == 1
        rep = solve_dual(dual, cfg=SolverConfig(smartstart=False))
        assert rep.status is SolveStatus.OPTIMAL
        sol = recover_primal(primal, pf, rep.mu_star)
        assert_allclose(sol.x, [1.0, 0.0], rtol=0, atol=1e-7)


class TestInfeasiblePrimal:

    def test_contradictory_equalities(self):
        primal = PrimalQP(P=np.eye(1), q=np.zeros(1),
                          A=np.array([[1.0], [1.0]]), b=np.array([0.0, 1.0]))
        dual, _ = build_dual(primal)
        rep = solve_dual(dual)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert rep.ray @ primal.b < 0.0

    def test_contradictory_inequalities(self):
        # x1 <= -1 and -x1 <= 0 cannot both hold
        primal = PrimalQP(P=np.eye(2), q=np.zeros(2),
                          C=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          d=np.array([-1.0, 0.0]))
        dual, _ = build_dual(primal)
        rep = solve_dual(dual)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert rep.ray @ primal.d < 0.0


class TestReporting:

    def test_iteration_limit_status(self):
        primal = random_qp(77, n=6, m_eq=0, m_in=6)
        dual, _ = build_dual(primal)
        full = solve_dual(dual, cfg=SolverConfig(smartstart=False))
        assert full.outer_iters > 1
        rep = solve_dual(dual, cfg=SolverConfig(smartstart=False,
                                                max_outer_iters=1))
        assert rep.status is SolveStatus.ITERATION_LIMIT
        assert rep.message

    def test_trace_is_monotone(self):
        # the solve is deterministic, so capping it at k outer
        # iterations reports the objective after its first k iterations
        primal = random_qp(31, n=6, m_eq=1, m_in=6)
        dual, _ = build_dual(primal)
        full = solve_dual(dual, cfg=SolverConfig(smartstart=False))
        assert full.outer_iters > 2
        trace = np.array([
            solve_dual(dual, cfg=SolverConfig(smartstart=False,
                                              max_outer_iters=k)).objective
            for k in range(1, full.outer_iters + 1)])
        assert trace[-1] == full.objective
        drops = np.diff(trace)
        assert np.all(drops <= 1e-10 * (1 + np.abs(trace[:-1])))

    def test_report_statistics(self):
        primal = random_qp(55, n=5, m_eq=1, m_in=5)
        dual, _ = build_dual(primal)
        rep = solve_dual(dual)
        assert rep.refine_calls >= 1
        assert 1 <= rep.refine_iters_min <= rep.refine_iters_max <= 20
        assert rep.refine_iters_min <= rep.refine_iters_mean \
            <= rep.refine_iters_max
        assert rep.shift_retries == 0
        assert rep.final_shift == pytest.approx(1e-7)

    def test_the_refinement_that_ends_the_solve_is_counted(self):
        # the row 0 <= -1: the first direction is a ray, and the solve
        # ends PRIMAL_INFEASIBLE on the step that found it
        primal = PrimalQP(P=None, identity_p=True, q=np.ones(1),
                          C=np.zeros((1, 1)), d=np.array([-1.0]))
        rep = solve_dual(build_dual(primal)[0])
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert rep.refine_calls == 1 and rep.descent_count == 1
        assert rep.refine_iters_min == rep.refine_iters_max == 2
        assert rep.salvaged_steps == 0


def stepping_dual():
    # the unscaled dual of a P = I primal with one equality and eight
    # inequality rows; cold, it takes 17 outer iterations: 13 steps,
    # 3 drops and the final optimality check
    rng = np.random.default_rng(0)
    A, C, x = (rng.standard_normal(shape) for shape in ((1, 5), (8, 5), 5))
    return unscaled_dual(PrimalQP(P=np.eye(5), q=rng.standard_normal(5),
                                  A=A, b=A @ x, C=C,
                                  d=C @ x + rng.uniform(0.1, 1.0, 8)))


class TestDualObjective:
    """The report's dual objective is 0.5 mu'G mu + h'mu at the final
    mu, bit for bit, however the loop ends.  On an unscaled dual, s = 1,
    so mu_star is that mu."""

    @staticmethod
    def assert_exact(qp, rep):
        mu = rep.mu_star
        assert rep.objective == 0.5 * mu @ (qp.G @ mu) + qp.h @ mu

    def test_optimal_after_drops(self):
        qp = stepping_dual()
        rep = solve_dual(qp, cfg=SolverConfig(smartstart=False))
        assert rep.status is SolveStatus.OPTIMAL
        # every iteration steps, drops or ends the solve
        assert rep.outer_iters - rep.refine_calls - 1 >= 1
        self.assert_exact(qp, rep)

    def test_iteration_limit_right_after_a_step(self):
        qp = stepping_dual()
        k = solve_dual(qp, cfg=SolverConfig(smartstart=False)).outer_iters - 1
        before = solve_dual(qp, cfg=SolverConfig(smartstart=False,
                                                 max_outer_iters=k - 1))
        rep = solve_dual(qp, cfg=SolverConfig(smartstart=False,
                                              max_outer_iters=k))
        assert rep.status is SolveStatus.ITERATION_LIMIT
        # iteration k took a step, and the step moved mu
        assert rep.refine_calls == before.refine_calls + 1
        assert not np.array_equal(rep.mu_star, before.mu_star)
        self.assert_exact(qp, rep)

    @staticmethod
    def counted_solve(monkeypatch, h):
        # solve_dual on G = I over the rows of I with offsets h,
        # refinement exact; returns the report and the number of
        # products formed with G
        products = []

        class CountingG(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.asarray(self) @ other

        h = np.array(h)
        qp = dataclasses.replace(unit_rows_dual(h),
                                 G=np.eye(2).view(CountingG))
        monkeypatch.setattr(
            active_set, "refine_solve",
            lambda f, c_bar: RefineOutcome(-c_bar, 1, True))
        return solve_dual(qp), len(products)

    def test_a_drop_forms_no_product_with_g(self, monkeypatch):
        # h = [-1, 2] from {0}: bound 1 blocks at once (a step of 0,
        # which pins it and drops the factor), bound 0 drops, the step
        # to mu = [1, 0] is free, and the next check is optimal; the
        # primal check at the end forms no product with G either
        start_from(monkeypatch, [0])
        rep, products = self.counted_solve(monkeypatch, [-1.0, 2.0])
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.outer_iters == 4 and rep.refine_calls == 2
        assert_array_equal(rep.mu_star, [1.0, 0.0])
        # one product per step of nonzero length: the step of 0 leaves
        # mu, and so G mu, as it was
        assert products == 1
        # h = [1, 2] from smartstart's {0, 1}, mpc_loop's common QP:
        # mu = 0 is already optimal, so no step forms G mu
        monkeypatch.undo()
        rep, products = self.counted_solve(monkeypatch, [1.0, 2.0])
        assert rep.status is SolveStatus.OPTIMAL and rep.outer_iters == 1
        assert products == 0


class TestDowndateFallback:

    def test_collapsed_downdate_refactorizes(self, monkeypatch):
        # Every inequality starts pinned, so the solve must unpin; the
        # first unpin raises as a collapsed downdate pivot would, and
        # solve_dual drops the factor, rebuilds it from scratch on the
        # next step and carries on.
        primal = random_qp(0, n=6, m_eq=1, m_in=8)
        dual, _ = build_dual(primal)
        start_from(monkeypatch, range(1, 9))
        want = solve_dual(dual)

        calls = {"remove": 0, "factorize": 0}
        remove, factorize = active_set.remove_index, active_set.factorize

        def collapse_once(f, i):
            calls["remove"] += 1
            if calls["remove"] == 1:
                raise CholeskyDowndateError("forced")
            return remove(f, i)

        def counting_factorize(*args):
            calls["factorize"] += 1
            return factorize(*args)

        monkeypatch.setattr(active_set, "remove_index", collapse_once)
        monkeypatch.setattr(active_set, "factorize", counting_factorize)
        got = solve_dual(dual)
        assert calls["remove"] > 1
        assert calls["factorize"] == 2  # the first build and the rebuild
        assert got.status is SolveStatus.OPTIMAL
        assert got.outer_iters == want.outer_iters
        assert_allclose(got.mu_star, want.mu_star, rtol=0, atol=1e-10)


class TestFirstBuild:
    """The factor is built when a step first needs it."""

    def test_optimal_start_never_factorizes(self, monkeypatch):
        # smartstart pins both bounds of h >= 0, which is optimal at
        # mu = 0: the solve ends before any step, so a factor that
        # would not build is never asked for
        calls = []

        def unfactorable(G, W, epsilon):
            calls.append(epsilon)
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(active_set, "factorize", unfactorable)
        rep = solve_dual(identity_dual([1.0, 0.5]))
        assert calls == []
        assert rep.status is SolveStatus.OPTIMAL and rep.outer_iters == 1
        assert rep.final_shift == 1e-7
        assert_array_equal(rep.mu_star, [0.0, 0.0])

    def test_drop_before_the_first_build_edits_the_mask(self, monkeypatch):
        # both bounds pinned at h = [-1, -1]: the start set is
        # stationary with negative multipliers, so bound 0 drops before
        # any step, and the first factor is built on the set {1}
        masks = []
        factorize = active_set.factorize

        def recording_factorize(G, W, epsilon):
            masks.append((W.indices.tolist(), epsilon))
            return factorize(G, W, epsilon)

        monkeypatch.setattr(active_set, "factorize", recording_factorize)
        start_from(monkeypatch, [0, 1])
        rep = solve_dual(identity_dual([-1.0, -1.0]))
        assert masks == [([1], 1e-7)]
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [1.0, 1.0], rtol=0, atol=1e-12)


def projection_dual():
    # project (2, 0) onto x1 <= 1: one dual coordinate, h = [-1]
    primal = PrimalQP(P=None, q=np.array([-2.0, 0.0]), identity_p=True,
                      C=np.array([[1.0, 0.0]]), d=np.array([1.0]))
    return build_dual(primal)[0]


class TestSalvageRejections:
    """Refinement fails at the shift floor and the iterate it leaves
    cannot be salvaged: the solve stops with NUMERICAL_FAILURE."""

    @pytest.mark.parametrize("iterate", [
        np.zeros_like,
        lambda c_bar: np.full_like(c_bar, np.nan),
        lambda c_bar: c_bar.copy(),  # uphill
    ], ids=["zero_iterate", "nan_iterate", "uphill_iterate"])
    def test_unsalvageable_iterate_is_a_numerical_failure(
            self, monkeypatch, iterate):
        calls = []

        def fail(f, c_bar):
            calls.append(f.epsilon)
            raise RefinementError("forced", iterate(c_bar), 20)

        monkeypatch.setattr(active_set, "refine_solve", fail)
        # the shift starts at the floor, so nothing escalates
        monkeypatch.setattr(active_set, "_SHIFT_START", 1e-12)
        rep = solve_dual(projection_dual())
        assert calls == [1e-12]
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.shift_retries == 0
        assert rep.outer_iters == 1
        assert rep.message == "refinement failed at iteration 1: forced"

    def test_failure_report_keeps_its_escalations(self, monkeypatch):
        calls = []

        def fail(f, c_bar):
            calls.append(f.epsilon)
            raise RefinementError("forced", np.zeros_like(c_bar), 20)

        monkeypatch.setattr(active_set, "refine_solve", fail)
        rep = solve_dual(projection_dual())
        assert calls == pytest.approx([1e-7, 1e-9, 1e-11, 1e-12],
                                      rel=1e-12)
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.shift_retries == 3
        assert rep.final_shift == 1e-12

    def test_flat_salvaged_direction_with_no_blocking_bound(self,
                                                            monkeypatch):
        # the salvaged iterate has zero curvature and no bound blocks
        # it: like a certified one, it is a ray of the dual, and the row
        # 0 <= -1 (G = 0, h = -1) makes it a Farkas certificate
        def fail(f, c_bar):
            raise RefinementError("forced", np.array([1.0]), 20)

        monkeypatch.setattr(active_set, "refine_solve", fail)
        primal = PrimalQP(P=None, identity_p=True, q=np.zeros(1),
                          C=np.zeros((1, 1)), d=np.array([-1.0]))
        rep = solve_dual(build_dual(primal)[0])
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert rep.ray[0] > 0.0
        assert primal.C.T @ rep.ray == 0.0 and primal.d @ rep.ray < 0.0
        assert rep.shift_retries == 3

    def test_flat_salvaged_direction_that_fails_the_ray_check(self,
                                                              monkeypatch):
        # the row x <= -1 under a record whose G = 0 calls its
        # coordinate flat: the salvaged iterate meets no bound, and
        # fails the ray check on the primal row
        def fail(f, c_bar):
            raise RefinementError("forced", np.array([1.0]), 20)

        monkeypatch.setattr(active_set, "refine_solve", fail)
        primal = PrimalQP(P=np.eye(1), q=np.zeros(1), C=np.eye(1),
                          d=np.array([-1.0]))
        qp = dataclasses.replace(unscaled_dual(primal), G=np.zeros((1, 1)))
        rep = solve_dual(qp)
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.message == ("refinement failed at iteration 1: "
                               "infeasibility ray failed the primal check: "
                               "||M'p||_inf 1, [b; d]'p -1")
        assert rep.shift_retries == 3
        assert rep.salvaged_steps == rep.refine_calls == 1
        assert rep.final_shift == 1e-12


def large_rows_qp(s):
    # feasible P = I problem, m > n, every row of C scaled by s
    rng = np.random.default_rng(0)
    C = s * rng.standard_normal((5, 3))
    x = rng.standard_normal(3)
    d = C @ x + s * rng.uniform(0.1, 1.0, 5)
    q = s * rng.standard_normal(3)
    return PrimalQP(P=np.eye(3), q=q, C=C, d=d)


def indefinite_dual():
    # unit_rows_dual([0, -1]) with an indefinite G: with no
    # bound pinned, its second pivot (1 + eps) - 4 / (1 + eps) is
    # negative at any shift below 1, so under any rounding a downdate
    # to the empty set collapses and a build of it fails.  The primal
    # behind it, P = I, q = 0, C = I and d = h, is not G's.
    return dataclasses.replace(unit_rows_dual([0.0, -1.0]),
                               G=np.array([[1.0, -2.0], [-2.0, 1.0]]))


class TestAbsoluteShift:
    """The shift and its floor are absolute: on a dual whose rows are
    not scaled, once max|G| is large, a rank-deficient masked G can
    round to indefinite at the shift, and its factorization fails
    inside the solve.  build_dual's row scaling keeps max|G| <= 1, so
    the duals here are unscaled DualQP records, built by keyword."""

    def test_unfactorable_sharper_shift_salvages(self, monkeypatch):
        failed = []
        factorize = active_set.factorize

        def recording_factorize(G, W, epsilon):
            try:
                return factorize(G, W, epsilon)
            except np.linalg.LinAlgError:
                failed.append(epsilon)
                raise

        monkeypatch.setattr(active_set, "factorize", recording_factorize)
        primal = large_rows_qp(100.0)
        dual, pf = unscaled_dual(primal), build_dual(primal)[1]
        rep = solve_dual(dual)
        assert failed and min(failed) < rep.final_shift  # escalation ended
        assert rep.status is SolveStatus.OPTIMAL
        x = recover_primal(primal, pf, rep.mu_star).x
        ref = enumerate_solve(primal).x
        assert_allclose(x, ref, rtol=1e-6, atol=0)

    # fallback: a downdate collapses, and the rebuild at the shift in
    # effect, still 1e-7, on the next step meets the indefinite block of
    # indefinite_dual() (from the cold start, its first build does);
    # start: the first build, on the first step, meets the block that
    # rows scaled by 1e5 round to (at 1e3 the starting shift solves the
    # problem, see below)
    @pytest.mark.parametrize("case", ["fallback", "start"])
    def test_unfactorable_shift_is_a_numerical_failure(self, monkeypatch,
                                                       case):
        dual = (indefinite_dual() if case == "fallback"
                else unscaled_dual(large_rows_qp(1e5)))
        collapsed = []
        remove = active_set.remove_index

        def recording_remove(f, i):
            try:
                remove(f, i)
            except CholeskyDowndateError:
                collapsed.append(i)
                raise

        monkeypatch.setattr(active_set, "remove_index", recording_remove)
        for warm in (True, False):
            collapsed.clear()
            rep = solve_dual(dual, cfg=SolverConfig(smartstart=warm))
            assert rep.status is SolveStatus.NUMERICAL_FAILURE
            assert rep.message.startswith(
                f"factorization failed at iteration {rep.outer_iters}, "
                f"shift 1e-07: masked matrix is not positive definite")
            assert rep.final_shift == 1e-7
            assert np.isfinite(rep.mu_star).all()
            if case == "fallback" and warm:
                # a step from {0} to mu = [0, 1], where bound 0 (its
                # multiplier -2) drops and its downdate collapses; the
                # rebuild at 1e-7 on the next step fails
                assert collapsed == [0]
                assert rep.outer_iters == 3 and rep.refine_calls == 1
                assert rep.message.endswith("(leading minor 2)")
                assert_allclose(rep.mu_star, [0.0, 1.0], rtol=0, atol=1e-12)
            else:
                assert not collapsed
                # no step ran: the report is of mu = 0 on the start set
                assert rep.outer_iters == 1 and rep.objective == 0.0
                assert rep.refine_calls == 0 and rep.refine_iters_mean == 0.0
                assert rep.refine_iters_min == rep.refine_iters_max == 0
                assert rep.descent_count == 0 and rep.shift_retries == 0
                assert rep.salvaged_steps == 0
                assert_array_equal(rep.mu_star, np.zeros(dual.m))

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_rows_scaled_by_1e3_match_the_oracle(self, warm):
        # through solve(), so build_dual scales the rows
        primal = large_rows_qp(1e3)
        sol, rep = solve(primal, SolverConfig(smartstart=warm))
        assert rep.status is SolveStatus.OPTIMAL
        ref = enumerate_solve(primal).x
        assert np.max(np.abs(sol.x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [1e2, 1e3])
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_public_solve_never_raises(self, s, warm):
        # both starts through solve(), on the rows build_dual scales
        primal = large_rows_qp(s)
        sol, rep = solve(primal, SolverConfig(smartstart=warm))
        assert rep.status in (SolveStatus.OPTIMAL,
                              SolveStatus.NUMERICAL_FAILURE)
        if rep.status is SolveStatus.OPTIMAL:
            assert_allclose(sol.x, enumerate_solve(primal).x, rtol=1e-6,
                            atol=0)
        else:
            assert f"shift {rep.final_shift:g}" in rep.message


def scripted_refinement(monkeypatch, fails, iterate, unfactorable=()):
    # refine_solve patched: call number k (from 1) raises, leaving
    # `iterate`, when k is in `fails`; every other call refines for
    # real.  factorize is counted, and attempt number k (from 1) raises
    # LinAlgError when k is in `unfactorable`.  Returns the shift each
    # refinement call saw and the shift of each factorization attempt.
    seen, factorizations = [], []
    refine, factorize = active_set.refine_solve, active_set.factorize

    def scripted(f, c_bar):
        seen.append(f.epsilon)
        if len(seen) in fails:
            raise RefinementError("forced", np.asarray(iterate, dtype=float),
                                  20)
        return refine(f, c_bar)

    def counting(G, W, epsilon):
        factorizations.append(epsilon)
        if len(factorizations) in unfactorable:
            raise np.linalg.LinAlgError("forced")
        return factorize(G, W, epsilon)

    monkeypatch.setattr(active_set, "refine_solve", scripted)
    monkeypatch.setattr(active_set, "factorize", counting)
    return seen, factorizations


COLD = SolverConfig(smartstart=False)


def unit_rows_dual(h):
    # the DualQP record, built by keyword, of G = I and h: the unscaled
    # dual of the rows of I with offsets h
    m = len(h)
    return unscaled_dual(PrimalQP(P=np.eye(m), q=np.zeros(m), C=np.eye(m),
                                  d=np.asarray(h, dtype=float)))


# the shifts of the first build and of the three escalations to the floor
TO_THE_FLOOR = [1e-7, 1e-9, 1e-11, 1e-12]


class TestShiftOnlyFalls:
    """The factor's shift starts at _SHIFT_START, only escalation lowers
    it, and nothing raises it: a factor dropped by a batch of pins or a
    collapsed downdate is rebuilt at the shift in effect."""

    def test_salvage_at_the_floor_keeps_the_floor(self, monkeypatch):
        # G = I, h = [-1, 2], cold.  The first subproblem fails down to
        # the floor and its iterate [1, 0] is salvaged: a step to
        # mu = [1, 0].  The next subproblem runs on the factor at the
        # floor, with no fifth factorization, and its step of 0 pins
        # bound 1.
        seen, factorizations = scripted_refinement(
            monkeypatch, fails={1, 2, 3, 4}, iterate=[1.0, 0.0])
        rep = solve_dual(unit_rows_dual([-1.0, 2.0]), cfg=COLD)
        assert seen == pytest.approx(TO_THE_FLOOR + [1e-12], rel=1e-12)
        assert factorizations == pytest.approx(TO_THE_FLOOR, rel=1e-12)
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [1.0, 0.0], rtol=0, atol=1e-12)
        assert rep.salvaged_steps == 1 and rep.shift_retries == 3
        assert rep.final_shift == 1e-12
        assert rep.message == ("optimal, but 1 step(s) took salvaged, "
                               "uncertified directions")

    # G = I, h = [-1, -1], bound 1 pinned.  The first subproblem fails
    # down to the floor and its iterate [1, 0] is salvaged: a step to
    # mu = [1, 0] that leaves the factor at 1e-12.  There the set is
    # stationary and bound 1 drops, but the downdate collapses: the
    # factor is dropped, bound 1 leaves the mask alone, and the next
    # step rebuilds the factor at the floor.
    def collapsed_after_salvage(self, monkeypatch, unfactorable=()):
        seen, factorizations = scripted_refinement(
            monkeypatch, fails={1, 2, 3, 4}, iterate=[1.0, 0.0],
            unfactorable=unfactorable)
        remove = active_set.remove_index

        def collapse(f, i):
            if f.factor is not None:
                raise CholeskyDowndateError("forced")
            remove(f, i)

        monkeypatch.setattr(active_set, "remove_index", collapse)
        start_from(monkeypatch, [1])
        rep = solve_dual(unit_rows_dual([-1.0, -1.0]))
        assert factorizations == pytest.approx(TO_THE_FLOOR + [1e-12],
                                               rel=1e-12)
        return seen, rep

    def test_collapse_rebuilds_at_the_current_shift(self, monkeypatch):
        seen, rep = self.collapsed_after_salvage(monkeypatch)
        assert seen == pytest.approx(TO_THE_FLOOR + [1e-12], rel=1e-12)
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [1.0, 1.0], rtol=0, atol=1e-12)
        assert rep.final_shift == 1e-12 and rep.salvaged_steps == 1

    def test_unfactorable_rebuild_is_a_numerical_failure(self, monkeypatch):
        # as above, but the rebuild at the floor fails
        seen, rep = self.collapsed_after_salvage(monkeypatch,
                                                 unfactorable={5})
        assert len(seen) == 4
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.message == ("factorization failed at iteration 3, "
                               "shift 1e-12: forced")
        assert rep.outer_iters == 3 and rep.final_shift == 1e-12
        assert_allclose(rep.mu_star, [1.0, 0.0], rtol=0, atol=1e-12)


class TestBatchPins:
    """A step of length 0 pins every bound at 0 that its direction
    leaves, and drops the factor for the next step to rebuild."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"add_index": 0, "factorize": 0}
        add_index, factorize = active_set.add_index, active_set.factorize

        def counting_add(f, i):
            calls["add_index"] += 1
            return add_index(f, i)

        def counting_factorize(*args):
            calls["factorize"] += 1
            return factorize(*args)

        monkeypatch.setattr(active_set, "add_index", counting_add)
        monkeypatch.setattr(active_set, "factorize", counting_factorize)
        return calls

    def test_one_step_pins_the_batch(self, monkeypatch):
        # G = I, h = [-1, 2, 2, 2, 2], cold: the first direction -h
        # leaves bounds 1-4 at once, so one step pins all four, and the
        # factor is built twice: for the first step and after the batch
        calls = self.counted(monkeypatch)
        rep = solve_dual(unit_rows_dual([-1.0, 2.0, 2.0, 2.0, 2.0]),
                         cfg=COLD)
        assert rep.status is SolveStatus.OPTIMAL
        assert_allclose(rep.mu_star, [1.0, 0.0, 0.0, 0.0, 0.0], rtol=0,
                        atol=1e-12)
        assert calls == {"add_index": 4, "factorize": 2}
        assert rep.outer_iters == 3 and rep.refine_calls == 2

    def test_cold_mpc_start_makes_far_fewer_factorizations_than_pins(
            self, monkeypatch):
        calls = self.counted(monkeypatch)
        primal = build_mpc(afti16_spec(horizon=10))
        sol, rep = solve(primal, COLD)
        assert rep.status is SolveStatus.OPTIMAL
        assert calls["add_index"] >= 10 * calls["factorize"] > 0
        assert rep.outer_iters <= 10


def zero_row_dual(d):
    # build_dual of P = I, q = 0 over the row x <= 1 and a row of zero
    # length with offset d
    return build_dual(PrimalQP(P=None, identity_p=True, q=np.zeros(1),
                               C=np.array([[1.0], [0.0]]),
                               d=np.array([1.0, d])))[0]


class TestPrimalCheck:
    """Every OPTIMAL is checked on the primal rows, and the loop re-reads
    a failed check.  The records here lie to the loop, as rounding in
    G mu + h can at a large mu: their h or G is not that of the primal
    they carry, so the loop ends OPTIMAL at multipliers whose x violates
    a row.  Its next iteration reads the gradient off the primal rows,
    with no allowance for G mu's rounding."""

    # rows x1 <= -1 and x2 <= 2 (P = I, q = 0): mu* = [1, 0].  The
    # record's h = [-0.999, 2] puts the loop at mu = [0.999, 0], where x
    # violates row 0 by 1e-3; with the allowance for G mu's rounding
    # raised to 1e-3 times ||mu||_inf, the loop's tests also pass at
    # mu*, so they cannot see the lie there
    @staticmethod
    def hidden_lie(monkeypatch):
        monkeypatch.setattr(active_set, "_ROUNDING_TOL", 1e-3)
        return dataclasses.replace(unit_rows_dual([-1.0, 2.0]),
                                   h=np.array([-0.999, 2.0]))

    # the same rows, with h = [-0.999, -1e-4]: the loop ends OPTIMAL at
    # mu = [0.999, 1e-4], and its tests see the lie at any other mu
    @staticmethod
    def shifted_h():
        return dataclasses.replace(unit_rows_dual([-1.0, 2.0]),
                                   h=np.array([-0.999, -1e-4]))

    def test_correction_mends_the_optimal(self, monkeypatch):
        # bound 1 starts pinned.  Iteration 1 steps to [0.999, 0], whose
        # check fails at iteration 2; iteration 3 steps along the primal
        # gradient to mu*, and iteration 4 finds it optimal and checked
        qp = self.hidden_lie(monkeypatch)
        rep = solve_dual(qp)
        assert rep.status is SolveStatus.OPTIMAL and rep.message == ""
        assert_allclose(rep.mu_star, [1.0, 0.0], rtol=0, atol=1e-12)
        assert rep.outer_iters == 4 and rep.refine_calls == 2
        TestDualObjective.assert_exact(qp, rep)

    def test_iteration_limit_during_a_correction(self, monkeypatch):
        # the cap falls on iteration 3, the correction step: it counts
        # as an outer iteration, and the solve ends after it
        qp = self.hidden_lie(monkeypatch)
        rep = solve_dual(qp, cfg=SolverConfig(max_outer_iters=3))
        assert rep.status is SolveStatus.ITERATION_LIMIT
        assert rep.message == "outer iteration cap reached"
        assert_allclose(rep.mu_star, [1.0, 0.0], rtol=0, atol=1e-12)
        assert rep.outer_iters == 3 and rep.refine_calls == 2
        TestDualObjective.assert_exact(qp, rep)

    def test_optimal_multipliers_on_a_ray_are_infeasibility(self):
        # the rows x <= -1 and -x <= 0 admit no point; the record's
        # G = I, h = [-1, -1] ends OPTIMAL at mu = [1, 1], a ray
        primal = PrimalQP(P=np.eye(1), q=np.zeros(1),
                          C=np.array([[1.0], [-1.0]]),
                          d=np.array([-1.0, 0.0]))
        qp = dataclasses.replace(unscaled_dual(primal), G=np.eye(2),
                                 h=np.array([-1.0, -1.0]))
        rep = solve_dual(qp)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert "fail the primal check" in rep.message
        assert_array_equal(rep.ray, rep.mu_star)
        assert_allclose(rep.ray, [1.0, 1.0], rtol=0, atol=1e-12)
        assert primal.C.T @ rep.ray == 0.0 and primal.d @ rep.ray < 0.0

    def assert_refused(self, rep, violation):
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.message.startswith(
            f"optimal multipliers failed the primal check: row violation "
            f"{violation} over its bound")

    def test_refinement_error_ends_the_correction(self, monkeypatch):
        # the loop's one refinement runs; the correction step's fails at
        # every shift down to the floor and leaves nothing to salvage
        qp = self.hidden_lie(monkeypatch)
        seen, _ = scripted_refinement(monkeypatch, fails={2, 3, 4, 5},
                                      iterate=[0.0, 0.0])
        rep = solve_dual(qp)
        assert len(seen) == 5 and rep.refine_calls == 1
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.message == "refinement failed at iteration 3: forced"
        assert rep.shift_retries == 3
        assert_allclose(rep.mu_star, [0.999, 0.0], rtol=0, atol=1e-12)

    def test_a_check_that_keeps_failing_runs_out(self, monkeypatch):
        # each correction step leaves mu*, the loop's tests walk back to
        # mu = [0.999, 1e-4], and the check fails there again; the check
        # after the last of _CORRECTIONS re-reads ends the solve
        checks = []
        primal_check = active_set._primal_check

        def counting(qp, mu):
            checks.append(mu.copy())
            return primal_check(qp, mu)

        monkeypatch.setattr(active_set, "_primal_check", counting)
        rep = solve_dual(self.shifted_h(),
                         cfg=SolverConfig(max_outer_iters=100))
        self.assert_refused(rep, "0.001")
        assert len(checks) == 1 + active_set._CORRECTIONS
        assert_allclose(checks, [[0.999, 1e-4]] * len(checks), rtol=0,
                        atol=1e-12)
        assert_allclose(rep.mu_star, [0.999, 1e-4], rtol=0, atol=1e-12)
        assert rep.outer_iters < 100

    def test_steps_that_cannot_mend_run_out(self, monkeypatch):
        # rows x1 <= -1 and x2 <= -1: mu* = [1, 1].  The record's
        # G = diag(1, 0) and h = [-1, 1] end OPTIMAL at mu = [1, 0] with
        # bound 1 pinned, and the violated row 1 is the pinned one.  Read
        # off the primal rows, its multiplier is -1, so the bound is
        # released; the record then gives coordinate 1 no curvature, and
        # the flat direction fails the ray check
        released, calls = [], []
        remove, refine = active_set.remove_index, active_set.refine_solve

        def removing(f, j):
            released.append(j)
            return remove(f, j)

        def refining(f, c_bar):
            calls.append(c_bar)
            return refine(f, c_bar)

        monkeypatch.setattr(active_set, "remove_index", removing)
        monkeypatch.setattr(active_set, "refine_solve", refining)
        qp = dataclasses.replace(unit_rows_dual([-1.0, -1.0]),
                                 G=np.diag([1.0, 0.0]),
                                 h=np.array([-1.0, 1.0]))
        rep = solve_dual(qp)
        assert released == [1]
        assert len(calls) == 2 < 1 + active_set._CORRECTIONS
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.message.startswith(
            "refinement failed at iteration 4: infeasibility ray failed "
            "the primal check")
        assert_allclose(rep.mu_star, [1.0, 0.0], rtol=0, atol=1e-12)

    def test_zero_row_with_a_negative_offset_is_not_optimal(self):
        # the zero row 0 <= -1 holds for no x: its dual coordinate is a
        # flat ray, and the solve says so
        rep = solve_dual(zero_row_dual(-1.0))
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert_allclose(rep.ray, [0.0, 1.0], rtol=0, atol=0)

    def test_check_refuses_a_forced_optimal_on_a_zero_row(self, monkeypatch):
        # with a stationarity test too loose to see the gradient -1,
        # the loop ends OPTIMAL at mu = 0; the check finds the zero row
        # violated, and mu = 0 is no ray.  Iteration 2 reads the
        # gradient off the primal rows, and its tests pass again at the
        # same mu: the failed check stands
        monkeypatch.setattr(active_set, "_KKT_TOL", 10.0)
        rep = solve_dual(zero_row_dual(-1.0))
        self.assert_refused(rep, "inf")
        assert rep.outer_iters == 2 and rep.refine_calls == 0
        assert rep.final_shift == 1e-7

    @pytest.mark.parametrize("d, worst", [
        (1.0, 0.0), (0.0, 0.0), (-1e-300, np.inf)])
    def test_zero_length_inequality_holds_for_nonnegative_offsets(
            self, d, worst):
        qp = zero_row_dual(d)
        r = np.array([-1.0, -d])  # x = 0
        assert active_set._worst_row(qp, r) == worst

    @pytest.mark.parametrize("b, worst", [(0.0, 0.0), (1e-300, np.inf),
                                          (-1.0, np.inf)])
    def test_zero_length_equality_holds_for_a_zero_offset(self, b, worst):
        qp = build_dual(PrimalQP(P=None, identity_p=True, q=np.zeros(1),
                                 A=np.zeros((1, 1)), b=np.array([b]),
                                 C=np.array([[2.0]]),
                                 d=np.array([4.0])))[0]
        r = np.array([-b, -5.0])  # x = 0.5: row 1 short of its bound
        assert active_set._worst_row(qp, r) == worst


def row_violation(primal, x):
    # largest violation of a row of A or C, over the row's norm
    eq = np.abs(primal.A @ x - primal.b) / np.linalg.norm(primal.A, axis=1)
    slack = primal.C @ x - primal.d
    ineq = np.maximum(slack, 0.0) / np.linalg.norm(primal.C, axis=1)
    return max(np.max(eq, initial=0.0), np.max(ineq, initial=0.0))


def wide_row_scales_qp(seed):
    # feasible P = I problem, m > n, rows of norm 1 to 1e6; about 30%
    # of the rows are tight at the point x that generates d
    rng = np.random.default_rng([seed, 21])
    n = int(rng.integers(2, 6))
    m = int(rng.integers(n + 1, 2 * n + 3))
    C = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(0, 6, (m, 1))
    x = rng.standard_normal(n)
    gaps = rng.uniform(0, 1, m)
    gaps[rng.random(m) < 0.3] = 0.0
    q = rng.standard_normal(n) * 10.0 ** rng.uniform(0, 3)
    return PrimalQP(P=np.eye(n), q=q, C=C, d=C @ x + gaps)


def solve_row_feasible(primal, warm):
    # solve from the given start, check OPTIMAL and row feasibility;
    # returns x
    dual, pf = build_dual(primal)
    rep = solve_dual(dual, cfg=SolverConfig(smartstart=warm))
    assert rep.status is SolveStatus.OPTIMAL
    x = recover_primal(primal, pf, rep.mu_star).x
    assert row_violation(primal, x) <= 1e-6 * (1 + np.linalg.norm(x))
    return x


class TestWideRowScales:
    """Rows whose norms span six decades: build_dual scales them so
    that no diagonal entry of G exceeds 1."""

    def test_family_matches_the_oracle(self):
        for seed in range(100):
            primal = wide_row_scales_qp(seed)
            ref = enumerate_solve(primal).x
            for warm in (True, False):
                x = solve_row_feasible(primal, warm)
                assert np.max(np.abs(x - ref)) <= 1e-5 * np.max(np.abs(ref)), (
                    seed, warm)

    # The subspace-minimizer slacks scale with 1 + ||h||; on these
    # seeds a slack of 1e-8 hid a row violation of up to 1.2e-5.
    @pytest.mark.parametrize("seed, warm", [(114, True), (281, True),
                                            (281, False)],
                             ids=["114_warm", "281_warm", "281_cold"])
    def test_large_h_seed_is_row_feasible(self, seed, warm):
        solve_row_feasible(wide_row_scales_qp(seed), warm)


def all_rows_tight_qp(seed):
    # n = 3, cond(P) = 1e9, 7 rows all tight at one point x: feasible
    rng = np.random.default_rng([seed, 14])
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    P = Q @ np.diag([1.0, 10 ** 4.5, 1e9]) @ Q.T
    C = rng.standard_normal((7, 3))
    x = rng.standard_normal(3)
    q = rng.standard_normal(3)
    return PrimalQP(P=0.5 * (P + P.T), q=q, C=C, d=C @ x)


class TestInfeasibilityRay:
    """A ray of unbounded dual descent is checked on the primal rows
    before it is reported as infeasibility."""

    def test_report_carries_a_farkas_certificate(self):
        # x1 <= -1 and -x1 <= 0 cannot both hold
        C = np.array([[1.0, 0.0], [-1.0, 0.0]])
        d = np.array([-1.0, 0.0])
        dual, _ = build_dual(PrimalQP(P=np.eye(2), q=np.zeros(2), C=C, d=d))
        rep = solve_dual(dual)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        p = rep.ray
        assert np.all(p >= 0.0)
        assert np.max(np.abs(C.T @ p)) <= 1e-13
        assert d @ p < 0.0

    @pytest.mark.parametrize("seed, warm", [(10, False), (21, True)])
    def test_false_ray_is_a_numerical_failure(self, seed, warm):
        # rows c and -c with offsets -1 and 0 admit no point, and their
        # dual has a flat descending ray; the primal the dual carries
        # has the same rows with offsets 1 and 0, which admit x = 0, so
        # the ray is flat on its rows but [b; d]'p > 0
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(3)
        C, q = np.vstack([c, -c]), rng.standard_normal(3)
        dual, _ = build_dual(PrimalQP(P=np.eye(3), q=q, C=C,
                                      d=np.array([-1.0, 0.0])))
        feasible = PrimalQP(P=np.eye(3), q=q, C=C, d=np.array([1.0, 0.0]))
        false = dataclasses.replace(dual, primal=feasible)
        rep = solve_dual(false, cfg=SolverConfig(smartstart=warm))
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert "infeasibility ray failed the primal check" in rep.message
        assert "||M'p||_inf" in rep.message and "[b; d]'p" in rep.message

    def test_all_rows_tight_family_claims_no_infeasibility(self):
        # every problem of the family is feasible: each ends OPTIMAL,
        # feasible on the rows, from either start
        for seed in range(50):
            for warm in (True, False):
                solve_row_feasible(all_rows_tight_qp(seed), warm)


class TestBoundary:
    """The check left around the solve: the symmetry test that PrimalQP
    runs on P."""

    def test_symmetry_check_matches_allclose_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(0, 6))
            M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
            M = M + M.T
            if n:
                # asymmetry around the tolerance 1e-12 (1 + max |M|)
                atol = 1e-12 * (1.0 + np.max(np.abs(M)))
                i, j = rng.integers(0, n, 2)
                M[i, j] += atol * rng.choice([0.5, 0.999, 1.001, 2.0])
            scale = np.max(np.abs(M)) if M.size else 0.0
            expect = np.allclose(M, M.T, rtol=0.0,
                                 atol=1e-12 * (1.0 + scale))
            try:
                transform.check_symmetric("M", M)
                got = True
            except ValueError:
                got = False
            assert got == expect


class TestSolverConfig:

    def test_only_the_settings_callers_use_are_fields(self):
        # tolerances, the refinement budget and the shift policy are
        # module constants
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "max_outer_iters", "smartstart"]

    def test_a_built_config_cannot_change(self):
        # checked once, when built: no later assignment can undo that
        cfg = SolverConfig(max_outer_iters=5)
        for field, value in (("max_outer_iters", 0), ("smartstart", "off")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, value)
        assert (cfg.max_outer_iters, cfg.smartstart) == (5, True)

    # a cap must be an integer for range()
    @pytest.mark.parametrize("field, value, match", [
        ("max_outer_iters", 0, "max_outer_iters"),
        ("max_outer_iters", -3, "max_outer_iters"),
        ("max_outer_iters", 2.5, "max_outer_iters"),
        ("max_outer_iters", True, "max_outer_iters"),
        ("smartstart", "off", "smartstart"),
    ])
    def test_bad_value_raises_before_any_factorization(
            self, monkeypatch, field, value, match):
        def unreachable(*args):
            raise AssertionError("factorized under an invalid config")

        monkeypatch.setattr(active_set, "factorize", unreachable)
        qp = identity_dual(-np.ones(2))
        with pytest.raises(ValueError, match=match):
            solve_dual(qp, cfg=SolverConfig(**{field: value}))
