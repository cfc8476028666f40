import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dualqp import WorkingSet
from dualqp.kernel import factorize
from dualqp.refine import (RefinementError, _extract_direction, _norm,
                           refine_solve)


def diag_factor(diag, masked=(), epsilon=1e-7):
    G = np.diag(np.asarray(diag, dtype=float))
    W = WorkingSet(0, len(diag), masked)
    return G, factorize(G, W, epsilon)


class TestSolutionOutcomes:

    def test_well_conditioned_system(self):
        G, f = diag_factor([1.0, 2.0, 4.0])
        c = np.array([-1.0, 2.0, -8.0])
        out = refine_solve(f, c)
        assert out.is_solution
        assert_allclose(G @ out.p, -c, rtol=0, atol=1e-9)
        assert 1 <= out.iters <= 20
        assert np.linalg.norm(G @ out.p + c) <= 1e-11 * (1 + np.linalg.norm(c))

    def test_dense_random_system(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 20))
            M = rng.standard_normal((n, n))
            G = M @ M.T + 0.1 * np.eye(n)
            W = WorkingSet(0, n)
            f = factorize(G, W, 1e-7)
            c = rng.standard_normal(n)
            out = refine_solve(f, c)
            assert out.is_solution
            assert_allclose(G @ out.p, -c, rtol=0, atol=1e-7)

    def test_masked_coordinates_stay_pinned(self):
        G, f = diag_factor([1.0, 3.0, 2.0], masked=[1])
        c = np.array([-1.0, 0.0, -4.0])
        out = refine_solve(f, c)
        assert out.is_solution
        assert out.p[1] == 0.0
        assert_allclose(out.p[[0, 2]], [1.0, 2.0], rtol=0, atol=1e-9)

    def test_singular_consistent_rhs(self):
        # zero eigenvalue but the rhs has no component on the null space
        G, f = diag_factor([1.0, 0.0])
        c = np.array([-1.0, 0.0])
        out = refine_solve(f, c)
        assert out.is_solution
        assert np.linalg.norm(G @ out.p + c) <= 1e-10 * (1 + np.linalg.norm(c))

    def test_stalled_steps_end_at_attainable_accuracy(self):
        # eigenvalue 2e-7 near the shift: the solution 5e6 leaves a
        # residual at rounding level, above the residual test, until the
        # steps stop moving; that stall is the solution verdict
        G, f = diag_factor([2e-7, 1.0])
        c = np.array([-1.0, -1.0])
        out = refine_solve(f, c)
        assert out.is_solution
        assert np.linalg.norm(G @ out.p + c) > 1e-11 * (1 + np.linalg.norm(c))
        assert_allclose(out.p, [5e6, 1.0], rtol=1e-7, atol=0)


class TestDescentOutcomes:

    def test_singular_inconsistent_rhs(self):
        G, f = diag_factor([1.0, 0.0])
        c = np.array([-1.0, -1.0])
        out = refine_solve(f, c)
        assert not out.is_solution
        p = out.p
        assert float(c @ p) < 0.0
        assert np.linalg.norm(G @ p) <= 1e-6 * np.linalg.norm(p)

    def test_direction_matches_null_space(self):
        # null space is span(v); the extracted direction lands on it
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lam = np.array([2.0, 1.0, 0.5, 0.1, 0.0])
        G = (Q * lam) @ Q.T
        G = 0.5 * (G + G.T)
        v = Q[:, 4]
        c = -(G @ rng.standard_normal(5)) - 0.3 * v
        f = factorize(G, WorkingSet(0, 5), 1e-7)
        out = refine_solve(f, c)
        assert not out.is_solution
        p = out.p / np.linalg.norm(out.p)
        assert abs(abs(p @ v) - 1.0) <= 1e-6
        assert float(c @ p) < 0.0


class TestFailurePath:

    def test_budget_exhaustion_raises_with_iterate(self):
        # eigenvalue near the shift: the error contracts by 1/2.2 per
        # iteration, too slowly to classify within the budget of 20
        G, f = diag_factor([1.2e-7, 1.0])
        c = np.array([-1.0, -1.0])
        with pytest.raises(RefinementError,
                           match="no convergence within 20 iterations") \
                as info:
            refine_solve(f, c)
        err = info.value
        assert err.iters == 20
        x = err.iterate
        # the stranded iterate still slopes downhill, so it is salvageable
        assert float(c @ x) < 0.0

    def test_eigenvalue_at_shift_raises(self):
        G, f = diag_factor([1e-7, 1.0])
        c = np.array([-1.0, -1.0])
        with pytest.raises(RefinementError):
            refine_solve(f, c)


class TestConfig:

    def test_shift_comes_from_the_factor(self):
        # refinement takes no shift of its own: a factor sharpened by
        # shift escalation is used at the shift it carries
        G, f = diag_factor([1.0, 0.5], epsilon=1e-9)
        out = refine_solve(f, np.array([-1.0, -1.0]))
        assert out.is_solution


class TestExtractDirection:
    """_extract_direction on hand-built steps, one per branch."""

    def test_curved_step_fails_verification_and_keeps_the_step(self):
        # eigenvalue 5e-5 is above the curvature tolerance: the step
        # [1, 1] is not a null-space direction
        G, f = diag_factor([0.0, 5e-5], epsilon=1e-3)
        step, c_bar = np.array([1.0, 1.0]), np.array([-1.0, -1.0])
        with pytest.raises(RefinementError,
                           match="extracted direction failed verification") \
                as info:
            _extract_direction(f, c_bar, step, 7)
        err = info.value
        assert err.iters == 7
        assert_array_equal(err.iterate, step)
        # the curvature checked is the normalized step's
        curvature = float(re.search(r"curvature (\S+),", str(err)).group(1))
        assert curvature == pytest.approx(5e-5 / np.sqrt(2.0), rel=1e-5)

    # An uphill step is flipped; a downhill one is kept as it is.
    @pytest.mark.parametrize("step", [[1.0, 0.0], [-1.0, 0.0]],
                             ids=["uphill_step", "downhill_step"])
    def test_direction_is_oriented_downhill(self, step):
        G, f = diag_factor([0.0, 1.0])
        p = _extract_direction(f, np.array([1.0, -3.0]), np.array(step), 2)
        assert_allclose(p, [-1.0, 0.0], rtol=0, atol=1e-12)


class TestNorm:
    """_norm is np.linalg.norm on a real 1-D vector, bit for bit."""

    @pytest.mark.parametrize("v", [
        np.random.default_rng(11).standard_normal(257),
        np.zeros(5), -np.zeros(3), np.zeros(0), np.full(4, 5e-324),
        1e-160 * np.random.default_rng(12).standard_normal(9)],
        ids=["random", "zero", "negative_zero", "empty", "subnormal",
             "underflowing"])
    def test_matches_numpy(self, v):
        assert (np.float64(_norm(v)).tobytes()
                == np.linalg.norm(v).tobytes())

    def test_overflow_warns_as_numpy_does(self):
        v = np.full(3, 1e200)
        got = []
        for norm in (_norm, np.linalg.norm):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert norm(v) == np.inf
            got.append([(w.category, str(w.message)) for w in caught])
        assert got[0] == got[1] == [(RuntimeWarning,
                                     "overflow encountered in dot")]
