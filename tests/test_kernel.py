import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg.blas import daxpy, drot, dscal
from scipy.linalg.lapack import dpotrf

import dualqp.kernel as kernel
from dualqp import WorkingSet
from dualqp.kernel import (CholeskyDowndateError, MaskedFactor, add_index,
                           build_masked, factorize,
                           lambda_from_direction, mask_vector,
                           matvec_masked, remove_index, solve_with_factor)


def random_psd(rng, n, rank=None):
    M = rng.standard_normal((n, rank or n))
    return M @ M.T


def rank1_update_loop(L, v):
    # Reference: the numpy loop the BLAS Givens update replaced.
    n = L.shape[0]
    for k in range(n):
        lkk = L[k, k]
        vk = v[k]
        r = np.hypot(lkk, vk)
        c = r / lkk
        s = vk / lkk
        L[k, k] = r
        if k + 1 < n:
            col = L[k + 1:, k]
            col += s * v[k + 1:]
            col /= c
            v[k + 1:] = c * v[k + 1:] - s * col


def rank1_downdate_loop(L, v, pivot_floor):
    # Reference: the numpy loop the BLAS downdate replaced.
    n = L.shape[0]
    floor2 = pivot_floor * pivot_floor
    for k in range(n):
        lkk = L[k, k]
        vk = v[k]
        r2 = (lkk - vk) * (lkk + vk)
        if not r2 > floor2:
            raise CholeskyDowndateError(
                f"downdate pivot {r2:.3e} at position {k} fell below "
                f"{floor2:.3e}; refactorize")
        r = np.sqrt(r2)
        c = r / lkk
        s = vk / lkk
        L[k, k] = r
        if k + 1 < n:
            col = L[k + 1:, k]
            col -= s * v[k + 1:]
            col /= c
            v[k + 1:] = c * v[k + 1:] - s * col


def rank1_update_views(L, v):
    # Reference: the BLAS sweep on slice views, with keyword arguments,
    # that the offset-addressed sweep replaced; L is the trailing block.
    n = L.shape[0]
    for k in range(n):
        lkk = L.item(k, k)
        vk = v.item(k)
        r = math.hypot(lkk, vk)
        L[k, k] = r
        if k + 1 < n:
            drot(L[k + 1:, k], v[k + 1:], lkk / r, vk / r,
                 overwrite_x=1, overwrite_y=1)


def rank1_downdate_views(L, v, pivot_floor):
    # Reference: the BLAS downdate on slice views that the
    # offset-addressed sweep replaced; L is the trailing block.
    n = L.shape[0]
    floor2 = pivot_floor * pivot_floor
    for k in range(n):
        lkk = L.item(k, k)
        vk = v.item(k)
        r2 = (lkk - vk) * (lkk + vk)
        if not r2 > floor2:
            raise CholeskyDowndateError(
                f"downdate pivot {r2:.3e} at position {k} fell below "
                f"{floor2:.3e}; refactorize")
        r = math.sqrt(r2)
        s = vk / lkk
        L[k, k] = r
        if k + 1 < n:
            col = L[k + 1:, k]
            rest = v[k + 1:]
            daxpy(rest, col, a=-s)
            dscal(lkk / r, col)
            dscal(r / lkk, rest)
            daxpy(col, rest, a=-s)


def rel_diff(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


class TestWorkingSet:

    def test_basic_membership(self):
        W = WorkingSet(2, 4, [3, 5])
        assert 3 in W and 5 in W
        assert 2 not in W and 4 not in W
        assert_array_equal(W.indices, [3, 5])
        assert W.m == 6

    def test_rejects_equality_block(self):
        with pytest.raises(ValueError):
            WorkingSet(2, 4, [1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WorkingSet(2, 4, [6])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            WorkingSet(0, 4, [2, 2])

    def test_list_and_array_inputs_agree(self):
        pins = [7, 3, 5]
        for given in (pins, np.array(pins), np.array(pins, dtype=np.int32),
                      tuple(pins)):
            assert_array_equal(WorkingSet(2, 8, given).indices, [3, 5, 7])
        assert WorkingSet(2, 8, np.array([], dtype=int)).indices.size == 0

    @pytest.mark.parametrize("pins, message", [
        ([3, 1, 9], "index 1 outside"),
        (np.array([3, 10]), "index 10 outside"),
        ([-1], "index -1 outside"),
        ([4, 6, 4], "index 4 already"),
        (np.array([5, 2, 5, 2]), "index [25] already"),
    ])
    def test_error_names_the_bad_index(self, pins, message):
        with pytest.raises(ValueError, match=message):
            WorkingSet(2, 8, pins)

    @pytest.mark.parametrize("pins", [[1.7], [True], ["1"], [1.0]])
    def test_rejects_non_integer_indices(self, pins):
        # a cast to int would turn each of these into index 1
        with pytest.raises(ValueError, match="integers"):
            WorkingSet(0, 3, pins)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="m_in must be an integer"):
            WorkingSet(0, 2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            WorkingSet(-1, 3)

    @pytest.mark.parametrize("i", [1.5, 1.0, True, np.True_, "1"])
    def test_add_and_remove_reject_non_integer_index(self, i):
        with pytest.raises(ValueError, match="index must be an integer"):
            WorkingSet(0, 3).add(i)
        with pytest.raises(ValueError, match="index must be an integer"):
            WorkingSet(0, 3, [1]).remove(i)
        with pytest.raises(ValueError, match="index must be an integer"):
            i in WorkingSet(0, 3, [1])
        assert_array_equal(WorkingSet(0, 3).add(np.int64(1)).indices, [1])

    def test_add_remove_are_persistent(self):
        W = WorkingSet(0, 3, [0])
        W2 = W.add(2)
        assert 2 in W2 and 2 not in W
        W3 = W2.remove(0)
        assert 0 in W2 and 0 not in W3
        with pytest.raises(ValueError):
            W.add(0)
        with pytest.raises(ValueError):
            W.remove(1)

    def test_equality(self):
        # a set is its mask: the order the pins were given in is lost
        a = WorkingSet(1, 3, [2, 3])
        b = WorkingSet(1, 3, [3, 2])
        assert_array_equal(a.member, b.member)
        assert_array_equal(a.member, [False, False, True, True])
        assert_array_equal(a.indices, [2, 3])

    def test_member_is_read_only(self):
        # member is the set's own mask, not a copy, so it must refuse
        # writes; add/remove hand out masks that refuse them too
        W = WorkingSet(0, 3, [1])
        for mask in (W.member, W.add(0).member, W.remove(1).member):
            with pytest.raises(ValueError, match="read-only"):
                mask[2] = True
        assert W.member is W.member
        assert_array_equal(W.indices, [1])


class TestMasking:

    def test_build_masked_layout(self):
        G = np.arange(16, dtype=float).reshape(4, 4)
        G = 0.5 * (G + G.T)
        W = WorkingSet(0, 4, [1, 3])
        M = build_masked(G, W)
        # pinned rows/cols are unit vectors
        assert_array_equal(M[1], [0, 1, 0, 0])
        assert_array_equal(M[:, 3], [0, 0, 0, 1])
        # the free block is untouched
        assert M[0, 0] == G[0, 0] and M[2, 0] == G[2, 0]

    def test_mask_vector(self):
        W = WorkingSet(0, 3, [1])
        assert_array_equal(mask_vector(np.array([1.0, 2.0, 3.0]), W),
                           [1.0, 0.0, 3.0])

    def test_member_forms_match_the_index_forms(self):
        # bit for bit, with -0.0 at free (0, 2) and pinned (1, 4) entries
        W = WorkingSet(1, 5, [1, 3, 4])
        idx = W.indices
        c = np.array([-0.0, -0.0, -0.0, -1.5, -0.0, 2.0])
        masked = c.copy()
        masked[idx] = 0.0
        assert mask_vector(c, W).tobytes() == masked.tobytes()
        assert lambda_from_direction(c, W).tobytes() == c[idx].tobytes()
        G = random_psd(np.random.default_rng(7), 6)
        y = G @ masked
        y[idx] = c[idx]
        assert matvec_masked(G, W, c).tobytes() == y.tobytes()

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        G = random_psd(rng, 6)
        W = WorkingSet(0, 6, [0, 4])
        x = rng.standard_normal(6)
        assert_allclose(matvec_masked(G, W, x), build_masked(G, W) @ x,
                        rtol=0, atol=1e-12)

    def test_masking_preserves_positive_definiteness(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = rng.integers(2, 9)
            G = random_psd(rng, n) + np.eye(n)
            k = rng.integers(0, n + 1)
            idx = rng.choice(n, size=k, replace=False)
            M = build_masked(G, WorkingSet(0, n, idx))
            assert np.linalg.eigvalsh(M).min() > 0


class TestFactorize:

    def test_matches_dense_cholesky(self):
        rng = np.random.default_rng(2)
        G = random_psd(rng, 5)
        W = WorkingSet(0, 5, [2])
        f = factorize(G, W, 1e-8)
        M = build_masked(G, W) + 1e-8 * np.eye(5)
        assert_allclose(f.factor, np.linalg.cholesky(M), rtol=0, atol=1e-12)

    def test_solve_with_factor(self):
        rng = np.random.default_rng(3)
        G = random_psd(rng, 7)
        W = WorkingSet(0, 7, [1, 6])
        f = factorize(G, W, 1e-9)
        rhs = rng.standard_normal(7)
        x = solve_with_factor(f, rhs)
        M = build_masked(G, W) + 1e-9 * np.eye(7)
        assert_allclose(M @ x, rhs, rtol=0, atol=1e-8)

    def test_zero_dimension(self):
        f = factorize(np.zeros((0, 0)), WorkingSet(0, 0), 1e-8)
        assert solve_with_factor(f, np.zeros(0)).shape == (0,)

    def test_indefinite_matrix_raises(self):
        # the message names the leading minor in G's own order
        G = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"leading minor 2\)"):
            factorize(G, WorkingSet(0, 2), 1e-10)
        # index 0 pinned: potrf fails at the free block's second pivot,
        # G's third, whether it factors the free block (a third pinned)
        # or the whole masked copy (a fifth pinned)
        for m in (3, 5):
            G = np.eye(m)
            G[0, 1:3] = G[1:3, 0] = 0.5
            G[1, 2] = G[2, 1] = 2.0
            with pytest.raises(np.linalg.LinAlgError,
                               match=r"leading minor 3\)"):
                factorize(G, WorkingSet(0, m, [0]), 1e-10)


def random_masks(rng, m):
    # nothing pinned, everything pinned, and random sets between
    yield WorkingSet(0, m)
    yield WorkingSet(0, m, np.arange(m))
    for _ in range(4):
        yield WorkingSet(0, m, rng.choice(m, size=rng.integers(0, m + 1),
                                          replace=False))


class TestFreeBlockFactor:
    """factorize runs potrf on the free block alone and scatters it:
    the factor is that of the whole masked matrix, in natural order."""

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40])
    def test_matches_potrf_of_the_masked_matrix(self, m):
        rng = np.random.default_rng(m)
        G = random_psd(rng, m) / max(m, 1) + np.eye(m)
        eps = 1e-7
        for W in random_masks(rng, m):
            L = factorize(G, W, eps).factor
            ref, info = dpotrf(build_masked(G, W) + eps * np.eye(m),
                               lower=1, clean=1)
            assert info == 0 and L.shape == (m, m)
            if m:
                assert rel_diff(L, ref) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_pinned_rows_and_columns_are_unit(self, m):
        rng = np.random.default_rng(10 + m)
        G = random_psd(rng, m)
        eps = 1e-7
        for W in random_masks(rng, m):
            L = factorize(G, W, eps).factor
            assert L.flags.f_contiguous
            pinned = W.indices
            assert_array_equal(L[pinned, pinned], math.sqrt(1.0 + eps))
            off = L.copy()
            off[pinned, pinned] = 0.0
            assert not off[pinned, :].any() and not off[:, pinned].any()

    def test_few_pins_cost_no_more_than_none(self):
        # with fewer than a quarter masked, factorize masks a copy of G
        # whole: the free block's gather and scatter would cost more
        # than its smaller potrf saves (about 1.8 times the time with
        # one pin here).  Paired median over alternated calls.
        rng = np.random.default_rng(3)
        m = 400
        G = random_psd(rng, m) / m + np.eye(m)
        none, one = WorkingSet(0, m), WorkingSet(0, m, [m // 2])
        ratios = []
        for _ in range(15):
            t0 = time.perf_counter()
            factorize(G, none, 1e-7)
            t1 = time.perf_counter()
            factorize(G, one, 1e-7)
            ratios.append((time.perf_counter() - t1) / (t1 - t0))
        assert np.median(ratios) < 1.3


class TestRankOneUpdates:

    def test_add_then_remove_round_trips(self):
        rng = np.random.default_rng(4)
        G = random_psd(rng, 6) + 0.5 * np.eye(6)
        f = factorize(G, WorkingSet(0, 6, [1]), 1e-8)
        L0 = f.factor.copy()
        add_index(f, 3)
        remove_index(f, 3)
        assert_allclose(f.factor, L0, rtol=0, atol=1e-9)
        assert_array_equal(f.mask.indices, [1])

    def test_update_tracks_fresh_factorization(self):
        # long random add/remove walks stay glued to from-scratch
        # factors, from a factor of the whole matrix and from factors
        # built on the free block of a pinned set
        rng = np.random.default_rng(5)
        n = 12
        G = random_psd(rng, n) + np.eye(n)
        for W in random_masks(rng, n):
            f = factorize(G, W, 1e-8)
            for step in range(60):
                inside = f.mask.indices
                if len(inside) and rng.random() < 0.5:
                    i = int(rng.choice(inside))
                    remove_index(f, i)
                elif len(inside) < n:
                    outside = np.setdiff1d(np.arange(n), inside)
                    i = int(rng.choice(outside))
                    add_index(f, i)
                fresh = factorize(G, f.mask, 1e-8)
                err = np.linalg.norm(f.factor - fresh.factor, "fro")
                ref = np.linalg.norm(fresh.factor, "fro")
                assert err <= 1e-9 * ref

    def test_add_rejects_masked_remove_rejects_unmasked(self):
        G = np.eye(4)
        f = factorize(G, WorkingSet(0, 4, [2]), 1e-8)
        with pytest.raises(ValueError):
            add_index(f, 2)
        with pytest.raises(ValueError):
            remove_index(f, 0)

    def test_downdate_failure_raises(self):
        # unmasking index 1 exposes an indefinite 2x2 block
        G = np.array([[1.0, 2.0], [2.0, 1.0]])
        f = factorize(G, WorkingSet(0, 2, [1]), 1e-10)
        with pytest.raises(CholeskyDowndateError):
            remove_index(f, 1)
        assert_array_equal(f.mask.indices, [1])


class TestRecordsWithoutAFactor:
    """With factor None, add_index and remove_index edit the mask alone,
    and check the index as they do with a factor."""

    @staticmethod
    def record(pins):
        return MaskedFactor(np.eye(4), WorkingSet(1, 3, pins), 1e-7,
                            factor=None)

    def test_add_grows_the_mask_alone(self):
        f = self.record([2])
        add_index(f, 3)
        assert_array_equal(f.mask.indices, [2, 3])
        assert f.factor is None and f.epsilon == 1e-7

    def test_remove_shrinks_the_mask_alone(self):
        f = self.record([2, 3])
        remove_index(f, 2)
        assert_array_equal(f.mask.indices, [3])
        assert f.factor is None and f.epsilon == 1e-7

    @pytest.mark.parametrize("i", [0, 2, 4])  # equality, pinned, outside
    def test_add_rejects_a_bad_index(self, i):
        f = self.record([2])
        with pytest.raises(ValueError):
            add_index(f, i)
        assert_array_equal(f.mask.indices, [2])

    @pytest.mark.parametrize("i", [0, 1, 4])  # equality, free, outside
    def test_remove_rejects_a_bad_index(self, i):
        f = self.record([2])
        with pytest.raises(ValueError):
            remove_index(f, i)
        assert_array_equal(f.mask.indices, [2])

    def test_add_pins_an_index_array_alone(self):
        f = self.record([2])
        add_index(f, np.array([3, 1]))
        assert_array_equal(f.mask.indices, [1, 2, 3])
        assert f.factor is None and f.epsilon == 1e-7
        add_index(f, np.array([], dtype=np.intp))
        assert_array_equal(f.mask.indices, [1, 2, 3])

    def test_an_index_array_needs_a_record_with_no_factor(self):
        f = factorize(np.eye(4), WorkingSet(1, 3, [2]), 1e-7)
        L = f.factor.copy()
        with pytest.raises(ValueError, match="must be an integer"):
            add_index(f, np.array([3]))
        assert_array_equal(f.mask.indices, [2])
        assert_array_equal(f.factor, L)

    @pytest.mark.parametrize("idx, message", [
        ([3, 0], "index 0 outside"),         # equality
        ([1, 4, 0], "index 4 outside"),      # past the end
        ([-1], "index -1 outside"),
        ([3, 2], "index 2 already"),         # pinned
        ([3, 1, 3, 1], "index 3 already"),   # listed twice
    ])
    def test_an_index_array_rejects_a_bad_index(self, idx, message):
        f = self.record([2])
        with pytest.raises(ValueError, match=message):
            add_index(f, np.array(idx, dtype=np.intp))
        assert_array_equal(f.mask.indices, [2])
        assert f.factor is None


class TestBlasKernels:
    """The BLAS rank-1 kernels against the numpy loops they replaced."""

    @staticmethod
    def factor(rng, n):
        G = random_psd(rng, n) + n * np.eye(n)
        return factorize(G, WorkingSet(0, n), 1e-8).factor

    @pytest.mark.parametrize("n", [1, 2, 60, 500])
    def test_update_matches_loop(self, n):
        rng = np.random.default_rng(n)
        L = self.factor(rng, n)
        v = rng.standard_normal(n)
        for j in sorted({0, n // 3 + 1} - {n}):
            got = L.copy(order="F")
            want = got.copy()
            kernel._rank1_update(got, v[j:].copy(), j)
            rank1_update_loop(want[j:, j:], v[j:].copy())
            assert rel_diff(got, want) <= 1e-13
            assert_array_equal(got[:, :j], L[:, :j])

    @pytest.mark.parametrize("n", [1, 2, 60, 500])
    def test_downdate_matches_loop(self, n):
        rng = np.random.default_rng(100 + n)
        L = self.factor(rng, n)
        for j in sorted({0, n // 3 + 1} - {n}):
            # v = L w with |w| = 1/2 keeps L L' - v v' positive definite
            w = rng.standard_normal(n - j)
            v = L[j:, j:] @ (0.5 * w / np.linalg.norm(w))
            got = L.copy(order="F")
            want = got.copy()
            kernel._rank1_downdate(got, v.copy(), j, 1e-12)
            rank1_downdate_loop(want[j:, j:], v.copy(), 1e-12)
            assert rel_diff(got, want) <= 1e-13
            assert_array_equal(got[:, :j], L[:, :j])

    @pytest.mark.parametrize("n", [1, 2, 60, 500])
    def test_sweeps_match_the_view_sweeps_bit_for_bit(self, n):
        # the same BLAS calls on the same scalars: L and the consumed v
        # agree in every bit with the sweeps on slice views
        rng = np.random.default_rng(200 + n)
        L = self.factor(rng, n)
        for j in sorted({0, n // 3, n - 1, n}):
            w = rng.standard_normal(n - j)
            # |u| < 1/2 keeps L L' - v v' positive definite, v = L u
            u = 0.5 * w / (1.0 + np.linalg.norm(w))
            for v, sweep, reference in (
                    (w, kernel._rank1_update, rank1_update_views),
                    (L[j:, j:] @ u,
                     lambda L, v, j: kernel._rank1_downdate(L, v, j, 1e-12),
                     lambda L, v: rank1_downdate_views(L, v, 1e-12))):
                got, want = L.copy(order="F"), L.copy(order="F")
                v_got, v_want = v.copy(), v.copy()
                sweep(got, v_got, j)
                reference(want[j:, j:], v_want)
                assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                assert_array_equal(v_got.view(np.uint64),
                                   v_want.view(np.uint64))

    def test_factor_stays_fortran_ordered(self):
        rng = np.random.default_rng(8)
        G = random_psd(rng, 10) + np.eye(10)
        f = factorize(G, WorkingSet(0, 10, [4]), 1e-8)
        assert f.factor.flags.f_contiguous
        add_index(f, 7)
        assert f.factor.flags.f_contiguous
        remove_index(f, 4)
        assert f.factor.flags.f_contiguous

    def test_c_ordered_factor_raises(self):
        # the sweeps address the flat column-major factor by offset; a
        # C-ordered one would be raveled to a copy and left unchanged
        rng = np.random.default_rng(9)
        G = random_psd(rng, 6) + np.eye(6)
        f = factorize(G, WorkingSet(0, 6, [4]), 1e-8)
        f.factor = np.ascontiguousarray(f.factor)
        before = f.factor.copy()
        with pytest.raises(ValueError, match="Fortran-ordered"):
            add_index(f, 1)
        with pytest.raises(ValueError, match="Fortran-ordered"):
            remove_index(f, 4)
        # both raise before they write
        assert_array_equal(f.factor, before)
        assert_array_equal(f.mask.indices, [4])

    def test_pivot_floor_inside_downdate(self):
        # Unmasking index 0 passes the diagonal check in remove_index
        # (it has no free predecessors), but its coupling to index 3
        # makes the free block indefinite: the trailing downdate pivot
        # collapses at position 2 of the block L[1:, 1:].
        G = np.eye(4)
        G[0, 3] = G[3, 0] = 2.0

        def message(downdate):
            f = factorize(G, WorkingSet(0, 4, [0]), 1e-10)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel, "_rank1_downdate", downdate)
                with pytest.raises(CholeskyDowndateError) as err:
                    remove_index(f, 0)
            return str(err.value)

        got = message(kernel._rank1_downdate)
        assert "at position 2 " in got
        assert got == message(lambda L, v, j, floor: rank1_downdate_loop(
            L[j:, j:], v, floor))


def test_lambda_from_direction():
    rng = np.random.default_rng(6)
    W = WorkingSet(0, 5, [0, 3])
    c = rng.standard_normal(5)
    # at the subproblem's minimizer the step is zero: c on the set
    assert_array_equal(lambda_from_direction(c, W), c[[0, 3]])
    assert lambda_from_direction(c, WorkingSet(0, 5)).shape == (0,)
