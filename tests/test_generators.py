import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualqp import (InvalidProblemError, MpcSpec, PolytopeSpec, SolverConfig,
                    SolveStatus, afti16_spec, build_dual, build_mpc,
                    build_polytope, solve)
from dualqp.generators import prediction_matrices


def scalar_spec(a=2.0, b=1.0, horizon=3, x0=1.0, bound=100.0):
    return MpcSpec(a_dyn=[[a]], b_dyn=[[b]], horizon=horizon,
                   q_weight=[[1.0]], r_weight=[[1.0]], x0=[x0],
                   state_bound=bound)


class TestPredictionMatrices:

    def test_scalar_chain(self):
        Phi, Gamma = prediction_matrices(scalar_spec())
        assert_allclose(Phi, [[2.0], [4.0], [8.0]], rtol=0, atol=0)
        assert_allclose(Gamma, [[1.0, 0.0, 0.0],
                                [2.0, 1.0, 0.0],
                                [4.0, 2.0, 1.0]], rtol=0, atol=0)

    def test_rollout_agrees(self):
        # stacked prediction equals a step-by-step simulation
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3)) * 0.5
        B = rng.standard_normal((3, 2))
        spec = MpcSpec(a_dyn=A, b_dyn=B, horizon=4, q_weight=np.eye(3),
                       r_weight=np.eye(2), x0=rng.standard_normal(3),
                       state_bound=1.0)
        Phi, Gamma = prediction_matrices(spec)
        u = rng.standard_normal(8)
        xs = []
        x = spec.x0.copy()
        for k in range(4):
            x = A @ x + B @ u[2 * k:2 * k + 2]
            xs.append(x.copy())
        assert_allclose(Phi @ spec.x0 + Gamma @ u, np.concatenate(xs),
                        rtol=0, atol=1e-12)


class TestMpcSpec:
    """MpcSpec owns the checks on the MPC description."""

    @pytest.mark.parametrize("change, message", [
        ({"a_dyn": [[1.0, 0.0]]}, "a_dyn must be square"),
        ({"b_dyn": [[1.0], [1.0]]}, "b_dyn must have one row per state"),
        ({"horizon": 0}, "horizon must be at least 1"),
        ({"horizon": True}, "horizon must be an integer"),
        ({"horizon": 2.5}, "horizon must be an integer"),
        ({"horizon": np.float64(3.0)}, "horizon must be an integer"),
        ({"r_weight": np.eye(2)}, "weight shapes must match the dynamics"),
        ({"q_weight": [[-1.0]]}, "q_weight must be positive semidefinite"),
        ({"r_weight": [[np.inf]]}, "r_weight must be finite"),
        ({"q_weight": [[np.nan]]}, "q_weight must be finite"),
        ({"x0": [1.0, 2.0]}, "x0 must have length 1"),
        ({"state_bound": 0.0}, "state_bound must be positive"),
    ], ids=["a_dyn", "b_dyn", "horizon", "bool_horizon", "float_horizon",
            "numpy_float_horizon", "weight_shape", "indefinite_weight",
            "infinite_weight", "nan_weight", "x0_length", "state_bound"])
    def test_rejects_invalid_description(self, change, message):
        fields = dict(a_dyn=[[2.0]], b_dyn=[[1.0]], horizon=3,
                      q_weight=[[1.0]], r_weight=[[1.0]], x0=[1.0],
                      state_bound=1.0)
        fields.update(change)
        with pytest.raises(ValueError, match=message):
            MpcSpec(**fields)

    def test_afti16_rejects_short_x0(self):
        with pytest.raises(ValueError, match="x0 must have length 4"):
            afti16_spec(horizon=4, x0=[0.1, 0.0])

    def test_afti16_rejects_a_fractional_horizon(self):
        # no silent truncation to 2
        with pytest.raises(ValueError, match="horizon must be an integer"):
            afti16_spec(horizon=2.5)

    def test_asymmetric_weight(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="q_weight must be symmetric"):
            MpcSpec(a_dyn=np.eye(2), b_dyn=np.ones((2, 1)), horizon=2,
                    q_weight=q, r_weight=[[1.0]], x0=np.zeros(2),
                    state_bound=1.0)

    def test_weight_asymmetric_above_rounding(self):
        # 4e-6 of asymmetry: within allclose's default rtol, far above
        # the rounding check_symmetric allows
        q = np.array([[1.0, 0.5], [0.500004, 1.0]])
        with pytest.raises(ValueError, match="q_weight must be symmetric"):
            MpcSpec(a_dyn=np.eye(2), b_dyn=np.ones((2, 1)), horizon=2,
                    q_weight=q, r_weight=[[1.0]], x0=np.zeros(2),
                    state_bound=1.0)


class TestBuildMpc:

    def test_scalar_hand_assembly(self):
        spec = scalar_spec()
        primal = build_mpc(spec)
        Phi, Gamma = prediction_matrices(spec)
        F = Gamma.T @ Gamma + np.eye(3)
        assert_allclose(primal.P, 2.0 * F, rtol=0, atol=1e-12)
        assert_allclose(primal.q, 2.0 * Gamma.T @ Phi @ spec.x0,
                        rtol=0, atol=1e-12)
        assert_allclose(primal.C, np.vstack([Gamma, -Gamma]), rtol=0, atol=0)
        assert_allclose(primal.d,
                        np.concatenate([100.0 - Phi @ spec.x0,
                                        100.0 + Phi @ spec.x0]),
                        rtol=0, atol=1e-12)
        assert primal.m_eq == 0

    def test_loose_bound_matches_unconstrained(self):
        spec = scalar_spec(bound=1e6)
        primal = build_mpc(spec)
        sol, rep = solve(primal)
        want = np.linalg.solve(primal.P, -primal.q)
        assert_allclose(sol.x, want, rtol=0, atol=1e-8)

    def test_afti16_dimensions(self):
        spec = afti16_spec()
        assert spec.nx == 4 and spec.nu == 2 and spec.horizon == 30
        assert spec.state_bound == pytest.approx(0.2)
        assert_allclose(spec.x0, [0.5, 0.0, 0.0, 0.0], rtol=0, atol=0)
        primal = build_mpc(spec)
        assert primal.n == 60
        assert primal.m_in == 240
        assert np.linalg.eigvalsh(primal.P).min() > 0

    def test_afti16_default_is_nontrivial(self):
        # the default initial state forces bound activity: solving with
        # bounds differs from the unconstrained minimizer
        primal = build_mpc(afti16_spec())
        unconstrained = np.linalg.solve(primal.P, -primal.q)
        assert np.max(primal.C @ unconstrained - primal.d) > 1e-3
        sol, rep = solve(primal)
        assert np.max(primal.C @ sol.x - primal.d) <= 1e-7

    def test_custom_x0(self):
        spec = afti16_spec(horizon=5, x0=[0.1, 0.0, 0.0, 0.0])
        assert_allclose(spec.x0, [0.1, 0.0, 0.0, 0.0], rtol=0, atol=0)
        assert build_mpc(spec).n == 10

    def test_infeasible_x0_is_detected(self):
        # no input sequence keeps the predicted states within the
        # bounds from this initial state
        primal = build_mpc(afti16_spec(horizon=4, x0=[0, 0.3, 0, 0]))
        _, rep = solve(primal)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        assert rep.ray is not None

    def test_infeasible_x0_ray_passes_the_primal_check(self):
        # infeasible too; from the smartstart set the solver's ray reads
        # ||C'p||_inf of about 6e-12 ||C||_inf ||p||_inf, so the primal
        # check must leave room above that for a real certificate
        primal = build_mpc(afti16_spec(horizon=3, x0=[-1.25, -1.36, 1.33,
                                                      1.86]))
        _, rep = solve(primal)
        assert rep.status is SolveStatus.PRIMAL_INFEASIBLE
        p = rep.ray
        C, d = primal.C, primal.d
        assert np.all(p >= 0.0) and d @ p < 0.0
        assert np.max(np.abs(C.T @ p)) <= (
            1e-10 * np.linalg.norm(C, np.inf) * np.max(np.abs(p)))

    @pytest.mark.xfail(strict=True, reason="ends OPTIMAL at ||mu||_inf of "
                       "1.4e19 with a row violated by 6.4e4: the rounding "
                       "term of the stationarity test admits any gradient "
                       "there; a KKT check on the primal data (ROADMAP "
                       "item 1(b)) is what refuses it")
    def test_infeasible_x0_is_not_optimal_from_a_cold_start(self):
        # the same infeasible problem: it must end with a status other
        # than OPTIMAL
        primal = build_mpc(afti16_spec(horizon=3, x0=[-1.25, -1.36, 1.33,
                                                      1.86]))
        _, rep = solve(primal, SolverConfig(smartstart=False))
        assert rep.status is not SolveStatus.OPTIMAL

    def test_singular_condensed_hessian_is_rejected(self):
        # no input moves the state and inputs cost nothing: F = 0
        spec = MpcSpec(a_dyn=[[1.0]], b_dyn=[[0.0]], horizon=2,
                       q_weight=[[1.0]], r_weight=[[0.0]], x0=[1.0],
                       state_bound=1.0)
        primal = build_mpc(spec)  # P is checked once, by build_dual
        with pytest.raises(InvalidProblemError, match="not positive definite"):
            build_dual(primal)

    def test_singular_dual_quadratic(self):
        # twice as many constraint rows as inputs: G cannot be full rank
        primal = build_mpc(afti16_spec(horizon=4))
        dual, _ = build_dual(primal)
        assert np.linalg.matrix_rank(dual.G) <= primal.n


class TestBuildPolytope:

    def test_structure(self):
        spec = PolytopeSpec(n=50, m=10, seed=3)
        primal = build_polytope(spec)
        assert primal.identity_p and primal.P is None
        assert primal.m_eq == 0 and primal.m_in == 10
        assert_allclose(np.linalg.norm(primal.C, axis=1), 1.0,
                        rtol=0, atol=1e-12)
        # origin strictly feasible
        assert np.min(primal.d) > 0

    def test_violated_fraction_near_target(self):
        primal = build_polytope(PolytopeSpec(n=200, m=40, seed=5))
        c = -primal.q
        frac = np.mean(primal.C @ c > primal.d)
        assert 0.3 * 40 <= frac * 40 <= 0.7 * 40

    def test_reproducible(self):
        a = build_polytope(PolytopeSpec(n=30, m=5, seed=9))
        b = build_polytope(PolytopeSpec(n=30, m=5, seed=9))
        assert np.array_equal(a.C, b.C) and np.array_equal(a.d, b.d)
        assert np.array_equal(a.q, b.q)

    def test_requires_m_below_n(self):
        with pytest.raises(ValueError):
            PolytopeSpec(n=10, m=10, seed=0)
        with pytest.raises(ValueError, match="n and m must be positive"):
            PolytopeSpec(n=10, m=0, seed=0)

    @pytest.mark.parametrize("fields, name", [
        ({"n": 1000.5, "m": 5}, "n"),
        ({"n": 10, "m": 5.0}, "m"),
        ({"n": 10, "m": True}, "m"),
        ({"n": 10, "m": 5, "seed": 1.5}, "seed"),
    ])
    def test_rejects_non_integer_sizes_and_seed(self, fields, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PolytopeSpec(**fields)

    def test_numpy_integers_are_accepted(self):
        spec = PolytopeSpec(n=np.int64(30), m=np.int32(5), seed=np.int64(9))
        assert (spec.n, spec.m, spec.seed) == (30, 5, 9)
        assert type(spec.n) is int

    def test_projection_is_closer_than_any_feasible_sample(self):
        primal = build_polytope(PolytopeSpec(n=20, m=4, seed=13))
        c = -primal.q
        sol, rep = solve(primal)
        # feasibility of the projection
        assert np.max(primal.C @ sol.x - primal.d) <= 1e-9
        # optimality against random feasible points (origin-anchored)
        rng = np.random.default_rng(14)
        dist = np.linalg.norm(sol.x - c)
        for _ in range(50):
            y = rng.standard_normal(20)
            lam = np.min(primal.d / np.maximum(primal.C @ y, 1e-12))
            y = 0.9 * min(lam, 1.0) * y
            assert np.max(primal.C @ y - primal.d) <= 0
            assert np.linalg.norm(y - c) >= dist - 1e-9
