import warnings

import numpy as np
import pytest

from canalmpc import numerics
from canalmpc.canal import build_chain, build_coalition_model
from canalmpc.control import ControllerConfig, weight_matrices
from canalmpc.numerics import (
    QpProblem,
    RiccatiConvergenceError,
    SingularMatrixError,
    dare_residual,
    lqr_gain,
    lyapunov_residual,
    solve_dare,
    solve_linear,
    solve_qp,
)
from canalmpc.supervisor import CERT_RTOL

from oracles import brute_force_qp, qr_solve, scipy_dare

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_random_well_conditioned_vs_qr(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
            b = rng.normal(size=6)
            x = solve_linear(A, b)
            resid = np.linalg.norm(A @ x - b, np.inf)
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(b, np.inf))
            assert np.allclose(x, qr_solve(A, b), atol=1e-9)

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(A, np.ones(2))

    def test_near_singular_pivot_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(SingularMatrixError):
            solve_linear(A, np.ones(2))

    def test_matrix_rhs(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        B = np.eye(2)
        X = solve_linear(A, B)
        assert np.allclose(A @ X, B)


class TestSolveDare:
    def test_scalar_golden_ratio(self):
        P = solve_dare(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        assert abs(P[0, 0] - GOLDEN) < 1e-10

    def test_zero_dynamics_returns_q(self):
        Q = np.diag([1.0, 3.0])
        P = solve_dare(np.zeros((2, 2)), np.ones((2, 1)), Q, np.eye(1))
        assert np.allclose(P, Q, atol=1e-12)

    def test_residual_vs_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = 0.9 * rng.normal(size=(4, 4)) / 2.0
            B = rng.normal(size=(4, 2))
            Q = np.diag(rng.uniform(0.1, 2.0, size=4))
            R = np.diag(rng.uniform(0.5, 2.0, size=2))
            P = solve_dare(A, B, Q, R)
            assert dare_residual(A, B, Q, R, P) <= 1e-8 * (1.0 + np.linalg.norm(P, np.inf))
            assert np.allclose(P, scipy_dare(A, B, Q, R), rtol=1e-7, atol=1e-8)

    def test_positive_definite(self):
        A = np.array([[1.0, 0.0], [0.1, 1.0]])
        B = np.array([[1.0], [0.0]])
        P = solve_dare(A, B, np.diag([0.0, 250.0]), 2800.0 * np.eye(1))
        assert np.all(np.linalg.eigvalsh(P) > 0)

    def test_unstabilizable_raises(self):
        # Unstable mode with no input authority.
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(RiccatiConvergenceError):
            solve_dare(A, B, np.eye(2), np.eye(1), max_iter=500)
        # At the default cap the divergence must surface as the error, not as
        # an overflow warning or a returned P with non-finite entries.  With
        # no input at all, P overflows before any other iterate does.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RiccatiConvergenceError):
                solve_dare(A, B, np.eye(2), np.eye(1))
            with pytest.raises(RiccatiConvergenceError):
                solve_dare(np.diag([1.5]), np.zeros((1, 1)), np.eye(1), np.eye(1))

    def test_overflowing_scale_raises(self):
        # Stabilizable, but I + G H overflows in the second doubling step.
        with pytest.raises(RiccatiConvergenceError):
            solve_dare(np.array([[1e100]]), np.eye(1), np.eye(1), np.eye(1))

    def test_dez_coalitions_match_scipy(self):
        # Every contiguous coalition of the 13-reach chain, full chain included.
        chain = build_chain()
        cfg = ControllerConfig()
        n = len(chain)
        solved = 0
        for first in range(1, n + 1):
            for last in range(first, n + 1):
                members = tuple(range(first, last + 1))
                blocks = [tuple(range(1, first)), members, tuple(range(last + 1, n + 1))]
                coal = build_coalition_model(chain, members, [b for b in blocks if b])
                q, r = weight_matrices(coal, cfg)
                P = solve_dare(coal.Xi, coal.Up, q, r)
                ref = scipy_dare(coal.Xi, coal.Up, q, r)
                err = np.linalg.norm(P - ref, np.inf) / np.linalg.norm(ref, np.inf)
                assert err <= 1e-10, (members, err)
                K = lqr_gain(coal.Xi, coal.Up, r, P)
                tol = CERT_RTOL * (1.0 + np.linalg.norm(P, np.inf))
                assert dare_residual(coal.Xi, coal.Up, q, r, P) <= tol
                assert lyapunov_residual(coal.Xi + coal.Up @ K, P, q, r, K) <= tol
                solved += 1
        assert solved == 91


class TestLqrGain:
    def test_no_actuation(self):
        K = lqr_gain(np.eye(2) * 0.5, np.zeros((2, 1)), np.eye(1), np.eye(2))
        assert np.allclose(K, 0.0)

    def test_scalar_closed_form(self):
        P = solve_dare(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        K = lqr_gain(np.eye(1), np.eye(1), np.eye(1), P)
        assert abs(K[0, 0] + (np.sqrt(5.0) - 1.0) / 2.0) < 1e-10

    def test_closed_loop_stable(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5))
        B = rng.normal(size=(5, 2))
        Q = np.eye(5)
        R = np.eye(2)
        P = solve_dare(A, B, Q, R)
        K = lqr_gain(A, B, R, P)
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0


class TestLyapunovResidual:
    def test_trivial_zero(self):
        r = lyapunov_residual(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(1), np.zeros((1, 2)))
        assert abs(r) < 1e-12

    def test_dare_pair_certifies(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3)) * 0.8
        B = rng.normal(size=(3, 1))
        Q = np.eye(3)
        R = np.eye(1)
        P = solve_dare(A, B, Q, R)
        K = lqr_gain(A, B, R, P)
        assert lyapunov_residual(A + B @ K, P, Q, R, K) <= 1e-8

    def test_perturbed_p_fails(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(3, 3)) * 0.8
        B = rng.normal(size=(3, 1))
        Q = np.eye(3)
        R = np.eye(1)
        P = solve_dare(A, B, Q, R)
        K = lqr_gain(A, B, R, P)
        assert lyapunov_residual(A + B @ K, P - 0.1 * np.eye(3), Q, R, K) > 0.0


def _kkt_equality_solution(H, f, Aeq, beq):
    n = f.shape[0]
    m = Aeq.shape[0]
    kkt = np.block([[H, Aeq.T], [Aeq, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-f, beq]))
    return sol[:n]


class TestSolveQp:
    def test_projection_onto_halfspace(self):
        # min ||x - (2, 0)||^2 s.t. x1 <= 1
        prob = QpProblem(
            H=2.0 * np.eye(2),
            f=np.array([-4.0, 0.0]),
            Ain=np.array([[1.0, 0.0]]),
            bin=np.array([1.0]),
        )
        sol = solve_qp(prob)
        assert sol.optimal
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_unconstrained(self):
        prob = QpProblem(H=2.0 * np.eye(2), f=np.array([-2.0, -2.0]))
        sol = solve_qp(prob)
        assert sol.optimal
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10)

    def test_equality_only_matches_kkt(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = rng.integers(2, 6)
            M = rng.normal(size=(n, n))
            H = M @ M.T + 0.5 * np.eye(n)
            f = rng.normal(size=n)
            Aeq = rng.normal(size=(1, n))
            beq = rng.normal(size=1)
            prob = QpProblem(H, f, Aeq=Aeq, beq=beq)
            sol = solve_qp(prob)
            assert sol.optimal
            x_ref = _kkt_equality_solution(H, f, Aeq, beq)
            assert np.linalg.norm(sol.x - x_ref, np.inf) <= 1e-9 * (1 + np.linalg.norm(x_ref, np.inf))

    def test_inconsistent_equalities_infeasible(self):
        prob = QpProblem(
            H=np.eye(2),
            f=np.zeros(2),
            Aeq=np.array([[1.0, 0.0], [1.0, 0.0]]),
            beq=np.array([0.0, 1.0]),
        )
        assert solve_qp(prob).status == numerics.INFEASIBLE

    def test_infeasible_inequalities(self):
        prob = QpProblem(
            H=np.eye(1),
            f=np.zeros(1),
            Ain=np.array([[1.0], [-1.0]]),
            bin=np.array([-1.0, -1.0]),  # x <= -1 and x >= 1
        )
        assert solve_qp(prob).status == numerics.INFEASIBLE

    def test_degenerate_start_on_boundary(self):
        # Start exactly on the constraint that is not active at the optimum.
        prob = QpProblem(
            H=2.0 * np.eye(2),
            f=np.array([2.0, 0.0]),
            Ain=np.array([[1.0, 0.0], [0.0, 1.0]]),
            bin=np.array([0.0, 0.0]),
        )
        sol = solve_qp(prob, start=np.zeros(2))
        assert sol.optimal
        assert np.allclose(sol.x, [-1.0, 0.0], atol=1e-9)

    def test_random_vs_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 5))
            n_in = int(rng.integers(0, 7))
            M = rng.normal(size=(n, n))
            H = M @ M.T + 0.3 * np.eye(n)
            f = rng.normal(size=n)
            Ain = rng.normal(size=(n_in, n))
            x_feas = rng.normal(size=n)
            bin_ = Ain @ x_feas + rng.uniform(0.05, 1.0, size=n_in)
            prob = QpProblem(H, f, Ain=Ain, bin=bin_)
            sol = solve_qp(prob)
            assert sol.optimal, f"trial {trial} not optimal: {sol.status}"
            x_ref, obj_ref = brute_force_qp(H, f, Ain=Ain, bin_=bin_)
            assert abs(sol.objective - obj_ref) <= 1e-6
            assert np.linalg.norm(sol.x - x_ref, np.inf) <= 1e-5

    def test_kkt_residual_and_feasibility(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 4
            M = rng.normal(size=(n, n))
            H = M @ M.T + 0.5 * np.eye(n)
            f = rng.normal(size=n)
            Aeq = rng.normal(size=(1, n))
            x_feas = rng.normal(size=n)
            beq = Aeq @ x_feas
            Ain = rng.normal(size=(4, n))
            bin_ = Ain @ x_feas + rng.uniform(0.01, 1.0, size=4)
            prob = QpProblem(H, f, Aeq, beq, Ain, bin_)
            sol = solve_qp(prob)
            assert sol.optimal
            assert np.max(prob.Ain @ sol.x - prob.bin) <= 1e-8
            assert np.linalg.norm(prob.Aeq @ sol.x - prob.beq, np.inf) <= 1e-8
            # Stationarity: gradient must be a combination of active rows.
            g = H @ sol.x + f
            rows = np.vstack([Aeq, Ain[list(sol.active_set)]])
            coef, *_ = np.linalg.lstsq(rows.T, -g, rcond=None)
            assert np.linalg.norm(rows.T @ coef + g, np.inf) <= 1e-7

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        H = np.eye(3) * 2
        f = rng.normal(size=3)
        Ain = rng.normal(size=(5, 3))
        bin_ = Ain @ rng.normal(size=3) + 0.5
        prob1 = QpProblem(H, f, Ain=Ain, bin=bin_)
        prob2 = QpProblem(H.copy(), f.copy(), Ain=Ain.copy(), bin=bin_.copy())
        s1 = solve_qp(prob1)
        s2 = solve_qp(prob2)
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective


class TestPurity:
    def test_solve_dare_does_not_mutate(self):
        A = np.array([[1.0, 0.0], [0.1, 1.0]])
        B = np.array([[1.0], [0.0]])
        Q = np.diag([0.0, 1.0])
        R = np.eye(1)
        copies = (A.copy(), B.copy(), Q.copy(), R.copy())
        solve_dare(A, B, Q, R)
        assert all(np.array_equal(m, c) for m, c in zip((A, B, Q, R), copies))

    def test_bit_identical_repeat(self):
        A = np.array([[1.0, 0.0], [0.003, 1.0]])
        B = np.array([[1.0], [0.0]])
        Q = np.diag([0.0, 250.0])
        R = 2800.0 * np.eye(1)
        P1 = solve_dare(A, B, Q, R)
        P2 = solve_dare(A, B, Q, R)
        assert np.array_equal(P1, P2)
