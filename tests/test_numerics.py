import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from canalmpc import numerics
from canalmpc.canal import DEZ_REACHES, build_chain, build_coalition_model
from canalmpc.control import ControllerConfig, prepare_mpc, prepare_setpoint, weight_matrices
from canalmpc.numerics import (
    QpStructure,
    RiccatiConvergenceError,
    SingularMatrixError,
    dare_residual,
    lqr_gain,
    lyapunov_residual,
    solve_dare,
    solve_qp,
)
from canalmpc.supervisor import CERT_RTOL

from oracles import brute_force_qp, scipy_dare, shift_linear_term, whitened_rows

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestRangeSpaceStep:
    """The dual step in Cholesky coordinates z = L'x agrees with the full KKT
    system.  The working rows' QR is built here from L^-1 a_i, apart from the
    structure's whitened rows, by appending one row at a time."""

    @staticmethod
    def step(s, g, rows):
        # With the inequality rows `rows` entered in order, the directions
        # solve_qp moves x and the working multipliers per unit of an entering
        # row g's multiplier: p = -L^-T (I - QQ') L^-1 g and -R^-1 Q' L^-1 g.
        q, r = np.zeros((s.n, 0)), np.zeros((0, 0))
        for i in rows:
            v = s.chol_inv @ s.Ain[i]
            q, r = numerics._qr_append(q, r, v, numerics.RANK_RTOL * np.linalg.norm(v))
        z_g = s.chol_inv @ g
        q_g = q.T @ z_g
        return s.chol_inv.T @ (q @ q_g - z_g), np.linalg.solve(r, -q_g)

    @pytest.mark.parametrize("n_working", [0, 1, 3])
    def test_step_matches_full_kkt(self, n_working):
        rng = np.random.default_rng(12 + n_working)
        n = 7
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        s = QpStructure(H, rng.normal(size=(4, n)))
        g = rng.normal(size=n)
        rows = [3, 0, 2][:n_working]
        p, mult = self.step(s, g, rows)
        A_w = s.Ain[rows]
        kkt = np.block([[H, A_w.T], [A_w, np.zeros((n_working, n_working))]])
        ref = np.linalg.solve(kkt, np.concatenate([-g, np.zeros(n_working)]))
        assert np.linalg.norm(p - ref[:n], np.inf) <= 1e-12 * (1 + np.linalg.norm(ref[:n], np.inf))
        assert np.linalg.norm(mult - ref[n:], np.inf) <= 1e-12 * (1 + np.linalg.norm(ref[n:], np.inf))

    def test_duplicate_working_row_raises(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 5))
        Ain = rng.normal(size=(3, 5))
        s = QpStructure(M @ M.T + np.eye(5), np.vstack([Ain, Ain[1], Ain[0] - 2.0 * Ain[2]]))
        self.step(s, np.ones(5), [1, 2])
        with pytest.raises(SingularMatrixError, match="dependent"):
            self.step(s, np.ones(5), [1, 2, 3])  # row 3 duplicates row 1
        with pytest.raises(SingularMatrixError, match="dependent"):
            self.step(s, np.ones(5), [0, 2, 4])  # row 4 combines rows 0 and 2


class TestFixedMaps:
    """What a structure factors and whitens once, and the QR solve_qp grows row by row."""

    def test_structure_factors_only_h(self, monkeypatch):
        """A structure takes the Cholesky factor of H and its inverse, and no
        QR or solve: the working rows' QR belongs to each solve."""
        calls = Counter()
        for name in ("solve", "qr", "cholesky", "inv"):
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        s = QpStructure(2.0 * np.eye(5), np.ones((3, 5)))
        assert calls == {"cholesky": 1, "inv": 1}
        assert np.allclose(s.chol_inv, np.eye(5) / np.sqrt(2.0), rtol=1e-15, atol=0.0)

    def test_rows_match_triangular_solve(self):
        """rows[i] = (L^-1 a_i)' agrees with a triangular solve against
        scipy's Cholesky factor, on random structures and the centralized
        run's 13-member setpoint and MPC structures; row_tol scales each
        row's norm."""
        cfg = ControllerConfig()
        coal = build_coalition_model(build_chain(DEZ_REACHES, cfg.sample_time), range(1, 14))
        q, r = weight_matrices(coal, cfg)
        P = solve_dare(coal.Xi, coal.Up, q, r)
        K = lqr_gain(coal.Xi, coal.Up, r, P)
        structures = [prepare_setpoint(coal, K, cfg).qp, prepare_mpc(coal, K, P, cfg).qp]
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            M = rng.normal(size=(n, n))
            structures.append(QpStructure(M @ M.T + 0.1 * np.eye(n),
                                          rng.normal(size=(int(rng.integers(1, 12)), n))))
        for s in structures:
            ref = whitened_rows(s.H, s.Ain)
            assert s.rows.shape == s.Ain.shape
            assert np.linalg.norm(s.rows - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.allclose(s.row_tol, numerics.RANK_RTOL * np.linalg.norm(ref, axis=1),
                               rtol=1e-13, atol=0.0)

    def test_qr_append_keeps_r_upper_triangular(self):
        rng = np.random.default_rng(41)
        q, r = np.zeros((6, 0)), np.zeros((0, 0))
        rows = rng.normal(size=(4, 6))
        for v in rows:
            q, r = numerics._qr_append(q, r, v, 1e-12)
        assert np.array_equal(r, np.triu(r))
        assert np.allclose(q @ r, rows.T, rtol=0.0, atol=1e-12)


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
        # The divergence must surface as the error before the step cap, not
        # as an overflow warning or a returned P with non-finite entries.
        # With no input at all, P overflows before any other iterate does.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RiccatiConvergenceError, match="non-finite"):
                solve_dare(A, B, np.eye(2), np.eye(1))
            with pytest.raises(RiccatiConvergenceError, match="non-finite"):
                solve_dare(np.diag([1.5]), np.zeros((1, 1)), np.eye(1), np.eye(1))

    def test_step_cap_raises(self):
        # With G = 0 and A = I each step doubles H: finite, never converging.
        with pytest.raises(RiccatiConvergenceError, match="no convergence within 50 doubling steps"):
            solve_dare(np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1))

    def test_overflowing_scale_raises(self):
        # Stabilizable, but I + G H overflows in the second doubling step.
        with pytest.raises(RiccatiConvergenceError):
            solve_dare(np.array([[1e100]]), np.eye(1), np.eye(1), np.eye(1))

    def test_singular_doubling_step_raises(self):
        # Q = -1 breaks Q >= 0 and makes I + G H exactly singular.
        with pytest.raises(RiccatiConvergenceError, match="doubling step failed"):
            solve_dare(np.eye(1), np.eye(1), -np.eye(1), np.eye(1))

    def test_dez_coalitions_match_scipy(self):
        # Every contiguous coalition of the 13-reach chain, full chain included.
        chain = build_chain(DEZ_REACHES, 300.0)
        cfg = ControllerConfig()
        n = len(chain)
        solved = 0
        for first in range(1, n + 1):
            for last in range(first, n + 1):
                coal = build_coalition_model(chain, range(first, last + 1))
                q, r = weight_matrices(coal, cfg)
                P = solve_dare(coal.Xi, coal.Up, q, r)
                ref = scipy_dare(coal.Xi, coal.Up, q, r)
                err = np.linalg.norm(P - ref, np.inf) / np.linalg.norm(ref, np.inf)
                assert err <= 1e-10, (coal.members, err)
                K = lqr_gain(coal.Xi, coal.Up, r, P)
                tol = CERT_RTOL * (1.0 + np.linalg.norm(P, np.inf))
                assert dare_residual(coal.Xi, coal.Up, q, r, P) <= tol
                assert lyapunov_residual(coal.Xi + coal.Up @ K, P, q, r, K) <= tol
                solved += 1
        assert solved == 91

    def test_one_solve_per_doubling_step(self, monkeypatch):
        """G_0 takes one solve against R; every doubling step then solves
        I + G H against [A, G] alone, 2n columns with no identity block."""
        coal = build_coalition_model(build_chain(DEZ_REACHES, 300.0), range(1, 14))
        q, r = weight_matrices(coal, ControllerConfig())
        shapes = []

        def counted(a, b, _real=np.linalg.solve):
            shapes.append((a.shape, b.shape))
            return _real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        solve_dare(coal.Xi, coal.Up, q, r)
        n, m = coal.n, coal.m
        assert shapes[0] == ((m, m), (m, n))
        assert len(shapes) > 1
        assert set(shapes[1:]) == {((n, n), (n, 2 * n))}


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


def _objective(H, f, x):
    return float(0.5 * x @ H @ x + f @ x)


class TestSolveQp:
    """solve_qp takes no linear term: a test QP's drawn f is moved into the
    right-hand side by x = y + x0 (shift_linear_term), and x = sol.x + x0."""

    def test_projection_onto_halfspace(self):
        # min ||x - (2, 0)||^2 s.t. x1 <= 1
        H, Ain = 2.0 * np.eye(2), np.array([[1.0, 0.0]])
        x0, bin_ = shift_linear_term(H, np.array([-4.0, 0.0]), Ain=Ain, bin_=np.array([1.0]))
        sol = solve_qp(QpStructure(H, Ain=Ain), bin=bin_)
        assert sol.optimal
        assert np.allclose(sol.x + x0, [1.0, 0.0], atol=1e-9)

    def test_unconstrained(self):
        x0, _ = shift_linear_term(2.0 * np.eye(2), np.array([-2.0, -2.0]))
        sol = solve_qp(QpStructure(2.0 * np.eye(2)))
        assert sol.optimal
        assert np.allclose(sol.x + x0, [1.0, 1.0], atol=1e-10)

    def test_iteration_cap_reports_last_iterate(self):
        # The projection below takes two iterations: one adds x1 <= 1, the
        # next finds nothing violated.
        structure = QpStructure(2.0 * np.eye(2), Ain=np.array([[1.0, 0.0]]))
        f = np.array([-4.0, 0.0])
        x0, bin_ = shift_linear_term(structure.H, f, Ain=structure.Ain, bin_=np.array([1.0]))
        assert solve_qp(structure, bin=bin_).iterations == 2
        sol = solve_qp(structure, bin=bin_, max_iter=1)
        assert sol.status == numerics.MAX_ITERATIONS and not sol.optimal
        assert sol.iterations == 1
        x = sol.x + x0
        assert np.all(np.isfinite(x)) and np.isfinite(_objective(structure.H, f, x))

    def test_infeasible_inequalities(self):
        sol = solve_qp(
            QpStructure(np.eye(1), Ain=np.array([[1.0], [-1.0]])),
            bin=np.array([-1.0, -1.0]),  # x <= -1 and x >= 1
        )
        assert sol.status == numerics.INFEASIBLE

    def test_overflowing_step_raises_not_infeasible(self):
        # Feasible (x2 ~ 5.6e155 works).  Both rows are violated by 1 at the
        # origin, so row 0 enters first; row 1 then lies ~1e-156 off its span,
        # and the step length onto row 1 overflows the float range.
        structure = QpStructure(0.5 * np.eye(2), np.array([[-1.0, -1e-9], [1.79e-147, 0.0]]))
        with pytest.raises(ValueError, match="row 1 overflows"):
            solve_qp(structure, np.array([-1.0, -1.0]))

    def test_row_at_bound_at_unconstrained_minimizer_stays_out(self):
        # x2 <= 0 holds with equality at the unconstrained minimizer (-1, 0):
        # it is not violated, so it never enters the working set.
        H, Ain = 2.0 * np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]])
        x0, bin_ = shift_linear_term(H, np.array([2.0, 0.0]), Ain=Ain, bin_=np.zeros(2))
        sol = solve_qp(QpStructure(H, Ain=Ain), bin=bin_)
        assert sol.optimal and sol.active_set == () and sol.iterations == 1
        assert np.allclose(sol.x + x0, [-1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("H", [np.diag([2.0, 0.0]), np.diag([1.0, -1.0])],
                             ids=["semidefinite", "indefinite"])
    def test_hessian_not_positive_definite_raises(self, H):
        with pytest.raises(ValueError, match="positive definite"):
            QpStructure(H, Ain=np.array([[1.0, 1.0]]))

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
            x0, bin_y = shift_linear_term(H, f, Ain=Ain, bin_=bin_)
            sol = solve_qp(QpStructure(H, Ain=Ain), bin=bin_y)
            assert sol.optimal, f"trial {trial} not optimal: {sol.status}"
            x_ref, obj_ref = brute_force_qp(H, f, Ain=Ain, bin_=bin_)
            x = sol.x + x0
            assert abs(_objective(H, f, x) - obj_ref) <= 1e-6
            assert np.linalg.norm(x - x_ref, np.inf) <= 1e-5

    def test_kkt_residual_and_feasibility(self):
        rng = np.random.default_rng(9)
        active = 0
        for _ in range(20):
            n = 4
            M = rng.normal(size=(n, n))
            H = M @ M.T + 0.5 * np.eye(n)
            f = rng.normal(size=n)
            x_feas = rng.normal(size=n)
            Ain = rng.normal(size=(4, n))
            bin_ = Ain @ x_feas + rng.uniform(0.01, 1.0, size=4)
            x0, bin_y = shift_linear_term(H, f, Ain, bin_)
            sol = solve_qp(QpStructure(H, Ain), bin_y)
            assert sol.optimal
            x = sol.x + x0
            assert np.max(Ain @ x - bin_) <= 1e-8
            # Stationarity: the gradient is a nonnegative combination of the active rows.
            g = H @ x + f
            rows = Ain[list(sol.active_set)]
            coef, *_ = np.linalg.lstsq(rows.T, -g, rcond=None)
            assert np.linalg.norm(rows.T @ coef + g, np.inf) <= 1e-7
            assert np.all(coef >= -1e-9)
            active += len(sol.active_set)
        assert active > 0

    def test_feasible_start_factors_nothing(self, monkeypatch):
        """A QP whose unconstrained minimizer is feasible returns after one
        iteration without solving or factoring anything."""
        rng = np.random.default_rng(17)
        M = rng.normal(size=(6, 6))
        H = M @ M.T + np.eye(6)
        Ain, f = rng.normal(size=(5, 6)), rng.normal(size=6)
        x_min = np.linalg.solve(H, -f)
        structure, bin_ = QpStructure(H, Ain), Ain @ x_min + 1.0
        x0, bin_y = shift_linear_term(H, f, Ain, bin_)
        calls = Counter()
        for name in ("solve", "qr", "cholesky", "inv"):
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        sol = solve_qp(structure, bin_y)
        assert sol.optimal and sol.iterations == 1 and sol.active_set == ()
        assert not calls
        assert "rows" not in vars(structure)  # the whitened rows are never built
        assert np.allclose(sol.x + x0, x_min, rtol=0.0, atol=1e-10)

    def test_structure_reused_across_problems(self):
        # One structure serves every problem of its family, each solve
        # matching a structure built for that problem alone.
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 3))
        H = M @ M.T + 0.5 * np.eye(3)
        Ain = rng.normal(size=(4, 3))
        shared = QpStructure(H, Ain)
        active = 0
        for _ in range(5):
            f = rng.normal(size=3)
            x_feas = rng.normal(size=3)
            bin_ = Ain @ x_feas + rng.uniform(0.01, 1.0, size=4)
            _, bin_y = shift_linear_term(H, f, Ain, bin_)
            s1 = solve_qp(shared, bin_y)
            s2 = solve_qp(QpStructure(H, Ain), bin_y)
            assert s1.optimal
            assert np.array_equal(s1.x, s2.x)
            active += len(s1.active_set)
        assert active > 0

    # x1 <= 1 binds at the optimum (1, 0); x1 >= -5 held as an equality
    # needs multiplier -14, and x1 >= -5 is parallel to x1 <= 1.
    START_QP = (QpStructure(2.0 * np.eye(2), Ain=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])),
                np.array([-4.0, 0.0]), np.array([1.0, 5.0, 3.0]))

    def start_qp(self):
        """START_QP's structure and its right-hand side with f moved in."""
        structure, f, bin_ = self.START_QP
        return structure, shift_linear_term(structure.H, f, Ain=structure.Ain, bin_=bin_)[1]

    def test_start_on_final_working_set_takes_one_iteration(self):
        structure, bin_ = self.start_qp()
        cold = solve_qp(structure, bin=bin_)
        assert cold.optimal and cold.active_set == (0,) and cold.iterations == 2
        warm = solve_qp(structure, bin=bin_, start=cold.active_set)
        assert warm.optimal and warm.active_set == (0,) and warm.iterations == 1
        assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)

    @staticmethod
    def dependent_rows_qp():
        """A feasible QP in 5 variables whose origin is infeasible: rows 0-2
        independent, row 3 duplicates row 1, row 4 = row 0 - 2 row 2."""
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 5))
        Ain = rng.normal(size=(3, 5))
        Ain = np.vstack([Ain, Ain[1], Ain[0] - 2.0 * Ain[2], rng.normal(size=(3, 5))])
        bin_ = Ain @ rng.normal(size=5) + 0.1
        assert bin_.min() < 0.0
        return QpStructure(M @ M.T + np.eye(5), Ain), bin_

    @pytest.mark.parametrize("qp, start", [
        ("start", (1,)), ("start", (0, 1)), ("dependent", (1, 3)), ("dependent", (3, 1, 5)),
        ("dependent", (0, 2, 4)), ("dependent", (4, 6, 0, 2)), ("dependent", (0, 1, 2, 5, 6, 7)),
    ], ids=["negative-multiplier", "dependent-row", "duplicate", "duplicate-first",
            "combination", "combination-first", "more-rows-than-variables"])
    def test_rejected_start_is_the_cold_solve(self, qp, start):
        # Equal x means equal objectives too.
        structure, bin_ = self.start_qp() if qp == "start" else self.dependent_rows_qp()
        assert numerics._warm_start(structure, bin_, list(start)) is None
        cold = solve_qp(structure, bin=bin_)
        warm = solve_qp(structure, bin=bin_, start=start)
        assert cold.optimal
        assert np.array_equal(warm.x, cold.x)
        assert (warm.status, warm.iterations, warm.active_set) == \
            (cold.status, cold.iterations, cold.active_set)

    def test_feasible_point_without_linear_term_ignores_start(self, monkeypatch):
        """With the origin feasible (bin >= 0), a solve with a start returns
        it after one iteration, appending, solving and factoring nothing and
        building no whitened rows."""
        rng = np.random.default_rng(30)
        M = rng.normal(size=(6, 6))
        H = M @ M.T + np.eye(6)
        Ain = rng.normal(size=(5, 6))
        structure, bin_ = QpStructure(H, Ain), rng.uniform(0.0, 1.0, size=5)
        calls = Counter()
        for owner, name in [(np.linalg, "solve"), (np.linalg, "qr"), (np.linalg, "cholesky"),
                            (np.linalg, "inv"), (numerics, "_qr_append")]:
            def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        sol = solve_qp(structure, bin_, start=(0, 3))
        assert sol.optimal and sol.iterations == 1 and sol.active_set == ()
        assert not calls
        assert not np.any(sol.x)
        assert "rows" not in vars(structure) and "row_tol" not in vars(structure)

    def test_deterministic(self):
        # Equal x means equal objectives too.
        rng = np.random.default_rng(21)
        H = np.eye(3) * 2
        f = rng.normal(size=3)
        Ain = rng.normal(size=(5, 3))
        bin_ = Ain @ rng.normal(size=3) + 0.5
        _, bin_y = shift_linear_term(H, f, Ain=Ain, bin_=bin_)
        s1 = solve_qp(QpStructure(H, Ain=Ain), bin=bin_y)
        s2 = solve_qp(QpStructure(H.copy(), Ain=Ain.copy()), bin=bin_y.copy())
        assert np.array_equal(s1.x, s2.x)


# Entries on a half-integer grid: exact ties, dependent rows and single-point
# feasible sets occur, while feasibility never hinges on a margin comparable
# with the solvers' tolerances.
ENTRIES = st.integers(-4, 4).map(lambda k: 0.5 * k)


@st.composite
def dense_qps(draw):
    """A positive-definite QP whose inequality right-hand sides are drawn
    freely, so that some are infeasible."""
    n = draw(st.integers(1, 4))
    n_in = draw(st.integers(0, 6))
    M = draw(hnp.arrays(float, (n, n), elements=ENTRIES))
    return (M @ M.T + 0.5 * np.eye(n), draw(hnp.arrays(float, n, elements=ENTRIES)),
            draw(hnp.arrays(float, (n_in, n), elements=ENTRIES)),
            draw(hnp.arrays(float, n_in, elements=ENTRIES)))


def _solve_shifted(structure, qp, start=()):
    """solve_qp on qp = (H, f, Ain, bin) with f moved into the right-hand
    side; returns the solution and the shift x0."""
    H, f, Ain, bin_ = qp
    x0, bin_y = shift_linear_term(H, f, Ain, bin_)
    return solve_qp(structure, bin_y, start=start), x0


def _assert_matches(solved, qp, reference):
    (sol, x0), (H, f, *_), (x_ref, obj_ref) = solved, qp, reference
    if x_ref is None:
        assert sol.status == numerics.INFEASIBLE
        return
    assert sol.optimal
    x = sol.x + x0
    assert abs(_objective(H, f, x) - obj_ref) <= 1e-6 * (1 + abs(obj_ref))
    assert np.linalg.norm(x - x_ref, np.inf) <= 1e-6 * (1 + np.linalg.norm(x_ref, np.inf))


class TestSolveQpProperty:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(dense_qps())
    def test_matches_enumeration_or_reports_infeasible(self, qp):
        H, f, Ain, bin_ = qp
        _assert_matches(_solve_shifted(QpStructure(H, Ain), qp), qp,
                        brute_force_qp(H, f, Ain=Ain, bin_=bin_))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(dense_qps(), st.data())
    def test_any_start_matches_enumeration(self, qp, data):
        """A start on any subset of the inequality rows, taken or refused for
        the cold start, ends at the enumerated minimizer.  Random subsets are
        mostly refused, subsets of the cold solve's active set mostly taken."""
        H, f, Ain, bin_ = qp
        structure, reference = QpStructure(H, Ain), brute_force_qp(H, f, Ain=Ain, bin_=bin_)
        cold, _ = _solve_shifted(structure, qp)
        for rows in (range(len(bin_)), cold.active_set):
            start = tuple(i for i in rows if data.draw(st.booleans()))
            _assert_matches(_solve_shifted(structure, qp, start), qp, reference)


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
