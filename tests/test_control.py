import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from canalmpc import control, numerics, simulate
from canalmpc.canal import (
    DEZ_REACHES,
    ReachParams,
    assemble_global,
    build_chain,
    build_coalition_model,
)
from canalmpc.control import (
    ControllerConfig,
    CoalitionController,
    KalmanState,
    Setpoint,
    compute_setpoint,
    feasible_setpoint,
    kalman_model,
    kf_init,
    kf_schedule,
    kf_update,
    mpc_step,
    partition_filter,
    prepare_mpc,
    prepare_setpoint,
    weight_matrices,
)
from canalmpc.numerics import lqr_gain, solve_dare
from canalmpc.simulate import run_centralized, run_closed_loop, scenario_1
from canalmpc.supervisor import SynthesisCache, _synthesize_one
from canalmpc.topology import Topology, partition_of

from oracles import (
    brute_force_qp,
    costate_gradient,
    kf_step,
    looped_mpc_data,
    looped_mpc_program,
    replay_kf_init,
    square_setpoint,
)

CHAIN = build_chain(DEZ_REACHES, 300.0)
SINGLETONS = tuple((i,) for i in range(1, 14))


def make_coalition(members):
    return build_coalition_model(CHAIN, members)


def synth(coal, cfg):
    q, r = weight_matrices(coal, cfg)
    p = solve_dare(coal.Xi, coal.Up, q, r)
    k = lqr_gain(coal.Xi, coal.Up, r, p)
    return k, p


def warm_start(filt, window):
    return kf_init(filt, window, kf_schedule(filt, window.shape[1]))


def at_rest(levels, flows, offs, length=1):
    """A (4, length, 13) record window repeating one row with zero inputs."""
    return np.repeat(np.array([levels, flows, np.zeros(13), offs])[:, None], length, axis=1)


def random_window(rng, length):
    """A (4, length, 13) record window of random levels, flows, inputs and offtakes."""
    return np.array([(0.1 * rng.normal(size=13), 3.0 + rng.normal(size=13),
                      0.3 * rng.normal(size=13), 2.0 + rng.normal(size=13))
                     for _ in range(length)]).transpose(1, 0, 2)


def steady_global_arrays(flows_by_reach, offtakes_by_reach):
    levels = np.zeros(13)
    flows = np.zeros(13)
    offs = np.zeros(13)
    for i, v in flows_by_reach.items():
        flows[i - 1] = v
    for i, v in offtakes_by_reach.items():
        offs[i - 1] = v
    return levels, flows, offs


def steady_slack(coal, sp, rho, omega):
    """The setpoint's steady-state slack (I - Xi) xi_s - Up u_s - Phi rho - Psi omega."""
    return ((np.eye(coal.n) - coal.Xi) @ sp.xi_s - coal.Up @ sp.u_s
            - coal.Phi @ np.asarray(rho, dtype=float) - coal.Psi @ np.asarray(omega, dtype=float))


class TestKalman:
    cfg = ControllerConfig()

    def test_init_steady_zero_external(self):
        # Coalition containing the last reach has no external channel when
        # paired upstream; use {12, 13} whose boundary is internal.
        coal = make_coalition((12, 13))
        assert coal.n_channels == 0
        levels, flows, offs = steady_global_arrays({12: 2.0, 13: 2.0}, {12: 0.0, 13: 2.0})
        window = at_rest(levels, flows, offs, 20)
        kf = warm_start(kalman_model(coal, self.cfg), window)
        xi_hat, omega = kf.xhat[:coal.n], kf.xhat[coal.n:]
        assert omega.shape == (0,)
        assert np.allclose(coal.gamma @ xi_hat, 0.0, atol=1e-9)

    def test_init_constant_external_outflow(self):
        coal = make_coalition((12,))
        w_true, p12 = 2.0, 1.5
        q12 = p12 + w_true
        levels, flows, offs = steady_global_arrays({12: q12, 13: w_true}, {12: p12, 13: w_true})
        window = at_rest(levels, flows, offs, 20)
        kf = warm_start(kalman_model(coal, self.cfg), window)
        omega = kf.xhat[coal.n:]
        assert abs(omega[0] - w_true) <= 0.05 * w_true

    def test_init_deterministic(self):
        coal = make_coalition((5,))
        levels, flows, offs = steady_global_arrays({5: 3.0, 6: 1.0}, {5: 2.0})
        window = at_rest(levels, flows, offs, 10)
        kf1 = warm_start(kalman_model(coal, self.cfg), window)
        kf2 = warm_start(kalman_model(coal, self.cfg), window)
        assert np.array_equal(kf1.xhat, kf2.xhat)
        assert np.array_equal(kf1.cov, kf2.cov)

    def test_update_converges_noiseless(self):
        coal = make_coalition((12,))
        w_true, p12 = 2.0, 1.5
        q12 = p12 + w_true
        x = np.array([q12, q12, 0.0])
        prior = np.diag(
            [self.cfg.kf_prior_flow] * 2
            + [self.cfg.kf_prior_level, self.cfg.kf_prior_omega]
        )
        kf = KalmanState(np.array([q12, q12, 0.0, 0.0]), prior)
        filt = kalman_model(coal, self.cfg)
        u = np.zeros(1)
        rho = np.array([p12])
        err = np.inf
        for k in range(50):
            x = coal.Xi @ x + coal.Phi @ rho + coal.Psi @ np.array([w_true])
            y = np.array([x[2], x[0]])
            kf = kf_update(filt, kf, u, rho, y)
            err = abs(kf.xhat[3] - w_true)
        assert err <= 1e-3

    def test_full_coalition_pure_observer(self):
        coal = assemble_global(CHAIN)
        assert coal.n_channels == 0
        levels = np.zeros(13)
        flows = np.full(13, 0.0)
        offs = np.zeros(13)
        window = at_rest(levels, flows, offs, 3)
        filt = kalman_model(coal, self.cfg)
        kf = warm_start(filt, window)
        assert kf.xhat.shape == (39,)
        kf2 = kf_update(filt, kf, np.zeros(13), offs, np.zeros(26))
        assert kf2.xhat.shape == (39,)

    @pytest.mark.parametrize("members", [(5,), (4, 5, 6), tuple(range(1, 14))])
    @pytest.mark.parametrize("length", [1, 5, 20])
    def test_schedule_replay_matches_fused_replay(self, members, length):
        """Estimate replay against the gain schedule equals the fused
        predict/correct replay bit for bit, estimate and covariance."""
        rng = np.random.default_rng(length)
        window = random_window(rng, length)
        filt = kalman_model(make_coalition(members), self.cfg)
        schedule = kf_schedule(filt, length)
        assert schedule[0].shape == (length, filt.f_mat.shape[0], 2 * len(members))
        kf = kf_init(filt, window, schedule)
        xhat, cov = replay_kf_init(filt, window)
        assert np.array_equal(kf.xhat, xhat) and np.array_equal(kf.cov, cov)
        omega = kf.xhat[filt.coalition.n:]
        assert omega.size == 0 or np.all(omega != 0.0)

    @pytest.mark.parametrize("members", [(5, 6, 7, 8), tuple(range(1, 14))])
    def test_gathered_replay_matches_per_sample_replay(self, members):
        """kf_init gathers every row's member entries at once; its replay of
        20 rows with nonzero inputs equals the per-row oracle bit for bit,
        and each step reads the inputs of the row before it."""
        rng = np.random.default_rng(7)
        window = random_window(rng, 20)
        filt = kalman_model(make_coalition(members), self.cfg)
        assert filt.coalition.n_channels == (0 if 13 in members else 1)
        schedule = kf_schedule(filt, 20)
        kf = kf_init(filt, window, schedule)
        xhat, cov = replay_kf_init(filt, window)
        assert np.array_equal(kf.xhat, xhat) and np.array_equal(kf.cov, cov)
        window[2, -1] = 0.5   # the newest row's inputs never enter the replay
        assert np.array_equal(kf_init(filt, window, schedule).xhat, xhat)
        window[2, -2] = 0.5
        assert not np.array_equal(kf_init(filt, window, schedule).xhat, xhat)

    def test_schedule_must_match_history(self):
        filt = kalman_model(make_coalition((5,)), self.cfg)
        levels, flows, offs = steady_global_arrays({5: 3.0, 6: 1.0}, {5: 2.0})
        window = at_rest(levels, flows, offs, 4)
        with pytest.raises(ValueError, match="schedule"):
            kf_init(filt, window, kf_schedule(filt, 3))

    @pytest.mark.parametrize("field, value", [
        ("kf_measurement_noise", 0.0), ("kf_measurement_noise", -1e-4),
        ("kf_flow_process_noise", -1e-4), ("kf_level_process_noise", -1e-6),
        ("kf_omega_process_noise", -1e-2), ("kf_prior_flow", -1.0),
        ("kf_prior_level", -1e-2), ("kf_prior_omega", -10.0),
    ])
    def test_noise_settings_checked_at_config(self, field, value):
        # A nonpositive V or a negative W or prior would leave the innovation
        # covariance indefinite; the config refuses it, naming the field.
        with pytest.raises(ValueError, match=field):
            ControllerConfig(**{field: value})

    def test_zero_measurement_noise_limit_tracks_levels(self):
        cfg = ControllerConfig(kf_measurement_noise=1e-14)
        coal = make_coalition((7,))
        prior = np.diag([cfg.kf_prior_flow] * 2 + [cfg.kf_prior_level, cfg.kf_prior_omega])
        kf = KalmanState(np.zeros(4), prior)
        y = np.array([0.123, 4.56])  # level, gate flow
        kf = kf_update(kalman_model(coal, cfg), kf, np.zeros(1), np.zeros(1), y)
        assert abs(kf.xhat[2] - 0.123) < 1e-9
        assert abs(kf.xhat[0] - 4.56) < 1e-9

    def test_covariance_stays_symmetric_psd(self):
        coal = make_coalition((3,))
        prior = np.diag([1.0, 1.0, 0.01, 10.0])
        kf = KalmanState(np.zeros(4), prior)
        filt = kalman_model(coal, self.cfg)
        rng = np.random.default_rng(17)
        for _ in range(30):
            y = rng.normal(size=2)
            kf = kf_update(filt, kf, np.zeros(1), np.zeros(1), y)
            assert np.allclose(kf.cov, kf.cov.T)
            assert np.min(np.linalg.eigvalsh(kf.cov)) > -1e-12


class TestPartitionFilter:
    """A partition's filter is its coalitions' filters on the diagonal, stepped at once."""

    cfg = ControllerConfig()

    @pytest.mark.parametrize("enabled", [frozenset(), frozenset(range(1, 13)),
                                         frozenset(range(1, 13)) - {2, 3, 7, 11}])
    def test_blocks_match_per_coalition_filters(self, enabled):
        """Over 12 seeded steps each coalition's block of x_hat and P matches its own
        plain predict/correct to 1e-12 relative; the other blocks of P stay exactly 0."""
        rng = np.random.default_rng(len(enabled))
        blocks_members = partition_of(Topology(13, enabled))
        filters = [kalman_model(make_coalition(b), self.cfg) for b in blocks_members]
        reach_idx = [np.array(b) - 1 for b in blocks_members]
        refs = [(s.xhat, s.cov) for s in (warm_start(f, random_window(rng, 5)) for f in filters)]
        est = KalmanState(np.concatenate([x for x, _ in refs]),
                          scipy.linalg.block_diag(*(p for _, p in refs)))
        whole = partition_filter(filters)
        on_blocks = scipy.linalg.block_diag(*(np.ones(p.shape) for _, p in refs)) == 1.0
        ends = np.cumsum([len(x) for x, _ in refs])
        blocks = [slice(end - len(x), end) for (x, _), end in zip(refs, ends)]
        for _ in range(12):
            u, rho = 0.3 * rng.normal(size=13), 2.0 + rng.normal(size=13)
            levels, flows = 0.1 * rng.normal(size=13), 3.0 + rng.normal(size=13)
            ys = [np.concatenate([levels[idx], flows[idx]]) for idx in reach_idx]
            est = kf_update(whole, est, u, rho, np.concatenate(ys))
            refs = [kf_step(f, *ref, u[idx], rho[idx], y)
                    for f, ref, idx, y in zip(filters, refs, reach_idx, ys)]
            for block, (xhat, cov) in zip(blocks, refs):
                assert np.max(np.abs(est.xhat[block] - xhat)) <= 1e-12 * np.max(np.abs(xhat))
                assert np.max(np.abs(est.cov[block, block] - cov)) <= 1e-12 * np.max(np.abs(cov))
            assert np.all(est.cov[~on_blocks] == 0.0)

    @pytest.mark.parametrize("members", [tuple(range(1, 14)), (5, 6)])
    def test_one_coalition_partition_is_its_own_filter(self, members):
        """A one-coalition partition steps bit for bit as the coalition's own filter."""
        rng = np.random.default_rng(3)
        filt = kalman_model(make_coalition(members), self.cfg)
        own = whole = warm_start(filt, random_window(rng, 5))
        m = len(members)
        for _ in range(10):
            u, rho, y = rng.normal(size=m), rng.normal(size=m), rng.normal(size=2 * m)
            own = kf_update(filt, own, u, rho, y)
            whole = kf_update(partition_filter([filt]), whole, u, rho, y)
            assert np.array_equal(own.xhat, whole.xhat) and np.array_equal(own.cov, whole.cov)


class TestComputeSetpoint:
    def test_singleton_mass_balance(self):
        coal = make_coalition((4,))
        xi_bar = compute_setpoint(coal, rho=[3.0], omega=[7.0])
        assert np.allclose(xi_bar[:2], 10.0)  # flows = offtake + downstream outflow
        assert xi_bar[2] == pytest.approx(0.0, abs=1e-12)

    def test_all_zero(self):
        coal = make_coalition((6,))
        xi_bar = compute_setpoint(coal, [0.0], [0.0])
        assert np.allclose(xi_bar, 0.0, atol=1e-12)

    def test_full_coalition_telescopes(self):
        coal = assemble_global(CHAIN)
        rho = np.array([2.0] * 13)
        rho[3] = 2.5
        rho[12] = 0.0
        xi_bar = compute_setpoint(coal, rho, np.zeros(0))
        expected = np.cumsum(rho[::-1])[::-1]
        gate_flows = xi_bar[coal.gate_flow_rows()]
        assert np.allclose(gate_flows, expected, atol=1e-9)
        assert np.allclose(coal.gamma @ xi_bar, 0.0, atol=1e-12)

    @pytest.mark.parametrize("members", [(4,), (5, 6), tuple(range(1, 14)), (3, 5, 6, 9)])
    def test_cached_factor_matches_direct_solve(self, members):
        """The closed form is the square system's solution, with zero input."""
        coal = make_coalition(members)
        rng = np.random.default_rng(len(members))
        for _ in range(3):
            rho = rng.uniform(0.0, 5.0, size=coal.m)
            omega = rng.uniform(0.0, 5.0, size=coal.n_channels)
            ref = np.concatenate(square_setpoint(coal, rho, omega))
            ours = np.concatenate([compute_setpoint(coal, rho, omega), np.zeros(coal.m)])
            assert np.allclose(ours, ref, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(ref))))


@st.composite
def setpoint_cases(draw):
    """A random reach table, a random (possibly non-contiguous) member set, rho and omega."""
    n = draw(st.integers(2, 20))
    areas = draw(st.lists(st.floats(1e4, 1e6), min_size=n, max_size=n))
    delays = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    members = draw(st.sets(st.integers(1, n), min_size=1))
    table = [ReachParams(i, a, d) for i, (a, d) in enumerate(zip(areas, delays), 1)]
    chain = build_chain(table, 300.0)
    coal = build_coalition_model(chain, members)
    rho = draw(hnp.arrays(float, coal.m, elements=st.floats(0.0, 20.0)))
    omega = draw(hnp.arrays(float, coal.n_channels, elements=st.floats(-5.0, 40.0)))
    return coal, rho, omega


class TestComputeSetpointProperty:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(setpoint_cases())
    def test_matches_square_system_and_is_fixed_point(self, case):
        coal, rho, omega = case
        xi_bar = compute_setpoint(coal, rho, omega)
        ref_xi, ref_u = square_setpoint(coal, rho, omega)
        scale = 1.0 + np.max(np.abs(ref_xi))
        assert np.max(np.abs(xi_bar - ref_xi)) <= 1e-12 * scale
        assert np.max(np.abs(ref_u)) <= 1e-12 * scale
        residual = coal.Xi @ xi_bar + coal.Phi @ rho + coal.Psi @ omega - xi_bar
        assert np.max(np.abs(residual)) <= 1e-12 * scale


@st.composite
def tables_and_weights(draw, max_reaches=20):
    """A random reach table and level, input and setpoint-slack weights over seven decades."""
    n = draw(st.integers(2, max_reaches))
    areas = draw(st.lists(st.floats(3.5, 6.5).map(lambda e: 10.0 ** e), min_size=n, max_size=n))
    delays = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    weight = st.floats(-2.0, 5.0).map(lambda e: 10.0 ** e)
    cfg = ControllerConfig(level_weight=draw(weight), input_weight=draw(weight),
                           setpoint_slack_weight=draw(weight))
    table = [ReachParams(i, a, d) for i, (a, d) in enumerate(zip(areas, delays), 1)]
    return build_chain(table, 300.0), cfg


class TestSetpointProgramProperty:
    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(tables_and_weights())
    def test_every_coalition_has_positive_definite_hessian(self, case):
        # QpStructure refuses an H without a Cholesky factor, so every
        # contiguous coalition's setpoint program building is the check.  The
        # gain enters only the input-box rows, so a zero gain builds the same
        # H as the synthesized one.
        chain, cfg = case
        n = len(chain)
        for first in range(1, n + 1):
            for last in range(first, n + 1):
                coal = build_coalition_model(chain, range(first, last + 1))
                prog = prepare_setpoint(coal, np.zeros((coal.m, coal.n)), cfg)
                assert prog.qp.n == coal.n + coal.m


class TestFeasibleSetpoint:
    cfg = ControllerConfig()

    def test_unconstrained_passthrough(self):
        coal = make_coalition((4,))
        k_gain, _ = synth(coal, self.cfg)
        prog = prepare_setpoint(coal, k_gain, self.cfg)
        xi_bar = compute_setpoint(coal, [3.0], [7.0])
        sp = feasible_setpoint(prog, [3.0], [7.0], xi_bar.copy(), self.cfg)
        assert sp.feasible
        assert np.allclose(sp.xi_s, xi_bar, atol=1e-7)
        assert np.allclose(sp.u_s, 0.0, atol=1e-7)
        assert np.linalg.norm(steady_slack(coal, sp, [3.0], [7.0]), np.inf) <= 1e-7

    def test_negative_flow_hits_floor(self):
        coal = make_coalition((8,))
        k_gain, _ = synth(coal, self.cfg)
        prog = prepare_setpoint(coal, k_gain, self.cfg)
        # disturbance estimate forcing a negative steady flow
        assert compute_setpoint(coal, [0.5], [-1.0])[0] < 0.0
        xi_now = np.array([0.5, 0.0])
        sp = feasible_setpoint(prog, [0.5], [-1.0], xi_now, self.cfg)
        flows = sp.xi_s[coal.flow_rows()]
        assert np.all(flows >= self.cfg.flow_margin - 1e-9)
        assert np.linalg.norm(steady_slack(coal, sp, [0.5], [-1.0]), np.inf) > 1e-6

    def test_matches_enumeration_oracle_on_one_reach(self):
        coal = make_coalition((8,))  # d = 1, smallest instance
        k_gain, _ = synth(coal, self.cfg)
        prog = prepare_setpoint(coal, k_gain, self.cfg)
        q_mat, r_mat = weight_matrices(coal, self.cfg)
        g_mat = self.cfg.setpoint_slack_weight * np.eye(2)
        for rho, omega, xi_now in [
            (0.5, -1.0, np.array([0.5, 0.0])),
            (2.0, 1.0, np.array([3.0, 0.4])),
            (0.0, 0.0, np.array([0.0, -3.0])),
        ]:
            sp = feasible_setpoint(prog, [rho], [omega], xi_now, self.cfg)
            # hand-assembled QP: variables (xi_s, u_s, sigma)
            h = np.zeros((5, 5))
            h[:2, :2] = 2 * q_mat
            h[2, 2] = 2 * r_mat[0, 0]
            h[3:, 3:] = 2 * g_mat
            f = np.zeros(5)
            i_xi = np.eye(2) - coal.Xi
            aeq = np.hstack([i_xi, -coal.Up, -np.eye(2)])
            beq = (coal.Phi @ np.array([rho]) + coal.Psi @ np.array([omega])).ravel()
            bound = self.cfg.input_bound
            kx = float((k_gain @ xi_now)[0])
            ain = np.array(
                [
                    [-1.0, 0.0, 0.0, 0.0, 0.0],
                    list(-k_gain[0]) + [1.0, 0.0, 0.0],
                    list(k_gain[0]) + [-1.0, 0.0, 0.0],
                ]
            )
            bin_ = np.array([-self.cfg.flow_margin, bound - kx, bound + kx])
            x_ref, obj_ref = brute_force_qp(h, f, aeq, beq, ain, bin_)
            ours = np.concatenate([sp.xi_s, sp.u_s, steady_slack(coal, sp, [rho], [omega])])
            obj_ours = 0.5 * ours @ h @ ours + f @ ours
            assert abs(obj_ours - obj_ref) <= 1e-6
            assert np.linalg.norm(ours - x_ref, np.inf) <= 1e-5

    @pytest.mark.parametrize("members", [(4,), (5, 6), tuple(range(1, 14))])
    def test_augmented_program_matches_plain_qp_oracle(self, members):
        """The program in delta = xi_s - xi_bar matches the plain QP over
        (xi_s, u_s, sigma) with the slacked steady-state equality.

        The oracle solves the plain QP (H = diag(2Q, 2R, 2G), singular) by
        enumeration over the rows a cutting-plane loop collects: once the
        relaxation's minimizer satisfies every row, it is the minimizer.
        """
        coal = make_coalition(members)
        k_gain, _ = synth(coal, self.cfg)
        prog = prepare_setpoint(coal, k_gain, self.cfg)
        n, m = coal.n, coal.m
        q_mat, r_mat = weight_matrices(coal, self.cfg)
        h = np.zeros((2 * n + m, 2 * n + m))
        h[:n, :n] = 2 * q_mat
        h[n:n + m, n:n + m] = 2 * r_mat
        h[n + m:, n + m:] = 2 * self.cfg.setpoint_slack_weight * np.eye(n)
        aeq = np.hstack([np.eye(n) - coal.Xi, -coal.Up, -np.eye(n)])
        # flow floor -xi_s <= -margin on every flow slot, then
        # K (xi_now - xi_s) + u_s within the input box
        flow_rows = coal.flow_rows()
        box = np.hstack([-k_gain, np.eye(m), np.zeros((m, n))])
        ain = np.vstack([-np.eye(2 * n + m)[flow_rows], box, -box])
        rng = np.random.default_rng(7)
        binding = 0
        for scale in (0.3, 1.0, 3.0, 0.3, 1.0, 3.0):
            rho, omega = rng.uniform(0, 2, m), rng.uniform(-3, 1, coal.n_channels)
            xi_now = compute_setpoint(coal, rho, omega) + rng.normal(0, scale, n)
            sp = feasible_setpoint(prog, rho, omega, xi_now, self.cfg)
            assert sp.feasible
            f = np.zeros(2 * n + m)
            beq = coal.Phi @ rho + coal.Psi @ omega
            kx = k_gain @ xi_now
            bin_ = np.concatenate([np.full(len(flow_rows), -self.cfg.flow_margin),
                                   self.cfg.input_bound - kx, self.cfg.input_bound + kx])
            rows = []
            while True:
                x_ref, _ = brute_force_qp(h, f, aeq, beq, ain[rows], bin_[rows])
                violated = np.nonzero(ain @ x_ref - bin_ > 1e-9)[0].tolist()
                if not violated:
                    break
                rows = sorted(rows + violated)
            binding += bool(rows)
            ours = np.concatenate([sp.xi_s, sp.u_s, steady_slack(coal, sp, rho, omega)])
            assert np.linalg.norm(ours - x_ref, np.inf) <= 1e-9 * (1 + np.linalg.norm(x_ref, np.inf))
        assert binding >= 2  # the flow floor or the input box shapes some projections

    def test_input_box_respected_exactly(self):
        coal = make_coalition((8,))
        k_gain, _ = synth(coal, self.cfg)
        prog = prepare_setpoint(coal, k_gain, self.cfg)
        xi_bar = compute_setpoint(coal, [2.0], [1.0])
        # current state far above target: pure feedback would exceed the box
        xi_now = xi_bar + np.array([0.0, 5.0])
        assert np.max(np.abs(k_gain @ (xi_now - xi_bar))) > self.cfg.input_bound
        sp = feasible_setpoint(prog, [2.0], [1.0], xi_now, self.cfg)
        total = k_gain @ (xi_now - sp.xi_s) + sp.u_s
        assert np.max(np.abs(total)) <= self.cfg.input_bound + 1e-8

    def test_centralized_floor_tie_enters_the_row_that_stays(self, monkeypatch):
        """From k = 72 of scenario1 reach 13's offtake is 0, and both delay
        slots of its gate violate the floor by exactly the margin.  The floor
        rows run from the last flow slot up, so the lowest-index tie rule
        enters the last slot's row, which stays: every centralized setpoint
        solve from then on ends after 2 iterations with that row alone active."""
        programs, solves = [], []
        real_prepare, real_solve = control.prepare_setpoint, control.solve_qp

        def prepare(*args):
            programs.append(real_prepare(*args))
            return programs[-1]

        def solve(structure, *args, **kwargs):
            sol = real_solve(structure, *args, **kwargs)
            if structure is programs[-1].qp:
                solves.append(sol)
            return sol

        monkeypatch.setattr(control, "prepare_setpoint", prepare)
        monkeypatch.setattr(control, "solve_qp", solve)
        run_centralized(scenario_1(), seed=0)
        (prog,) = programs
        last_slot = prog.coalition.flow_rows()[-1]
        assert len(solves) == 288
        for k, sol in enumerate(solves[72:], 72):
            assert sol.iterations == 2, k
            assert [prog.floor_rows[i] for i in sol.active_set] == [last_slot], k


class TestMpcStep:
    cfg = ControllerConfig()

    def test_origin_optimal(self):
        coal = make_coalition((9,))
        prog = prepare_mpc(coal, *synth(coal, self.cfg), self.cfg)
        sp = Setpoint(
            xi_s=np.array([2.0, 2.0, 0.0]),
            u_s=np.zeros(1),
            feasible=True,
        )
        sol = mpc_step(np.zeros(3), sp, prog, self.cfg)
        nu = prog.m * prog.n_c
        assert sol.status == "optimal"
        assert np.allclose(sol.x[:nu], 0.0, atol=1e-9)  # v'
        assert np.allclose(sol.x[nu:], 0.0, atol=1e-9)  # eps

    def test_centralized_decision_variable_count(self):
        coal = assemble_global(CHAIN)
        assert coal.m * self.cfg.control_horizon == 39

    def test_vprime_zero_unconstrained_nc_equals_np(self):
        cfg = ControllerConfig(control_horizon=10, prediction_horizon=10)
        coal = make_coalition((5,))
        prog = prepare_mpc(coal, *synth(coal, cfg), cfg)
        sp = Setpoint(np.array([4.0, 4.0, 0.0]), np.zeros(1), True)
        zeta = np.array([0.1, -0.05, 0.02])  # small: no constraint activity
        sol = mpc_step(zeta, sp, prog, cfg)
        assert sol.status == "optimal" and sol.active_set == ()
        assert not np.any(sol.x)  # v' and eps

    def test_vprime_zero_unconstrained_short_horizon(self):
        coal = make_coalition((5,))
        prog = prepare_mpc(coal, *synth(coal, self.cfg), self.cfg)
        sp = Setpoint(np.array([4.0, 4.0, 0.0]), np.zeros(1), True)
        zeta = np.array([0.05, -0.02, 0.01])
        sol = mpc_step(zeta, sp, prog, self.cfg)
        assert sol.status == "optimal" and sol.active_set == ()
        assert not np.any(sol.x)  # v' and eps

    def test_input_bound_binds_exactly(self):
        coal = make_coalition((10,))
        k_gain, p_mat = synth(coal, self.cfg)
        sp = Setpoint(np.array([3.0, 3.0, 0.0]), np.zeros(1), True)
        zeta = np.array([0.0, 0.0, 4.0])  # huge level error
        desired = float(np.max(np.abs(k_gain @ zeta)))
        assert desired > self.cfg.input_bound
        prog = prepare_mpc(coal, k_gain, p_mat, self.cfg)
        sol = mpc_step(zeta, sp, prog, self.cfg)
        assert sol.status == "optimal"
        u0 = k_gain @ zeta + sp.u_s + sol.x[:coal.m]  # K zeta + u_s + v'(0)
        assert abs(abs(u0[0]) - self.cfg.input_bound) <= 1e-8

    def test_slacks_zero_when_floor_clear(self):
        coal = make_coalition((6,))
        prog = prepare_mpc(coal, *synth(coal, self.cfg), self.cfg)
        sp = Setpoint(np.array([5.0] * 3 + [0.0]), np.zeros(1), True)
        zeta = np.array([0.2, 0.1, -0.1, 0.3])
        sol = mpc_step(zeta, sp, prog, self.cfg)
        assert np.allclose(sol.x[prog.m * prog.n_c:], 0.0, atol=1e-10)  # eps


class TestStackedHorizonMaps:
    """mpc_step's inequality data and verdict against a step-by-step rollout."""

    cfg = ControllerConfig()

    def _programs(self, members):
        coal = make_coalition(members)
        gain, p_mat = synth(coal, self.cfg)
        return coal, gain, prepare_mpc(coal, gain, p_mat, self.cfg)

    def _production(self, prog, zeta0, sp, monkeypatch):
        """mpc_step's result, the bin it hands to solve_qp and the solve's wall
        time."""
        handed = []

        def spy(structure, bin=None, start=()):
            began = time.perf_counter()
            sol = numerics.solve_qp(structure, bin, start=start)
            handed.append((bin, time.perf_counter() - began))
            return sol

        monkeypatch.setattr(control, "solve_qp", spy)
        step = mpc_step(zeta0, sp, prog, self.cfg)
        return (step,) + handed[0]

    def _oracle(self, coal, gain, zeta0, sp):
        cfg = self.cfg
        return looped_mpc_data(coal.Xi + coal.Up @ gain, coal.Up, gain, coal.flow_selector(),
                               zeta0, sp.xi_s, sp.u_s, cfg.prediction_horizon,
                               cfg.control_horizon, cfg.input_bound, cfg.flow_margin)

    @staticmethod
    def _setpoint(coal, rng):
        xi_s = np.zeros(coal.n)
        xi_s[coal.flow_rows()] = rng.uniform(0.0, 3.0, size=len(coal.flow_rows()))
        return Setpoint(xi_s, rng.uniform(-0.5, 0.5, size=coal.m), True)

    @pytest.mark.parametrize("members", [(4,), (5, 6), tuple(range(1, 14))])
    def test_random_states_match_horizon_loop(self, members, monkeypatch):
        coal, gain, prog = self._programs(members)
        rng = np.random.default_rng(sum(members))
        outcomes = set()
        for _ in range(12):
            sp = self._setpoint(coal, rng)
            zeta0 = rng.normal(scale=rng.choice([0.05, 0.5, 5.0]), size=coal.n)
            step, bin_, _ = self._production(prog, zeta0, sp, monkeypatch)
            ref_bin, start = self._oracle(coal, gain, zeta0, sp)
            assert bin_.shape == ref_bin.shape
            assert np.max(np.abs(bin_ - ref_bin)) <= 1e-12 * max(1.0, np.max(np.abs(ref_bin)))
            if start is not None:
                # The clamped feedback law is a feasible point of the QP.
                start_obj = 0.5 * start @ prog.qp.H @ start
                assert step.status == "optimal"
                assert 0.5 * step.x @ prog.qp.H @ step.x <= start_obj + 1e-12 * (1.0 + abs(start_obj))
            outcomes.add(start is None)
        assert outcomes == {True, False}  # both branches exercised

    @pytest.mark.parametrize("scale", [0.5, 2.0, 5.0])
    def test_infeasible_verdict_matches_feasibility_lp(self, scale, monkeypatch):
        """mpc_step reports 'infeasible' exactly when an LP over its rows finds no point."""
        coal, gain, prog = self._programs(tuple(range(1, 14)))
        rng = np.random.default_rng(13)
        for _ in range(14):
            sp = self._setpoint(coal, rng)
            zeta0 = rng.normal(scale=scale, size=coal.n)
            step, bin_, elapsed = self._production(prog, zeta0, sp, monkeypatch)
            lp = scipy.optimize.linprog(np.zeros(prog.qp.n), A_ub=prog.qp.Ain, b_ub=bin_,
                                        bounds=(None, None), method="highs")
            assert lp.status in (0, 2)  # solved or infeasible
            assert step.status == ("infeasible" if lp.status == 2 else "optimal")
            assert elapsed < 1.0


class TestStackedCondensation:
    """prepare_mpc's stacked products against a term-by-term horizon loop."""

    @pytest.mark.parametrize("horizons", [(10, 3), (10, 10), (4, 1)], ids=str)
    @pytest.mark.parametrize("members", [(4,), (5, 6), tuple(range(1, 14))])
    def test_matches_looped_build(self, members, horizons):
        cfg = ControllerConfig(prediction_horizon=horizons[0], control_horizon=horizons[1])
        coal = make_coalition(members)
        gain, p_mat = synth(coal, cfg)
        prog = prepare_mpc(coal, gain, p_mat, cfg)
        q_mat, r_mat = weight_matrices(coal, cfg)
        looped = looped_mpc_program(coal.Xi + coal.Up @ gain, coal.Up, gain, q_mat, r_mat, p_mat,
                                    coal.flow_selector(), *horizons, cfg.slack_weight)
        for stacked, ref in zip((prog.qp.H, prog.qp.Ain, prog.box_map, prog.floor_map), looped):
            assert stacked.shape == ref.shape
            assert np.max(np.abs(stacked - ref)) <= 1e-12 * np.max(np.abs(ref))


def _assert_zero_gradient(coal, cfg, rng, samples=3):
    """The certified synthesis's K and P leave the condensed MPC cost with zero
    gradient at v' = 0 for random zeta0, relative to max |H|."""
    rec = _synthesize_one(coal, cfg)
    h_max = np.max(np.abs(prepare_mpc(coal, rec.gain, rec.p_mat, cfg).qp.H))
    q_mat, r_mat = weight_matrices(coal, cfg)
    for _ in range(samples):
        zeta0 = rng.normal(size=coal.n)
        grad = costate_gradient(coal.Xi + coal.Up @ rec.gain, coal.Up, rec.gain, q_mat, r_mat,
                                rec.p_mat, zeta0, cfg.prediction_horizon, cfg.control_horizon)
        assert grad.shape == (coal.m * cfg.control_horizon,)
        assert np.max(np.abs(grad)) <= 1e-9 * (1.0 + h_max) * np.max(np.abs(zeta0))


class TestZeroLinearTerm:
    """mpc_step passes solve_qp no linear term: the condensed cost's gradient at
    v' = 0, from a backward costate sweep, vanishes for every coalition."""

    cfg = ControllerConfig()

    def test_every_dez_coalition(self):
        rng = np.random.default_rng(24)
        for first in range(1, 14):
            for last in range(first, 14):
                _assert_zero_gradient(make_coalition(range(first, last + 1)), self.cfg, rng)

    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(tables_and_weights(max_reaches=8))
    def test_every_coalition_of_random_tables(self, case):
        chain, cfg = case
        rng = np.random.default_rng(len(chain))
        for first in range(1, len(chain) + 1):
            for last in range(first, len(chain) + 1):
                _assert_zero_gradient(build_coalition_model(chain, range(first, last + 1)),
                                      cfg, rng)

    def test_costate_sweep_matches_rollout_differences(self):
        """With a terminal cost from other weights the gradient is not zero, and
        the sweep gives the central differences of the rolled-out cost (exact
        for a quadratic, up to round-off)."""
        cfg, coal = self.cfg, make_coalition((5, 6))
        gain, _ = synth(coal, cfg)
        _, p_mat = synth(coal, ControllerConfig(level_weight=2.0 * cfg.level_weight))
        q_mat, r_mat = weight_matrices(coal, cfg)
        acl, n_p, n_c, m = coal.Xi + coal.Up @ gain, cfg.prediction_horizon, cfg.control_horizon, coal.m
        zeta0 = np.random.default_rng(5).normal(size=coal.n)

        def cost(v):
            z, total = zeta0, 0.0
            for t in range(n_p):
                move = v[t * m:(t + 1) * m] if t < n_c else np.zeros(m)
                u = gain @ z + move
                total += (z @ q_mat @ z if t else 0.0) + u @ r_mat @ u
                z = acl @ z + coal.Up @ move
            return total + z @ p_mat @ z

        grad = costate_gradient(acl, coal.Up, gain, q_mat, r_mat, p_mat, zeta0, n_p, n_c)
        steps = 1e-2 * np.eye(m * n_c)
        diffs = np.array([(cost(h) - cost(-h)) / 2e-2 for h in steps])
        assert np.max(np.abs(grad)) > 1.0
        assert np.max(np.abs(grad - diffs)) <= 1e-6 * np.max(np.abs(grad))


class TestControlAction:
    """compute applies u = K zeta + u_s + v'(0), inside the input box."""

    cfg = ControllerConfig()

    def _compute(self, members, level, monkeypatch):
        """u, the MPC's zeta0, setpoint and solution of one compute on a
        controller warm-started at rest with the first member's level at `level`."""
        coal = make_coalition(members)
        ctrl = CoalitionController(coal, *synth(coal, self.cfg), self.cfg)
        levels, flows, offs = steady_global_arrays({s: 3.0 for s in range(members[0], 14)},
                                                   {members[-1]: 1.0})
        levels[members[0] - 1] = level
        kf = warm_start(ctrl.filter, at_rest(levels, flows, offs))
        seen, real = [], control.mpc_step

        def spy(zeta0, setpoint, prog, cfg, start=()):
            seen.append((zeta0, setpoint, real(zeta0, setpoint, prog, cfg, start)))
            return seen[-1][2]

        monkeypatch.setattr(control, "mpc_step", spy)
        u, setpoint = ctrl.compute(offs, kf.xhat)
        ((zeta0, handed, sol),) = seen
        assert handed is setpoint
        return ctrl, u, zeta0, setpoint, sol

    @pytest.mark.parametrize("members, level", [((7,), 0.5), ((5, 6), 2.0), ((10,), 4.0)])
    def test_feedback_plus_setpoint_plus_first_move(self, members, level, monkeypatch):
        ctrl, u, zeta0, sp, sol = self._compute(members, level, monkeypatch)
        assert sol.optimal
        assert np.array_equal(u, ctrl.gain @ zeta0 + sp.u_s + sol.x[:ctrl.model.m])
        assert np.max(np.abs(u)) <= self.cfg.input_bound + 1e-9

    def test_sign_level_high_reduces_inflow(self, monkeypatch):
        _, u, *_ = self._compute((7,), 0.5, monkeypatch)  # level above target
        assert u[0] < 0.0


def _stepped_controller(members, cfg):
    """A controller on `members` warm-started at steady state and stepped a few times."""
    coal = make_coalition(members)
    ctrl = CoalitionController(coal, *synth(coal, cfg), cfg)
    gate_flows = {s: 3.0 for s in range(members[0], 14)}
    levels, flows, offs = steady_global_arrays(gate_flows, {members[-1]: 1.0})
    kf = warm_start(ctrl.filter, at_rest(levels, flows, offs))
    y = np.concatenate([levels[ctrl.idx], flows[ctrl.idx]])
    for _ in range(5):
        ctrl.compute(offs, kf.xhat)
        kf = kf_update(ctrl.filter, kf, np.zeros(coal.m), offs[ctrl.idx], y)
    return ctrl


class TestBuiltOncePrograms:
    cfg = ControllerConfig()

    @pytest.mark.parametrize("members", [(4,), (5, 6)])
    def test_programs_equal_fresh_build(self, members):
        ctrl = _stepped_controller(members, self.cfg)
        coal = ctrl.model
        fresh_filter = kalman_model(coal, self.cfg)
        for name in ("f_mat", "b_mat", "phi_mat", "c_mat", "w_mat", "v_mat", "prior"):
            assert np.array_equal(getattr(ctrl.filter, name), getattr(fresh_filter, name))
        fresh = prepare_setpoint(coal, ctrl.gain, self.cfg)
        kept = ctrl.setpoint_program
        assert kept.floor_rows == fresh.floor_rows
        # The kept H, rows and L^-1 are those of a fresh build.
        for name in ("H", "Ain", "chol_inv"):
            assert np.array_equal(getattr(kept.qp, name), getattr(fresh.qp, name))
        assert np.array_equal(ctrl.program.qp.H, prepare_mpc(coal, *synth(coal, self.cfg),
                                                             self.cfg).qp.H)

    def test_filter_matrices_match_model(self):
        coal = make_coalition((5, 6))
        filt = kalman_model(coal, self.cfg)
        n, r, m = coal.n, coal.n_channels, coal.m
        assert np.array_equal(filt.f_mat, np.block([
            [coal.Xi, coal.Psi], [np.zeros((r, n)), np.eye(r)]]))
        assert np.array_equal(filt.c_mat[:m, :n], coal.gamma)
        assert np.array_equal(filt.c_mat[m:, :n], coal.gate_flow_selector())
        assert not np.any(filt.c_mat[:, n:])
        assert np.array_equal(filt.b_mat[:n], coal.Up) and not np.any(filt.b_mat[n:])
        assert np.array_equal(filt.phi_mat[:n], coal.Phi) and not np.any(filt.phi_mat[n:])
        w = np.diag(filt.w_mat)
        assert np.all(w[coal.level_rows()] == self.cfg.kf_level_process_noise)
        assert np.all(w[coal.flow_rows()] == self.cfg.kf_flow_process_noise)
        assert np.all(w[n:] == self.cfg.kf_omega_process_noise)

    def test_non_finite_level_raises(self, monkeypatch):
        """A NaN level, a NaN gate flow and an inf gate flow are each refused where
        the run loop gathers the partition measurement, naming the step and the
        coalition of the measurement's first bad entry."""
        singletons = SimpleNamespace(topology=Topology(13, frozenset()))
        monkeypatch.setattr(simulate, "select_topology", lambda *args: singletons)
        real = simulate.Plant.measure
        for which, value in [("levels", np.nan), ("flows", np.nan), ("flows", np.inf)]:
            calls = []

            def measure(plant):
                measured = dict(zip(("levels", "flows"), real(plant)))
                calls.append(None)
                if len(calls) == 3:  # step 2; the first call measures the plant at rest
                    measured[which][3] = value
                    measured["levels"][8] = np.nan  # reach 9: after reach 4 in the partition's order
                return measured["levels"], measured["flows"]

            monkeypatch.setattr(simulate.Plant, "measure", measure)
            with pytest.raises(ValueError,
                               match=r"step 2: non-finite measurement for coalition \(4,\)"):
                run_closed_loop(scenario_1(horizon=4), seed=0, cache=SynthesisCache())


class TestOffsetFreeClosedLoop:
    def test_single_coalition_rejects_unknown_outflow(self):
        """Constant unmeasured external outflow: level errors vanish, no active constraints."""
        cfg = ControllerConfig()
        coal = make_coalition((10,))
        k_gain, p_mat = synth(coal, cfg)
        ctrl = CoalitionController(coal, k_gain, p_mat, cfg)

        w_true, p_off = 2.0, 1.0
        q0 = p_off  # controller starts believing there is no external outflow
        x = np.array([q0, q0, 0.0])
        levels, flows, offs = steady_global_arrays({10: q0}, {10: p_off})
        kf = warm_start(ctrl.filter, at_rest(levels, flows, offs))

        horizon = 300
        last_u = np.zeros(1)
        for k in range(horizon):
            u, sp = ctrl.compute(offs, kf.xhat)
            assert np.max(np.abs(u)) <= cfg.input_bound + 1e-9
            x = coal.Xi @ x + coal.Up @ u + coal.Phi @ np.array([p_off]) + coal.Psi @ np.array([w_true])
            kf = kf_update(ctrl.filter, kf, u, np.array([p_off]), np.array([x[2], x[0]]))
            last_u = u
        assert abs(x[2]) < 1e-3  # level error rejected
        # steady state: inputs well inside the box, flows well above the floor
        assert np.max(np.abs(last_u)) < 0.5 * cfg.input_bound
        assert x[0] > cfg.flow_margin + 0.5
        omega = kf.xhat[coal.n:]
        assert abs(omega[0] - w_true) < 1e-2
