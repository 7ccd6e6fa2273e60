"""Per-coalition control: disturbance estimation, setpoints, and MPC.

Each coalition runs an offset-free regulation scheme.  A Kalman filter on
the augmented state [xi; w] treats the boundary coupling w (downstream
outflow of the most downstream member) as a constant integrating
disturbance, so steady-state level errors vanish even under model-plant
mismatch.  The filter measures the member level errors and the gate flows
(gates carry local flow controllers, hence flow meters); without the flow
measurements the pair (flows, w) would drift along an unobservable
direction.

The control action applied at time k is

    u = K zeta + u_s + v'(0)

where (xi_s, u_s) is the feasible setpoint, zeta = xi - xi_s, K the
coalition feedback gain, and v' the first move of the auxiliary MPC that
rectifies the feedback law against the hard input box and the soft flow
floor.  PartitionController.step applies it to every coalition of a
partition at once, forming all coalitions' QP right-hand sides together.
A coalition whose QP rows all hold at the QP's zero start takes that
optimum, xi_s = xi_bar (compute_setpoint's steady state), u_s = 0 and
v' = 0; any other coalition's setpoint comes from feasible_setpoint, and
its MPC solution, whose first m entries are v'(0), from mpc_step.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import numerics
from .canal import CoalitionModel
from .numerics import QpSolution, QpStructure, block_diag, solve_qp


@dataclass
class ControllerConfig:
    """Controller parameters; defaults reproduce the case-study tuning."""

    prediction_horizon: int = 10     # N_p
    control_horizon: int = 3         # N_c
    level_weight: float = 250.0      # Q, on level errors only
    input_weight: float = 2800.0     # R, on flow increments
    slack_weight: float = 1.0e4      # S, on flow-floor violations
    setpoint_slack_weight: float = 1.0e3  # G, on the setpoint equality slack
    link_cost: float = 0.6           # c_l
    sample_time: float = 300.0       # seconds
    input_bound: float = 1.0         # |dq| <= bound, m^3/s
    flow_margin: float = 0.01        # q >= margin, m^3/s (QP-representable floor)
    # Kalman settings: the disturbance channel gets the largest drive so the
    # estimate adapts within tens of steps.
    kf_flow_process_noise: float = 1e-4
    kf_level_process_noise: float = 1e-6
    kf_omega_process_noise: float = 1e-2
    kf_measurement_noise: float = 1e-4
    kf_prior_flow: float = 1.0
    kf_prior_level: float = 1e-2
    kf_prior_omega: float = 10.0
    history_capacity: int = 20      # run-record rows a new filter replays, at least 1
    # Supervisory rollout length when scoring candidate topologies.  Long
    # enough to expose slow cross-coalition externalities (the slowest pool
    # settles in ~100 steps); the topology choice itself still applies for
    # t_lambda steps only.
    preview_horizon: int = 120

    def __post_init__(self):
        if self.control_horizon > self.prediction_horizon:
            raise ValueError("control horizon must not exceed prediction horizon")
        if self.control_horizon < 1:
            raise ValueError("control horizon must be at least 1")
        for name in ("level_weight", "input_weight", "slack_weight", "setpoint_slack_weight",
                     "sample_time", "input_bound", "kf_measurement_noise"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("link_cost", "kf_flow_process_noise", "kf_level_process_noise",
                     "kf_omega_process_noise", "kf_prior_flow", "kf_prior_level", "kf_prior_omega"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not -np.inf < self.flow_margin < np.inf:
            raise ValueError("flow_margin must be finite")
        if self.history_capacity < 1:
            raise ValueError("history_capacity must be at least 1")


def weight_matrices(coalition: CoalitionModel, cfg: ControllerConfig):
    """Per-coalition state and input weights (state weight on levels only)."""
    q = cfg.level_weight * (coalition.gamma.T @ coalition.gamma)
    r = cfg.input_weight * np.eye(coalition.m)
    return q, r


# ---------------------------------------------------------------------------
# Kalman filter with integrating boundary disturbance
# ---------------------------------------------------------------------------


@dataclass
class KalmanState:
    """Augmented estimate [xi_hat; omega_hat] and its covariance."""

    xhat: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class KalmanModel:
    """Filter matrices on [xi; w]: a coalition's, built once per controller,
    or a partition's (partition_filter), whose coalition is None."""

    coalition: CoalitionModel | None
    f_mat: np.ndarray
    b_mat: np.ndarray   # input map: Up, zero rows on the channels
    phi_mat: np.ndarray  # offtake map: Phi, zero rows on the channels
    c_mat: np.ndarray   # measured: member level errors and gate flows
    w_mat: np.ndarray
    v_mat: np.ndarray
    prior: np.ndarray   # diagonal of the warm-start prior covariance


def kalman_model(coalition, cfg) -> KalmanModel:
    """Build a coalition's augmented filter matrices from the config's noise settings."""
    n, r = coalition.n, coalition.n_channels
    f_mat = np.zeros((n + r, n + r))
    f_mat[:n, :n] = coalition.Xi
    f_mat[:n, n:] = coalition.Psi
    f_mat[n:, n:] = np.eye(r)
    b_mat, phi_mat = np.zeros((2, n + r, coalition.m))
    b_mat[:n], phi_mat[:n] = coalition.Up, coalition.Phi
    c_mat = np.zeros((2 * coalition.m, n + r))
    c_mat[: coalition.m, :n] = coalition.gamma
    c_mat[coalition.m:, :n] = coalition.gate_flow_selector()
    w_diag = np.empty(n + r)
    w_diag[:n] = cfg.kf_flow_process_noise
    w_diag[coalition.level_rows()] = cfg.kf_level_process_noise
    w_diag[n:] = cfg.kf_omega_process_noise
    v_mat = cfg.kf_measurement_noise * np.eye(2 * coalition.m)
    prior = np.empty(n + r)
    prior[:n] = cfg.kf_prior_flow
    prior[coalition.level_rows()] = cfg.kf_prior_level
    prior[n:] = cfg.kf_prior_omega
    return KalmanModel(coalition, f_mat, b_mat, phi_mat, c_mat, np.diag(w_diag), v_mat, prior)


def partition_filter(filters) -> KalmanModel:
    """One filter for a partition: its coalitions' filters, in chain order, on the diagonal.

    The coalitions tile the chain, so the input and offtake maps take the
    global u and rho as they are, and the measurement stacks each
    coalition's [levels; flows] in turn.  With a block-diagonal covariance,
    kf_update keeps it block-diagonal, each block its coalition's own filter:
    F, C, W and V are block-diagonal and LU's partial pivoting stays within
    a block of the innovation covariance.
    """
    return KalmanModel(None, *[block_diag(*[getattr(f, name) for f in filters]) for name in
                               ("f_mat", "b_mat", "phi_mat", "c_mat", "w_mat", "v_mat")],
                       np.concatenate([f.prior for f in filters]))


def _x_predict(filt, xhat, u, rho):
    return filt.f_mat @ xhat + (filt.b_mat @ u + filt.phi_mat @ rho)


def _x_correct(filt, xhat, gain, y):
    return xhat + gain @ (y - filt.c_mat @ xhat)


def _cov_predict(filt, cov):
    cov = filt.f_mat @ cov @ filt.f_mat.T + filt.w_mat
    return 0.5 * (cov + cov.T)


def _cov_correct(filt, cov):
    """Kalman gain and corrected covariance; neither reads the measurement."""
    c_mat, v_mat = filt.c_mat, filt.v_mat
    cp = c_mat @ cov
    s_mat = cp @ c_mat.T + v_mat
    gain = np.linalg.solve(s_mat, cp).T  # s_mat > 0: V > 0 is checked in the config
    ikc = np.eye(cov.shape[0]) - gain @ c_mat
    cov = ikc @ cov @ ikc.T + gain @ v_mat @ gain.T
    return gain, 0.5 * (cov + cov.T)


def kf_update(filt: KalmanModel, kf, u_applied, rho, y) -> KalmanState:
    """One predict/correct cycle: state advances under (u, rho), then y lands."""
    gain, cov = _cov_correct(filt, _cov_predict(filt, kf.cov))
    return KalmanState(_x_correct(filt, _x_predict(filt, kf.xhat, u_applied, rho), gain, y), cov)


def kf_schedule(filt: KalmanModel, length: int):
    """Gains, stacked (length, n + r, 2m), and final covariance of a warm start.

    The covariance recursion reads no measurement: one correction of
    diag(prior), then length - 1 predict/correct steps, as in kf_update.
    """
    gain, cov = _cov_correct(filt, np.diag(filt.prior))
    gains = np.empty((length,) + gain.T.shape)
    gains[0] = gain.T
    for j in range(1, length):
        gain, cov = _cov_correct(filt, _cov_predict(filt, cov))
        gains[j] = gain.T
    return gains.transpose(0, 2, 1), cov


def kf_init(filt: KalmanModel, window, schedule) -> KalmanState:
    """Warm-start a coalition filter by replaying a window of the run record.

    window is (4, L, N): levels, flows, inputs and offtakes of every reach
    over L rows, oldest first.  The prior is a steady state consistent with
    the oldest row: flow slots filled with the measured gate flow, levels
    as measured, and each disturbance channel set to the mass-balance
    residual q_s - p_s of the member s it attaches to (a zero prior would
    contradict the measured flows and, producing no innovation at steady
    state, never get corrected).  Only the estimate is replayed: row j's
    correction uses gain j of `schedule`, kf_schedule(filt, L), whose final
    covariance the returned state carries.
    """
    gains, cov = schedule
    length = window.shape[1]
    if not 1 <= length == len(gains):
        raise ValueError("window must hold at least one row, one per schedule gain")
    coalition = filt.coalition
    n, r = coalition.n, coalition.n_channels
    levels, flows, _, offtakes = window[:, 0]

    xhat = np.zeros(n + r)
    xhat[:n] = coalition.stack_state([flows] * max(coalition.delays), levels)
    for c, source in enumerate(coalition.coupling_sources):
        attached = source - 1
        xhat[n + c] = flows[attached - 1] - offtakes[attached - 1]

    members = window[:, :, np.array(coalition.members) - 1]        # gathered: (4, L, m)
    ys = members[:2].transpose(1, 0, 2).reshape(length, -1)         # [levels; flows] per row
    xhat = _x_correct(filt, xhat, gains[0], ys[0])
    for gain, y, u, rho in zip(gains[1:], ys[1:], members[2], members[3]):
        xhat = _x_correct(filt, _x_predict(filt, xhat, u, rho), gain, y)
    return KalmanState(xhat, cov)


# ---------------------------------------------------------------------------
# Setpoints
# ---------------------------------------------------------------------------


@dataclass
class Setpoint:
    """Feasible operating point: state xi_s and input u_s; feasible is False
    when the projection QP stopped short of optimal."""

    xi_s: np.ndarray
    u_s: np.ndarray
    feasible: bool


def compute_setpoint(coalition, rho, omega):
    """Steady state with zero level errors compensating offtakes and omega.

    A settled gate passes its reach's offtake plus what the gate below it
    passes: the next member's flow, the omega channel sourced there, or
    nothing below the chain's last reach.  Walking the members upstream
    gives every gate flow, which fills its delay line; levels are zero and
    no input is needed, so xi_bar = Xi xi_bar + Phi rho + Psi omega.
    Offtakes are checked where a Scenario is built; rho and omega are
    those offtakes or flows derived from them.
    """
    rho = np.asarray(rho, dtype=float).reshape(coalition.m)
    omega = np.asarray(omega, dtype=float).reshape(coalition.n_channels)
    below = dict(zip(coalition.coupling_sources, omega.tolist()))
    for s, p in zip(coalition.members[::-1], rho[::-1].tolist()):
        below[s] = p + below.get(s + 1, 0.0)
    xi_bar = np.zeros(coalition.n)
    xi_bar[coalition.flow_rows()] = np.repeat([below[s] for s in coalition.members],
                                              coalition.delays)
    return xi_bar


@dataclass(frozen=True, eq=False)
class SetpointProgram:
    """State-independent parts of one coalition's setpoint projection QP.

    Over y = (delta, u_s), H and Ain depend only on the coalition, its gain
    and the weights; a projection fills in bin.  floor_rows are the state
    rows of the flow-floor inequalities, in their QP row order.
    """

    coalition: CoalitionModel
    gain: np.ndarray
    floor_rows: list
    qp: QpStructure


def prepare_setpoint(coalition, gain, cfg) -> SetpointProgram:
    """Assemble the setpoint projection QP's fixed blocks (done once per controller).

    With xi_s = xi_bar + delta around compute_setpoint's xi_bar, the
    steady-state slack is sigma = A y with A = [I - Xi, -Up], and the cost
    xi_s' Q xi_s + u_s' R u_s + G |sigma|^2 (G the setpoint slack weight) is
    0.5 y'Hy with H = 2 diag(Q, R) + 2G A'A: Q weighs levels only and xi_bar
    has zero levels.  As Q > 0 on levels and [I - Xi; gamma] has full
    column rank, H is positive definite.
    """
    n, m = coalition.n, coalition.m
    q_mat, r_mat = weight_matrices(coalition, cfg)
    slack_map = np.hstack([np.eye(n) - coalition.Xi, -coalition.Up])
    h_mat = 2.0 * cfg.setpoint_slack_weight * (slack_map.T @ slack_map)
    h_mat[:n, :n] += 2.0 * q_mat
    h_mat[n:, n:] += 2.0 * r_mat

    # Floor rows run from the last flow slot up.  Once the last reach's
    # offtake is 0 (Dez scenario1 from k = 72), both delay slots of its gate
    # violate the floor by exactly the margin; the lowest-index tie rule then
    # enters the last slot, the one that stays active, rather than one that
    # must leave again (504 centralized setpoint iterations per run against
    # 936 in flow_rows() order).
    floor_rows = coalition.flow_rows()[::-1]
    n_q = len(floor_rows)
    ain = np.zeros((n_q + 2 * m, n + m))
    ain[np.arange(n_q), floor_rows] = -1.0
    ain[n_q:n_q + m, :n] = -gain
    ain[n_q:n_q + m, n:] = np.eye(m)
    ain[n_q + m:] = -ain[n_q:n_q + m]

    return SetpointProgram(
        coalition=coalition, gain=gain, floor_rows=floor_rows, qp=QpStructure(h_mat, ain),
    )


def feasible_setpoint(prog: SetpointProgram, xi_bar, bin_) -> Setpoint:
    """Project the steady state xi_bar onto the constraints; bin_ is the QP's right-hand side.

    Minimizes u_s' R u_s + xi_s' Q xi_s + sigma' G sigma, where sigma is the
    slack of the steady-state equality (I - Xi) xi_s - Up u_s = Phi rho +
    Psi omega, subject to the flow floor on every flow section and the input
    box evaluated at the current state.  The QP is posed in delta = xi_s -
    xi_bar around compute_setpoint's xi_bar (see prepare_setpoint), so
    without active constraints the minimizer is xi_bar with u_s = 0 and
    sigma = 0.  `prog` is the coalition's program from prepare_setpoint,
    and bin_ its rows' right-hand side at the current state xi_k,
    PartitionController.setpoint_rhs: the flow floor -delta <= xi_bar -
    margin, then K (xi_k - xi_bar - delta) + u_s within the box.
    """
    sol = solve_qp(prog.qp, bin_)
    if sol.status == numerics.INFEASIBLE:
        raise RuntimeError(
            f"setpoint projection infeasible for coalition {prog.coalition.members}"
        )
    n = prog.coalition.n
    return Setpoint(xi_bar + sol.x[:n], sol.x[n:], feasible=sol.optimal)


# ---------------------------------------------------------------------------
# Auxiliary MPC
# ---------------------------------------------------------------------------


@dataclass
class MpcProgram:
    """State-independent parts of the condensed MPC QP for one coalition.

    The soft flow floor is imposed for t in [1, N_c]: the steps the free
    moves can actually steer.  Penalizing predicted floor violations of the
    pure-feedback tail would let the slack cost coerce the applied input
    into raising flows whenever a level error cannot be drained (terminal
    reach with zero offtake), destabilizing the loop; the hard input box is
    kept over the whole horizon, which is what recursive feasibility of the
    applied law needs.
    """

    n_p: int
    n_c: int
    n_q: int
    m: int
    box_map: np.ndarray         # K Acl^t stacked for t = 0..N_p: feedback inputs from zeta0
    floor_map: np.ndarray       # flow_sel Acl^t stacked for t = 1..N_c: free-run flows
    qp: QpStructure             # Hessian over x = (v', eps); floor rows, then box rows


def prepare_mpc(coalition, gain, p_mat, cfg) -> MpcProgram:
    """Condense the coalition MPC into dense QP blocks (done once per controller).

    H and Ain go into the program's QpStructure, checked and factored; a
    step fills in only bin (PartitionController.mpc_rhs).  K and P come from one certified Riccati
    synthesis with these weight_matrices, so R K + Up' P Acl = 0 and
    P = Q + K'RK + Acl' P Acl.  Completing the square step by step, the
    horizon cost is zeta0' P zeta0 plus v'(t)' (R + Up' P Up) v'(t) summed
    over t < N_c: there is no linear term, and the Hessian in the free moves
    is block-diagonal, up to the certified Riccati residual.
    """
    n, m = coalition.n, coalition.m
    n_p, n_c = cfg.prediction_horizon, cfg.control_horizon
    _, r_mat = weight_matrices(coalition, cfg)
    acl = coalition.Xi + coalition.Up @ gain

    powers = np.empty((n_p + 1, n, n))   # Acl^t
    powers[0] = np.eye(n)
    for t in range(n_p):
        powers[t + 1] = acl @ powers[t]

    nu = m * n_c
    # zeta(t) = powers[t] zeta0 + t_maps[t] @ u; block j of t_maps[t] is Acl^(t-1-j) Up
    drive = powers[:n_p] @ coalition.Up
    t_maps = np.zeros((n_p + 1, n, nu))
    for j in range(n_c):
        t_maps[j + 1:, :, j * m:(j + 1) * m] = drive[:n_p - j]
    # u(t) = gain @ powers[t] zeta0 + m_maps[t] @ u, with v'(t) = 0 from t = N_c on
    m_maps = gain @ t_maps
    for t in range(n_c):
        m_maps[t, :, t * m:(t + 1) * m] += np.eye(m)
    h_uu = 2.0 * np.kron(np.eye(n_c), r_mat + coalition.Up.T @ p_mat @ coalition.Up)

    flow_sel = coalition.flow_selector()
    n_q = flow_sel.shape[0]
    n_eps = n_q * n_c
    nz = nu + n_eps
    h_mat = np.zeros((nz, nz))
    h_mat[:nu, :nu] = h_uu
    h_mat[nu:, nu:] = 2.0 * cfg.slack_weight * np.eye(n_eps)

    # Ain rows: soft flow floor for t = 1..N_c, eps >= 0, then the hard input
    # box's upper and lower halves for t = 0..N_p.
    n_box = m * (n_p + 1)
    ain = np.zeros((2 * n_eps + 2 * n_box, nz))
    ain[:n_eps, :nu] = -(flow_sel @ t_maps[1:n_c + 1]).reshape(n_eps, nu)
    ain[:n_eps, nu:] = ain[n_eps:2 * n_eps, nu:] = -np.eye(n_eps)
    ain[2 * n_eps:2 * n_eps + n_box, :nu] = m_maps.reshape(n_box, nu)
    ain[2 * n_eps + n_box:, :nu] = -m_maps.reshape(n_box, nu)

    box_map = (gain @ powers).reshape(n_box, n)
    floor_map = (flow_sel @ powers[1:n_c + 1]).reshape(n_eps, n)
    del powers, drive, t_maps, m_maps  # freed before H is factored: a lower peak
    return MpcProgram(
        n_p=n_p, n_c=n_c, n_q=n_q, m=m, box_map=box_map, floor_map=floor_map,
        qp=QpStructure(h_mat, ain),
    )


def mpc_step(prog: MpcProgram, bin_, start=()) -> QpSolution:
    """Solve the coalition MPC around the feedback law; returns the QP's solution.

    Minimizes the shifted-state cost over v'(0..N_c-1) and nonnegative
    flow-floor slacks, subject to the closed-loop prediction, the soft flow
    floor, and the hard input box at every step of the horizon.  The
    solution's x holds the moves v'(t), m per step for t < N_c, then the
    slacks, n_q per step for t = 1..N_c.  The cost has no linear term (see
    prepare_mpc), so when the feedback law keeps every row, x[:m] = 0 after
    one iteration.  `prog` is the coalition's program from prepare_mpc and
    bin_ its rows' right-hand side, PartitionController.mpc_rhs; `start` is
    the QP's initial working set (solve_qp), usually the previous step's
    active_set.
    """
    return solve_qp(prog.qp, bin=bin_, start=start)


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


class CoalitionController:
    """One coalition's gains, filter matrices, programs and MPC start.

    Filter matrices, setpoint program and MPC program are built once, here;
    the estimate lives in the run loop's partition filter, and the partition's
    PartitionController steps the controllers.  Each MPC solve starts from
    the working set the last optimal one ended on; a new controller starts
    cold, so the set never outlives its run.
    """

    def __init__(self, coalition, gain, p_mat, cfg):
        self.model = coalition
        self.idx = np.array(coalition.members) - 1   # members' 0-based reach indices
        self.gain = gain
        self.filter = kalman_model(coalition, cfg)
        self.setpoint_program = prepare_setpoint(coalition, gain, cfg)
        self.program = prepare_mpc(coalition, gain, p_mat, cfg)
        self.mpc_start = ()


def _stacked(rows):
    """One index array over each coalition's `rows` in turn, the coalition of
    each entry, and each coalition's slice of it."""
    sizes = [len(r) for r in rows]
    ends = list(accumulate(sizes))
    return (np.array([j for r in rows for j in r], dtype=int),
            np.repeat(np.arange(len(rows)), sizes),
            [slice(end - size, end) for size, end in zip(sizes, ends)])


def _to_solve(rhs, owner):
    """The coalitions, in chain order, owning an entry of the stacked right-hand
    side `rhs` that fails solve_qp's zero-start test; owner[j] owns rhs[j]."""
    return sorted(set(owner[rhs < -numerics.FEAS_TOL].tolist()))


class PartitionController:
    """A partition's coalition controllers, in chain order, stepped as one.

    Built at each rebuild, it holds blockdiag(K_i), the blockdiag of the
    MPCs' box_map and floor_map, and the indices of every coalition's rows.
    Vectors stack the coalitions' in turn: the estimate [xi_1; w_1; xi_2;
    ...], whose blocks[i] is coalition i's, the state [xi_1; xi_2; ...] and
    the inputs and offtakes, whose states[i] and inputs[i] are coalition i's.
    A stacked right-hand side holds each coalition's QP rows in its QP's row
    order, coalition i's at setpoint_slices[i] or mpc_slices[i].  The
    coalitions of a partition tile the chain, so the stacked state, inputs
    and offtakes are the chain's.
    """

    def __init__(self, controllers, cfg):
        self.controllers, self.cfg = controllers, cfg
        self.gain = block_diag(*[ctrl.gain for ctrl in controllers])
        self.box_map = block_diag(*[ctrl.program.box_map for ctrl in controllers])
        self.floor_map = block_diag(*[ctrl.program.floor_map for ctrl in controllers])
        n_input, n_state = self.gain.shape
        n_floor, n_box = self.floor_map.shape[0], self.box_map.shape[0]
        n_c, n_t = cfg.control_horizon, cfg.prediction_horizon + 1
        # Index lists, built in Python and made arrays once.  The setpoint rows
        # index [xi_bar - margin; bound - K(xi_hat - xi_bar); bound + K(...)],
        # the MPC rows [floor; bound - base; bound + base; 0].
        xi, omega, cuts, delays, flows, gates, floor_state, box_input = ([] for _ in range(8))
        setpoint, mpc = [], []
        self.blocks, self.states, self.inputs, self.linked = [], [], [], []
        est = row = col = floor_at = box_at = 0
        for ctrl in controllers:
            mdl, size = ctrl.model, ctrl.model.n + ctrl.model.n_channels
            self.blocks.append(slice(est, est + size))
            self.states.append(slice(row, row + mdl.n))
            self.inputs.append(slice(col, col + mdl.m))
            xi += range(est, est + mdl.n)
            omega += range(est + mdl.n, est + size)
            # the input whose gate a cut's omega_hat flows below, per channel
            cuts += [col + mdl.members.index(source - 1) for source in mdl.coupling_sources]
            self.linked += [s + 1 in mdl.members for s in mdl.members]
            delays += mdl.delays
            own_flows, own_inputs = [row + r for r in mdl.flow_rows()], [*range(col, col + mdl.m)]
            flows += own_flows
            gates += [row + r for r in mdl.gate_flow_rows()]
            # what each row of floor_map and box_map adds: a flow slot for
            # t = 1..N_c, an input for t = 0..N_p
            floor_state += own_flows * n_c
            box_input += own_inputs * n_t
            setpoint.append([row + r for r in ctrl.setpoint_program.floor_rows]
                            + [n_state + j for j in own_inputs]
                            + [n_state + n_input + j for j in own_inputs])
            n_eps = len(own_flows) * n_c
            boxes = range(n_floor + box_at, n_floor + box_at + len(own_inputs) * n_t)
            mpc.append([*range(floor_at, floor_at + n_eps), *[n_floor + 2 * n_box] * n_eps,
                        *boxes, *[n_box + j for j in boxes]])
            est, row, col = est + size, row + mdl.n, col + mdl.m
            floor_at, box_at = floor_at + n_eps, box_at + len(boxes)
        (self.xi_idx, self.omega_idx, self.cut_gates, self.delays, self.flow_rows, self.gate_rows,
         self.floor_state, self.box_input) = [np.array(rows, dtype=int) for rows in
                                              (xi, omega, cuts, delays, flows, gates,
                                               floor_state, box_input)]
        self.setpoint_rows, self.setpoint_owner, self.setpoint_slices = _stacked(setpoint)
        self.mpc_rows, self.mpc_owner, self.mpc_slices = _stacked(mpc)

    def xi_bar(self, xhat, rho):
        """Every coalition's zero-level steady state, stacked, from one upstream pass.

        The pass applies compute_setpoint's rule in its operand order: a gate
        passes its offtake plus the next gate's flow, the coalition's
        omega_hat at a cut, or 0.0 below the chain's last reach."""
        below_cut = np.zeros(len(rho))
        below_cut[self.cut_gates] = xhat[self.omega_idx]
        rho_l, cut_l = rho.tolist(), below_cut.tolist()
        flows, below = [0.0] * len(rho_l), 0.0
        for s in range(len(rho_l) - 1, -1, -1):
            flows[s] = below = rho_l[s] + (below if self.linked[s] else cut_l[s])
        xi_bar = np.zeros(len(self.xi_idx))
        xi_bar[self.flow_rows] = np.repeat(flows, self.delays)
        return xi_bar

    def setpoint_rhs(self, xi_hat, xi_bar):
        """The setpoint QPs' right-hand sides, stacked, at the state xi_hat."""
        bound, k_xi = self.cfg.input_bound, self.gain @ (xi_hat - xi_bar)
        rows = np.concatenate([xi_bar - self.cfg.flow_margin, bound - k_xi, bound + k_xi])
        return rows[self.setpoint_rows]

    def mpc_rhs(self, zeta, xi_s, u_s):
        """The MPC QPs' right-hand sides, stacked, for zeta = xi_hat - xi_s and u_s."""
        bound = self.cfg.input_bound
        floor = self.floor_map @ zeta + xi_s[self.floor_state] - self.cfg.flow_margin
        base = self.box_map @ zeta + u_s[self.box_input]
        return np.concatenate([floor, bound - base, bound + base, [0.0]])[self.mpc_rows]

    def step(self, xhat, rho):
        """(u, outflow) for the stacked estimate `xhat` and offtakes `rho`.

        u is each coalition's K zeta + u_s + v'(0), inside the box by the
        MPC's t = 0 rows, and outflow each gate's published xi_s[gate row] +
        u_s.  A coalition whose setpoint rows all hold at the QP's zero start
        takes its optimum, xi_s = xi_bar and u_s = 0, and one whose MPC rows
        do takes v' = 0 and an empty MPC start, with no call; any other
        coalition's QP is solved on its slice of the stacked right-hand side,
        by feasible_setpoint or by mpc_step from its own start.
        """
        xi_hat = xhat[self.xi_idx]
        xi_s = self.xi_bar(xhat, rho)  # xi_bar, until a projection moves it
        u_s = np.zeros(len(rho))
        rhs = self.setpoint_rhs(xi_hat, xi_s)
        for i in _to_solve(rhs, self.setpoint_owner):
            ctrl, rows, cols = self.controllers[i], self.states[i], self.inputs[i]
            setpoint = feasible_setpoint(ctrl.setpoint_program, xi_s[rows],
                                         rhs[self.setpoint_slices[i]])
            xi_s[rows], u_s[cols] = setpoint.xi_s, setpoint.u_s

        zeta = xi_hat - xi_s
        rhs = self.mpc_rhs(zeta, xi_s, u_s)
        solve = _to_solve(rhs, self.mpc_owner)
        u = self.gain @ zeta + u_s
        for i, ctrl in enumerate(self.controllers):
            if i not in solve:
                ctrl.mpc_start = ()
                continue
            sol = mpc_step(ctrl.program, rhs[self.mpc_slices[i]], ctrl.mpc_start)
            if sol.status == numerics.INFEASIBLE:
                raise RuntimeError(f"MPC infeasible for coalition {ctrl.model.members}")
            ctrl.mpc_start = sol.active_set if sol.optimal else ()
            u[self.inputs[i]] += sol.x[:ctrl.model.m]
        return u, xi_s[self.gate_rows] + u_s
