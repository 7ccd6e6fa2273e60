"""Top layer: gain synthesis per coalition and network-topology selection.

A coalition is carried by one CoalitionGains record: its stacked model,
feedback gain K_i and cost-to-go matrix P_i, with certificates.  At each
decision the supervisor synthesizes (or retrieves from cache) the records
of the candidate topologies' distinct coalitions in one call, and fills
every candidate's setpoints in one upstream pass over the chain from the
published outflow, one float per gate: each coalition's latest q_s + dq_s,
or the measured gate flow before any setpoint.  All candidates are then
rolled out together on the coupled chain model for
H = max(t_lambda, preview_horizon) steps, each under its own decentralized
law u = clip(K (xi - xi_bar)), K = blockdiag(K_1, ...).  Unclipped, a
rollout is an affine recursion, so all of them are filled by doubling in
log depth (7 batched products for H = 120, as in the associative scan of
Blelloch, 1990); only the candidates whose unclipped inputs leave the box
are rolled out again step by step under the clip.  Scores thus equal the
sequential clipped rollout's up to round-off.  A candidate scores

    sum_k ( Q ||e(k) - e*||^2 + R ||u(k)||^2 )  +  sum_i zeta_i' P_i zeta_i
        +  cfg.link_cost * |links| * t_lambda

where e are the level errors, zeta_i = xi_i(H) - xi*_i, and xi* is the
global steady state; the minimizer is picked.  Gains come from a
per-coalition Riccati solve; the resulting (K, P) is checked against the
closed-loop Lyapunov inequality, so every record carries an explicit
certificate.
"""

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .canal import CoalitionModel, build_coalition_model
from .control import ControllerConfig, compute_setpoint, gate_flows, kf_schedule, weight_matrices
from .numerics import (
    RiccatiConvergenceError,
    dare_residual,
    lqr_gain,
    lyapunov_residual,
    solve_dare,
)
from .topology import Topology, candidate_set, partition_of

CERT_RTOL = 1e-8
TIE_RTOL = 1e-9  # score tie tolerance; real margins measure >= 3e-5 relative
# every filter setting a cached gain schedule depends on
_kf_tuning = attrgetter(*(f.name for f in fields(ControllerConfig) if f.name.startswith("kf_")))


class SynthesisError(RuntimeError):
    """Gain synthesis failed for an identified coalition."""


@dataclass(frozen=True, eq=False)
class CoalitionGains:
    """One coalition's model, feedback gain and cost-to-go matrix, with certificates."""

    model: CoalitionModel
    gain: np.ndarray
    p_mat: np.ndarray
    dare_res: float
    lyap_res: float


class SynthesisCache:
    """Reusable synthesis records and filter gain schedules, keyed per coalition.

    Coalitions recur across partitions (a one-link toggle only changes two
    blocks), so caching per coalition rather than per partition maximizes
    reuse; a cached record is bit-identical to a fresh synthesis.  Filter
    gain schedules are kept per (members, replay length).  As both are keyed
    by members, a cache serves one reach table, weighting and kf_* tuning:
    the first synthesis binds it to their fingerprint, and a later one with
    a different fingerprint is refused.
    """

    def __init__(self):
        self._records = {}
        self._schedules = {}
        self._fingerprint = None

    def bind(self, fingerprint):
        if self._fingerprint not in (None, fingerprint):
            raise ValueError("synthesis cache holds another reach table, weighting or filter tuning")
        self._fingerprint = fingerprint

    def gains(self, members):
        return self._records.get(tuple(sorted(members)))

    def store(self, record):
        self._records[record.model.members] = record

    def schedule(self, filt, length):
        """kf_schedule(filt, length), computed on the first request for its key."""
        key = (filt.coalition.members, length)
        if key not in self._schedules:
            self._schedules[key] = kf_schedule(filt, length)
        return self._schedules[key]


def _synthesize_one(coalition, cfg) -> CoalitionGains:
    q_mat, r_mat = weight_matrices(coalition, cfg)
    try:
        p_mat = solve_dare(coalition.Xi, coalition.Up, q_mat, r_mat)
    except RiccatiConvergenceError as exc:
        raise SynthesisError(
            f"gain synthesis failed for coalition {coalition.members}: {exc}"
        ) from exc
    gain = lqr_gain(coalition.Xi, coalition.Up, r_mat, p_mat)
    d_res = dare_residual(coalition.Xi, coalition.Up, q_mat, r_mat, p_mat)
    l_res = lyapunov_residual(
        coalition.Xi + coalition.Up @ gain, p_mat, q_mat, r_mat, gain
    )
    tol = CERT_RTOL * (1.0 + np.linalg.norm(p_mat, np.inf))
    if d_res > tol or l_res > tol:
        raise SynthesisError(
            f"certificate failed for coalition {coalition.members}: "
            f"dare {d_res:.2e}, lyapunov {l_res:.2e}, tol {tol:.2e}"
        )
    return CoalitionGains(coalition, gain, p_mat, d_res, l_res)


def synthesize(blocks, subsystems, cfg: ControllerConfig, cache: SynthesisCache) -> list:
    """One certified CoalitionGains record per coalition of `blocks`, in order.

    `blocks` is partition_of's tuple of member tuples or any coalitions, such
    as all of a decision's.
    Gains depend on each subsystem's delay and gain and on the level and
    input weights, and the cache's gain schedules also on every kf_*
    setting; the cache is bound to all of these by value.
    """
    cache.bind((tuple([(sub.delay, sub.gain) for sub in subsystems]),
                cfg.level_weight, cfg.input_weight, _kf_tuning(cfg)))
    records = []
    for members in blocks:
        record = cache.gains(members)
        if record is None:
            record = _synthesize_one(build_coalition_model(subsystems, members), cfg)
            cache.store(record)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Topology scoring
# ---------------------------------------------------------------------------


def topology_value(state, candidates, records, xi_bar, t_lambda, model, rho, cfg):
    """Scores of all candidates: predicted shifted-state cost plus network usage at cfg.link_cost.

    Candidate c's decentralized law u = clip(K_c (xi - xi_bar_c)), with
    K_c = blockdiag(K_1, ...) and each coalition steering toward its own
    zero-level steady state, is rolled out on the coupled chain `model` from
    the flat chain-ordered `state` for H = max(t_lambda, preview_horizon)
    steps, with the offtakes `rho` held constant.
    The candidates are rolled out together, row c of each batched array being
    candidate c's own rollout.  All rows are rolled out unclipped by doubling
    (_doubled_rollout) and their inputs formed in one product; the rows whose
    inputs leave the box are rolled out again by the saturated loop, step by
    step (_clipped_rollout).  In every other row the clip never acts, so the
    scores equal the sequential clipped loop's up to round-off.  The stage
    costs and the terminal per-coalition cost-to-go zeta'P zeta, one batched
    product over blockdiag(P_1, ...), are measured against the yardstick xi*,
    the chain's zero-level steady state at `rho`: the one deviation measure
    every candidate shares, so that a decomposition cannot look good merely
    because its own (stale) targets sit close to the current state.  Stale
    boundary targets make a rollout drift away from xi*, which the score
    exposes.
    `records[c]` are candidate c's CoalitionGains in chain order, as
    synthesize(partition_of(candidate)) returns them, so that their stacked
    states are the global state; row c of `xi_bar`, from candidate_setpoints,
    holds candidate c's xi_bar_c.  Returns one score per candidate.
    """
    n_cand, n = len(records), model.n
    k_t = np.zeros((n_cand, n, model.m))            # K_c transposed, block-diagonal
    p_diag = np.zeros((n_cand, n, n))               # blockdiag(P_1, ...) per candidate
    for c, gains in enumerate(records):
        row = col = 0
        for g in gains:
            rows, cols = slice(row, row + g.model.n), slice(col, col + g.model.m)
            k_t[c, rows, cols] = g.gain.T
            p_diag[c, rows, rows] = g.p_mat
            row, col = rows.stop, cols.stop

    steps = max(t_lambda, cfg.preview_horizon)
    xi_t, up_t = model.Xi.T, model.Up.T
    drift = xi_bar @ xi_t - xi_bar + model.Phi @ rho
    e = _doubled_rollout(state - xi_bar, k_t, xi_t, up_t, drift, steps)
    u = e[:, :steps] @ k_t
    bound = cfg.input_bound
    clipped = np.flatnonzero((u.max(axis=(1, 2)) > bound) | (u.min(axis=(1, 2)) < -bound))
    if clipped.size:
        _clipped_rollout(e, u, clipped, k_t, xi_t, up_t, drift, bound)

    level_rows = model.level_rows()
    offset = xi_bar - compute_setpoint(model, rho, np.zeros(0))  # e + offset: deviation from xi*
    dev = e[:, :steps, level_rows]                  # a copy: squared in place below, as is u
    dev += offset[:, None, level_rows]
    stage = (cfg.level_weight * np.sum(np.square(dev, out=dev), axis=2)
             + cfg.input_weight * np.sum(np.square(u, out=u), axis=2))
    total = np.array([cfg.link_cost * cand.n_links * t_lambda for cand in candidates])
    total += stage.sum(axis=1)
    zeta = e[:, steps] + offset
    total += (zeta[:, None] @ p_diag @ zeta[:, :, None]).ravel()
    return total


def _doubled_rollout(e0, k_t, xi_t, up_t, drift, steps):
    """Unclipped trajectories e(0..steps) from e(0) = e0, all rows at once.

    Row c obeys the affine recursion [e, 1](k+1) = [e, 1](k) M_c with
    M_c = [[Xi' + K_c' Up', 0], [drift_c, 1]].  By doubling, rows h..2h-1 of
    the trajectory are rows 0..h-1 times M_c^h, and M_c^2h is M_c^h squared
    into a spare buffer, so steps = 120 takes 7 batched products and 6
    squarings.  Returns a C x (steps+1) x n view.
    """
    n_cand, n = e0.shape
    power = np.zeros((n_cand, n + 1, n + 1))        # M_c, then M_c^h
    np.matmul(k_t, up_t, out=power[:, :n, :n])
    power[:, :n, :n] += xi_t
    power[:, n, :n] = drift
    power[:, n, n] = 1.0
    spare = np.empty_like(power)
    z = np.empty((n_cand, steps + 1, n + 1))        # z[c, k] = [e, 1]: row c at step k
    z[:, 0, :n] = e0
    z[:, 0, n] = 1.0
    h = 1
    while h <= steps:
        span = min(h, steps + 1 - h)
        np.matmul(z[:, :span], power, out=z[:, h:h + span])
        h *= 2
        if h <= steps:
            np.matmul(power, power, out=spare)
            power, spare = spare, power
    return z[:, :, :n]


def _clipped_rollout(e, u, rows, k_t, xi_t, up_t, drift, bound):
    """Roll out `rows` of the batch step by step under u = clip(K_c e), in place.

    The one definition of a saturated rollout: e (C x (H+1) x n) holds each
    row's start in e[:, 0]; e[rows] and u[rows] (C x H x m) are overwritten
    with the trajectory and inputs of e(k+1) = e(k) Xi' + u(k) Up' + drift_c.
    """
    e_r, u_r, k_r, drift_r = e[rows], u[rows], k_t[rows], drift[rows]
    by_input = np.empty_like(drift_r)
    for k in range(u.shape[1]):
        u_k, e_next = u_r[:, k], e_r[:, k + 1]
        np.matmul(e_r[:, k, None, :], k_r, out=u_k[:, None, :])
        np.minimum(u_k, bound, out=u_k)
        np.maximum(u_k, -bound, out=u_k)
        np.matmul(e_r[:, k], xi_t, out=e_next)
        e_next += np.matmul(u_k, up_t, out=by_input)
        e_next += drift_r
    e[rows], u[rows] = e_r, u_r


@dataclass
class SelectionResult:
    topology: Topology
    values: list  # (bit-string, value) per candidate, in candidate_set order


def candidate_setpoints(candidates, rho, outflow, model):
    """Step-3/4 setpoints of every candidate, one C x n array in the chain `model`'s layout.

    A coalition's boundary estimate is its coupling source's published
    outflow, so one gate_flows pass per candidate gives its flows: gate s
    passes rho_s + (gate s+1's flow if link s is on, else outflow[s]), and
    rho_N + 0.0 at the chain end.  Each block's slice is
    compute_setpoint(block, rho_B, outflow[sources]).
    """
    rho_l, out_l = rho.tolist(), outflow.tolist()[1:] + [0.0]   # no gate below reach N
    flows = np.array([gate_flows(rho_l, [s in cand.enabled for s in range(1, model.m + 1)], out_l)
                      for cand in candidates])
    xi_bar = np.zeros((len(candidates), model.n))
    xi_bar[:, model.flow_rows()] = flows[:, np.repeat(np.arange(model.m), model.delays)]
    return xi_bar


def select_topology(state, rho, outflow, incumbent, cache, subsystems,
                    cfg: ControllerConfig, t_lambda: int, global_model) -> SelectionResult:
    """Evaluate the incumbent and all one-link toggles; return the cheapest.

    The candidates' distinct coalitions are synthesized in one call and
    their setpoints filled from the published per-gate `outflow` in one
    pass (candidate_setpoints); all are then scored, links at cfg.link_cost,
    in one batched rollout of their decentralized feedback on the coupled
    chain model `global_model` over the coming interval (topology_value):
    unclipped rollouts by doubling, and the rows whose inputs leave the box
    by the sequential clipped loop, so scores match that loop to round-off.  Each
    row of the batch is its candidate's own rollout: rows share only the
    model and the starting state, so a candidate scores the same, up to
    round-off, whichever others are scored with it.  Scores within
    TIE_RTOL * (1 + |best|) of the best tie, so round-off never decides;
    ties break toward fewer links, then the lexicographically smallest
    bit-string.  `values` lists (bit-string, score) in candidate_set order.
    """
    rho = np.asarray(rho, dtype=float)
    candidates = candidate_set(incumbent)
    partitions = [partition_of(cand) for cand in candidates]
    distinct = dict.fromkeys(b for part in partitions for b in part)
    by_members = dict(zip(distinct, synthesize(distinct, subsystems, cfg, cache)))
    records = [[by_members[b] for b in part] for part in partitions]
    xi_bar = candidate_setpoints(candidates, rho, outflow, global_model)
    values = topology_value(state, candidates, records, xi_bar, t_lambda, global_model, rho, cfg)
    scored = [(float(value), cand.n_links, cand.bits(), cand)
              for value, cand in zip(values, candidates)]
    cutoff = min(t[0] for t in scored)
    cutoff += TIE_RTOL * (1.0 + abs(cutoff))
    best = min((t for t in scored if t[0] <= cutoff), key=lambda t: (t[1], t[2]))
    return SelectionResult(
        topology=best[3],
        values=[(bits, value) for value, _, bits, _ in scored],
    )
