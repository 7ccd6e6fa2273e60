"""Top layer: gain synthesis per coalition and network-topology selection.

A coalition is carried by one CoalitionGains record: its stacked model,
feedback gain K_i and cost-to-go matrix P_i, with certificates.  At each
decision the supervisor synthesizes (or retrieves from cache) the records
of every candidate topology's coalitions in chain order, and solves each
distinct coalition's setpoint once from the most recently published
neighbour setpoints.  All candidates are then rolled out together on the
coupled chain model for H = max(t_lambda, preview_horizon) steps, each
under its own decentralized law u = clip(K (xi - xi_bar)),
K = blockdiag(K_1, ...).  A candidate scores

    sum_k ( Q ||e(k) - e*||^2 + R ||u(k)||^2 )  +  sum_i zeta_i' P_i zeta_i
        +  c_link * |links| * t_lambda

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
from .control import ControllerConfig, compute_setpoint, kf_schedule, weight_matrices
from .numerics import (
    RiccatiConvergenceError,
    dare_residual,
    lqr_gain,
    lyapunov_residual,
    solve_dare,
)
from .topology import Partition, Topology, candidate_set, partition_of

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


def synthesize(partition: Partition, subsystems, cfg: ControllerConfig,
               cache: SynthesisCache) -> list:
    """One certified CoalitionGains record per block of the partition, in block order.

    Gains depend on each subsystem's delay and gain and on the level and
    input weights, and the cache's gain schedules also on every kf_*
    setting; the cache is bound to all of these by value.
    """
    cache.bind((tuple((sub.delay, sub.gain) for sub in subsystems),
                cfg.level_weight, cfg.input_weight, _kf_tuning(cfg)))
    records = []
    for members in partition:
        record = cache.gains(members)
        if record is None:
            record = _synthesize_one(build_coalition_model(subsystems, members), cfg)
            cache.store(record)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Topology scoring
# ---------------------------------------------------------------------------


@dataclass
class PublishedSetpoints:
    """Most recent per-gate steady outflow q_s + dq_s, shared with the top layer.

    Coalition setpoints are scattered to per-gate entries so that any
    candidate partition can read them, whatever partition produced them.
    Bootstrap uses the currently measured gate flows with zero inputs.
    """

    outflow: np.ndarray

    @classmethod
    def bootstrap(cls, measured_flows):
        return cls(outflow=np.array(measured_flows, dtype=float))

    def publish(self, coalition, setpoint):
        idx = [s - 1 for s in coalition.members]
        self.outflow[idx] = setpoint.xi_s[coalition.gate_flow_rows()] + setpoint.u_s


def topology_value(state, candidates, records, setpoints, c_link, t_lambda, model, rho, cfg):
    """Scores of all candidates: predicted shifted-state cost plus priced network usage.

    Candidate c's decentralized law u = clip(K_c (xi - xi_bar_c)), with
    K_c = blockdiag(K_1, ...) and each coalition steering toward its own
    zero-level steady state, is rolled out on the coupled chain `model` from
    the flat chain-ordered `state` for max(t_lambda, preview_horizon) steps,
    with the offtakes `rho` held constant.
    The candidates are rolled out together: row c of the (C x n) batched state
    is candidate c's own rollout, and each step is one batched product,
    clip and model update.  The stage costs and the terminal per-coalition
    cost-to-go zeta'P zeta are measured against the yardstick xi*, the
    chain's zero-level steady state at `rho`: the one deviation measure every
    candidate shares, so that a decomposition cannot look good merely because
    its own (stale) targets sit close to the current state.  Stale boundary
    targets make a rollout drift away from xi*, which the score exposes.
    `records[c]` are candidate c's CoalitionGains in chain order, as
    synthesize(partition_of(candidate)) returns them, so that their stacked
    states are the global state; `setpoints` maps each coalition's members
    to its xi_bar.  Returns one score per candidate.
    """
    n_cand = len(records)
    k_t = np.zeros((n_cand, model.n, model.m))      # K_c transposed, block-diagonal
    xi_bar = np.empty((n_cand, model.n))
    terminal = []                                   # (c, rows, P_i) per zeta_i' P_i zeta_i
    for c, gains in enumerate(records):
        row = col = 0
        for g in gains:
            rows, cols = slice(row, row + g.model.n), slice(col, col + g.model.m)
            k_t[c, rows, cols] = g.gain.T
            xi_bar[c, rows] = setpoints[g.model.members]
            terminal.append((c, rows, g.p_mat))
            row, col = rows.stop, cols.stop

    steps = max(t_lambda, cfg.preview_horizon)
    e = np.empty((steps + 1, n_cand, model.n))      # e[k, c]: candidate c's xi - xi_bar_c at step k
    u = np.empty((steps, n_cand, model.m))
    e[0] = state - xi_bar
    xi_t, up_t = model.Xi.T, model.Up.T
    drift = xi_bar @ xi_t - xi_bar + model.Phi @ rho
    bound, by_input = cfg.input_bound, np.empty((n_cand, model.n))
    for e_k, e_next, u_k in zip(e, e[1:], u):
        np.matmul(e_k[:, None, :], k_t, out=u_k[:, None, :])
        np.minimum(u_k, bound, out=u_k)
        np.maximum(u_k, -bound, out=u_k)
        np.matmul(e_k, xi_t, out=e_next)
        e_next += np.matmul(u_k, up_t, out=by_input)
        e_next += drift

    level_rows = model.level_rows()
    offset = xi_bar - compute_setpoint(model, rho, np.zeros(0))  # e + offset: deviation from xi*
    dev = e[:steps, :, level_rows]                  # a copy: squared in place below, as is u
    dev += offset[:, level_rows]
    stage = (cfg.level_weight * np.sum(np.square(dev, out=dev), axis=2)
             + cfg.input_weight * np.sum(np.square(u, out=u), axis=2))
    total = np.array([c_link * cand.n_links * t_lambda for cand in candidates])
    total += stage.sum(axis=0)
    zeta = e[steps] + offset
    for c, rows, p_mat in terminal:
        z = zeta[c, rows]
        total[c] += z @ p_mat @ z
    return total


@dataclass
class SelectionResult:
    topology: Topology
    values: list  # (bit-string, value) per candidate, in candidate_set order


def candidate_setpoints(records, rho, published):
    """Step-3/4 setpoints of every distinct coalition among the records.

    A coalition's boundary estimate is the published outflow of each of its
    coupling sources: that gate's flow plus its input increment, from the
    owning coalition's latest setpoint.  Its zero-level steady state is then
    solved once, however many candidates share it.  Returns members -> xi_bar.
    """
    coalitions = {g.model.members: g.model for g in records}.values()
    return {
        coal.members: compute_setpoint(coal, rho[[s - 1 for s in coal.members]],
                                       published.outflow[[s - 1 for s in coal.coupling_sources]])
        for coal in coalitions
    }


def select_topology(state, rho, published, incumbent, cache,
                    subsystems, cfg: ControllerConfig, t_lambda: int,
                    c_link, global_model) -> SelectionResult:
    """Evaluate the incumbent and all one-link toggles; return the cheapest.

    Each candidate's coalitions get boundary estimates and setpoints from
    the published data, and all candidates are scored in one batched
    rollout of their decentralized feedback on the coupled chain model
    `global_model` over the coming interval (topology_value).  Each row of
    the batch is its candidate's own rollout: rows share only the model and
    the starting state, so a candidate scores the same, up to round-off,
    whichever others are scored with it.  Scores within TIE_RTOL * (1 + |best|)
    of the best tie, so round-off never decides; ties break toward fewer
    links, then the lexicographically smallest bit-string.  `values` lists
    (bit-string, score) in candidate_set order.
    """
    rho = np.asarray(rho, dtype=float)
    candidates = candidate_set(incumbent)
    records = [synthesize(partition_of(cand), subsystems, cfg, cache) for cand in candidates]
    setpoints = candidate_setpoints([g for gains in records for g in gains], rho, published)
    values = topology_value(state, candidates, records, setpoints, c_link, t_lambda,
                            global_model, rho, cfg)
    scored = [(float(value), cand.n_links, cand.bits(), cand)
              for value, cand in zip(values, candidates)]
    cutoff = min(t[0] for t in scored)
    cutoff += TIE_RTOL * (1.0 + abs(cutoff))
    best = min((t for t in scored if t[0] <= cutoff), key=lambda t: (t[1], t[2]))
    return SelectionResult(
        topology=best[3],
        values=[(bits, value) for value, _, bits, _ in scored],
    )
