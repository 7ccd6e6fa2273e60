"""Top layer: gain synthesis per coalition and network-topology selection.

For every candidate topology the supervisor synthesizes (or retrieves from
cache) a decentralized gain set, predicts each coalition's setpoint from the
most recently published neighbour setpoints, and rolls the candidate's
decentralized law u = clip(K (xi - xi_bar) + u_bar), K = blockdiag(K_1, ...),
out on the coupled chain model for H = max(t_lambda, preview_horizon) steps.
The candidate scores

    sum_k ( Q ||e(k) - e*||^2 + R ||u(k)||^2 )  +  sum_i zeta_i' P_i zeta_i
        +  c_link * |links| * t_lambda

where e are the level errors, zeta_i = xi_i(H) - xi*_i, and xi* is the
global steady state; the minimizer is picked.  Gains come from a
per-coalition Riccati solve; the resulting (K, P) is checked against the
closed-loop Lyapunov inequality, so every stored gain set carries an
explicit certificate.
"""

from dataclasses import dataclass

import numpy as np

from .canal import assemble_global, build_coalition_model
from .control import ControllerConfig, compute_setpoint, weight_matrices
from .numerics import (
    RiccatiConvergenceError,
    dare_residual,
    lqr_gain,
    lyapunov_residual,
    solve_dare,
)
from .topology import Partition, Topology, candidate_set, network_cost_total, partition_of

CERT_RTOL = 1e-8


class SynthesisError(RuntimeError):
    """Gain synthesis failed for an identified coalition."""


@dataclass(frozen=True, eq=False)
class CoalitionGains:
    """Feedback gain and cost-to-go matrix for one coalition, with certificates."""

    members: tuple
    gain: np.ndarray
    p_mat: np.ndarray
    dare_res: float
    lyap_res: float


@dataclass
class GainSet:
    """Per-coalition gains for one partition, in block (partition) order."""

    entries: dict  # members tuple -> CoalitionGains

    def gains_for(self, members):
        return self.entries[tuple(sorted(members))]

    def block_diag_gain(self, coalitions):
        mats = [self.gains_for(c.members).gain for c in coalitions]
        n = sum(m.shape[1] for m in mats)
        rows = sum(m.shape[0] for m in mats)
        out = np.zeros((rows, n))
        r0 = c0 = 0
        for m in mats:
            out[r0:r0 + m.shape[0], c0:c0 + m.shape[1]] = m
            r0 += m.shape[0]
            c0 += m.shape[1]
        return out


class SynthesisCache:
    """Reusable synthesis results, keyed per coalition.

    Coalitions recur across partitions (a one-link toggle only changes two
    blocks), so caching per coalition rather than per partition maximizes
    reuse; a cached entry is bit-identical to a fresh synthesis.
    """

    def __init__(self):
        self._models = {}
        self._gains = {}

    def model(self, subsystems, members, partition):
        key = tuple(sorted(members))
        if key not in self._models:
            self._models[key] = build_coalition_model(subsystems, key, partition)
        return self._models[key]

    def gains(self, members):
        return self._gains.get(tuple(sorted(members)))

    def store(self, members, gains):
        self._gains[tuple(sorted(members))] = gains


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
    return CoalitionGains(coalition.members, gain, p_mat, d_res, l_res)


def synthesize(partition: Partition, subsystems, cfg: ControllerConfig, cache=None) -> GainSet:
    """Gains for every coalition of the partition, certificates verified.

    Without a cache the coalitions are synthesized in a throwaway one.
    """
    cache = SynthesisCache() if cache is None else cache
    entries = {}
    for members in partition:
        gains = cache.gains(members)
        if gains is None:
            gains = _synthesize_one(cache.model(subsystems, members, partition.blocks), cfg)
            cache.store(members, gains)
        entries[members] = gains
    return GainSet(entries)


# ---------------------------------------------------------------------------
# Topology scoring
# ---------------------------------------------------------------------------


@dataclass
class PublishedSetpoints:
    """Most recent per-subsystem steady setpoints, shared with the top layer.

    Coalition setpoints are scattered to per-subsystem records so that any
    candidate partition can read them, whatever partition produced them.
    Bootstrap uses the currently measured gate flows with zero inputs.
    """

    flow: np.ndarray
    input: np.ndarray

    @classmethod
    def bootstrap(cls, measured_flows):
        measured_flows = np.asarray(measured_flows, dtype=float)
        return cls(flow=measured_flows.copy(), input=np.zeros_like(measured_flows))

    def publish(self, coalition, setpoint):
        for pos, s in enumerate(coalition.members):
            self.flow[s - 1] = setpoint.xi_s[coalition.offsets[s]]
            self.input[s - 1] = setpoint.u_s[pos]


def estimate_cross_effects(coalitions, published: PublishedSetpoints):
    """Steady boundary-flow estimate per coalition from published setpoints.

    Each coupling channel carries the downstream source gate's flow plus its
    input increment, read from the owning coalition's latest setpoint.
    """
    omegas = []
    for coal in coalitions:
        omega = np.array(
            [published.flow[s - 1] + published.input[s - 1] for s in coal.coupling_sources]
        )
        omegas.append(omega)
    return omegas


def split_global_state(subsystems, flat):
    """Per-subsystem views of a flat chain-ordered global state."""
    return np.split(np.asarray(flat), np.cumsum([sub.n for sub in subsystems])[:-1])


@dataclass
class PreviewContext:
    """What topology_value needs to roll the true model forward.

    The yardstick is the zero-level steady state of the whole chain at the
    currently measured offtakes: the one deviation measure every candidate
    shares, so that a decomposition cannot look good merely because its own
    (stale) targets sit close to the current state.
    """

    global_model: object        # assembled chain (controllers' nominal model)
    rho: np.ndarray             # current offtakes, held constant
    cfg: ControllerConfig
    yardstick: np.ndarray       # global steady state xi_bar*


def topology_value(per_subsystem_state, candidate, coalitions, gains, setpoints,
                   setpoint_inputs, c_link, t_lambda, preview: PreviewContext):
    """Candidate score: predicted shifted-state cost plus priced network usage.

    The candidate's decentralized law u = clip(K (xi - xi_bar) + u_bar),
    with K = blockdiag(K_1, ...) and each coalition steering toward its own
    setpoint, is rolled out on the coupled chain model for
    max(t_lambda, preview_horizon) steps.  The stage costs and the terminal
    per-coalition cost-to-go zeta'P zeta are measured against the common
    global steady state.  Stale boundary targets make the rollout drift away
    from that steady state, which the score exposes.  The coalitions must be
    the contiguous blocks of a chain partition in chain order, so that their
    stacked states are the global state.
    """
    model = preview.global_model
    cfg = preview.cfg
    k_mat = gains.block_diag_gain(coalitions)
    if k_mat.shape != (model.m, model.n):
        raise ValueError(f"block gain {k_mat.shape} does not tile the chain model")
    xi_bar = np.concatenate(setpoints)
    u_bar = np.concatenate(setpoint_inputs)
    drift = model.Phi @ preview.rho
    level_rows = model.level_rows()
    star = preview.yardstick
    xi = np.concatenate(per_subsystem_state)

    total = network_cost_total(candidate, c_link, t_lambda)
    for _ in range(max(t_lambda, cfg.preview_horizon)):
        u = np.clip(k_mat @ (xi - xi_bar) + u_bar, -cfg.input_bound, cfg.input_bound)
        dev = xi - star
        total += float(
            cfg.level_weight * np.sum(dev[level_rows] ** 2)
            + cfg.input_weight * np.sum(u ** 2)
        )
        xi = model.Xi @ xi + model.Up @ u + drift

    zeta = xi - star
    start = 0
    for coal in coalitions:
        z = zeta[start:start + coal.n]
        total += float(z @ gains.gains_for(coal.members).p_mat @ z)
        start += coal.n
    return total


@dataclass
class SelectionResult:
    topology: Topology
    values: list  # (bit-string, value) per candidate, in evaluation order


def candidate_setpoints(partition_coalitions, rho, published):
    """Step-3/4 setpoints for a partition: boundary estimates, then the
    zero-level steady state of each coalition."""
    rho = np.asarray(rho, dtype=float)
    omegas = estimate_cross_effects(partition_coalitions, published)
    states = []
    inputs = []
    for coal, omega in zip(partition_coalitions, omegas):
        idx = [s - 1 for s in coal.members]
        xi_bar, u_bar = compute_setpoint(coal, rho[idx], omega)
        states.append(xi_bar)
        inputs.append(u_bar)
    return states, inputs


def select_topology(per_subsystem_state, rho, published, incumbent, cache,
                    subsystems, cfg: ControllerConfig, t_lambda: int,
                    c_link=None, global_model=None) -> SelectionResult:
    """Evaluate the incumbent and all one-link toggles; return the cheapest.

    Each candidate gets its own boundary estimates and setpoints from the
    published data, and is scored by rolling its decentralized feedback out
    on the coupled chain model over the coming interval (topology_value).
    Ties break toward fewer links, then the lexicographically smallest
    bit-string.  Candidate evaluations are independent; results only depend
    on the inputs, never on evaluation order.  Without a cache the gains are
    synthesized in a throwaway one.
    """
    if c_link is None:
        c_link = cfg.link_cost
    cache = SynthesisCache() if cache is None else cache
    rho = np.asarray(rho, dtype=float)
    if global_model is None:
        global_model = assemble_global(subsystems)
    yardstick, _ = compute_setpoint(global_model, rho, np.zeros(0))
    preview = PreviewContext(
        global_model=global_model, rho=rho, cfg=cfg, yardstick=yardstick
    )

    scored = []
    for cand in candidate_set(incumbent):
        partition = partition_of(cand)
        gains = synthesize(partition, subsystems, cfg, cache)
        coalitions = [cache.model(subsystems, b, partition.blocks) for b in partition]
        setpoints, sp_inputs = candidate_setpoints(coalitions, rho, published)
        value = topology_value(
            per_subsystem_state, cand, coalitions, gains, setpoints, sp_inputs,
            c_link, t_lambda, preview,
        )
        scored.append((value, cand.n_links, cand.bits(), cand))
    best = min(scored, key=lambda t: (t[0], t[1], t[2]))
    chosen = best[3]
    return SelectionResult(
        topology=chosen,
        values=[(bits, value) for value, _, bits, _ in scored],
    )
