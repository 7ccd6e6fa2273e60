"""Closed-loop simulation harness against an internal integrator-delay plant.

The plant is the assembled chain model, optionally parameter-perturbed so
that the controllers (which always use the nominal table) face model
mismatch.  The supervisory layer re-selects the network topology every
t_lambda steps; coalition controllers run every step.  Runs are fully
deterministic given the seed.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .canal import DEZ_REACHES, ReachParams, assemble_global, build_chain, steady_state
from .control import (
    CoalitionController,
    ControllerConfig,
    HistoryBuffer,
    weight_matrices,
)
from .supervisor import (
    PublishedSetpoints,
    SynthesisCache,
    select_topology,
    synthesize,
)
from .topology import full_topology, partition_of

HEAD_CAPACITY = 157.0  # m^3/s, maximum discharge at the head gate


@dataclass(frozen=True)
class Scenario:
    """Offtake schedule per reach: piecewise-constant (step, value) pairs."""

    name: str
    horizon: int
    schedules: dict
    initial_regime: float = 0.36  # head inflow as a fraction of capacity

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        for reach, entries in self.schedules.items():
            steps = [s for s, _ in entries]
            if not entries or entries[0][0] != 0:
                raise ValueError(f"reach {reach}: schedule must start at step 0")
            if steps != sorted(set(steps)):
                raise ValueError(f"reach {reach}: steps must be strictly increasing")
            if any(v < 0 for _, v in entries):
                raise ValueError(f"reach {reach}: offtakes must be nonnegative")

    def offtakes_at(self, k: int) -> np.ndarray:
        out = np.zeros(len(self.schedules))
        for reach, entries in self.schedules.items():
            value = entries[0][1]
            for step, v in entries:
                if step <= k:
                    value = v
                else:
                    break
            out[reach - 1] = value
        return out


def scenario_1(horizon: int = 288) -> Scenario:
    """Settled operation, then a step decrease of four offtakes at k = 72."""
    schedules = {i: ((0, 2.0),) for i in range(1, 14)}
    schedules[4] = ((0, 12.5), (72, 2.5))
    schedules[9] = ((0, 10.0), (72, 5.0))
    schedules[10] = ((0, 6.25), (72, 1.25))
    schedules[13] = ((0, 10.0), (72, 0.0))
    return Scenario("scenario1", horizon, schedules)


def scenario_2(horizon: int = 288) -> Scenario:
    """Scenario 1 plus a second step at k = 144 restoring the offtakes."""
    base = scenario_1(horizon)
    schedules = dict(base.schedules)
    schedules[4] = ((0, 12.5), (72, 2.5), (144, 12.5))
    schedules[9] = ((0, 10.0), (72, 5.0), (144, 10.0))
    schedules[10] = ((0, 6.25), (72, 1.25), (144, 6.25))
    schedules[13] = ((0, 10.0), (72, 0.0), (144, 10.0))
    return Scenario("scenario2", horizon, schedules)


BUILTIN_SCENARIOS = {"scenario1": scenario_1, "scenario2": scenario_2}


@dataclass(frozen=True)
class PlantConfig:
    """Model-plant mismatch knobs: the controllers keep the nominal table.

    A per-reach list left at None leaves every reach of the plant's table
    unperturbed; a given list must have one entry per reach.
    """

    surface_factors: tuple | None = None
    delay_offsets: tuple | None = None
    process_noise: float = 0.0
    measurement_noise: float = 0.0

    def __post_init__(self):
        if any(f <= 0.0 for f in self.surface_factors or ()):
            raise ValueError("surface factors must keep areas positive")

    @classmethod
    def with_mismatch(cls, factor: float, n: int = len(DEZ_REACHES)) -> "PlantConfig":
        """Alternating +/- factor on the backwater surfaces of n reaches."""
        factors = tuple(1.0 + factor * (1 if i % 2 == 0 else -1) for i in range(n))
        return cls(surface_factors=factors)

    def perturbed_reaches(self, reaches=DEZ_REACHES):
        n = len(reaches)
        factors = (1.0,) * n if self.surface_factors is None else self.surface_factors
        offsets = (0,) * n if self.delay_offsets is None else self.delay_offsets
        if len(factors) != n or len(offsets) != n:
            raise ValueError(
                f"plant config has {len(factors)} surface factors and "
                f"{len(offsets)} delay offsets for {n} reaches"
            )
        return tuple(
            ReachParams(r.index, r.backwater_area * f, r.delay_steps + dd,
                        r.length, r.bottom_width)
            for r, f, dd in zip(reaches, factors, offsets)
        )


def plant_step(model, state, inputs, offtakes, bound=None):
    """Advance the assembled chain model one step; inputs are asserted in-box."""
    inputs = np.asarray(inputs, dtype=float)
    if bound is not None and np.max(np.abs(inputs)) > bound + 1e-9:
        raise AssertionError("input outside the hard box reached the plant")
    return model.Xi @ state + model.Up @ inputs + model.Phi @ np.asarray(offtakes, float)


class Plant:
    """Stateful wrapper: perturbed chain model plus measurement extraction."""

    def __init__(self, plant_cfg: PlantConfig, t_sample: float, initial_offtakes,
                 reaches=DEZ_REACHES, input_bound=None):
        self.cfg = plant_cfg
        self.subs = build_chain(plant_cfg.perturbed_reaches(reaches), t_sample)
        self.model = assemble_global(self.subs)
        self.input_bound = input_bound
        _, self.state = steady_state(self.subs, np.asarray(initial_offtakes, float))
        self._level_rows = self.model.level_rows()
        self._gate_rows = self.model.gate_flow_rows()

    def measure(self, rng=None):
        levels = self.state[self._level_rows].copy()
        flows = self.state[self._gate_rows].copy()
        if rng is not None and self.cfg.measurement_noise > 0.0:
            levels += rng.normal(0.0, self.cfg.measurement_noise, size=levels.shape)
            flows += rng.normal(0.0, self.cfg.measurement_noise, size=flows.shape)
        return levels, flows

    def step(self, inputs, offtakes, rng=None):
        self.state = plant_step(self.model, self.state, inputs, offtakes,
                                bound=self.input_bound)
        if rng is not None and self.cfg.process_noise > 0.0:
            noise = rng.normal(0.0, self.cfg.process_noise, size=len(self._level_rows))
            self.state[self._level_rows] += noise


@dataclass
class SimTrace:
    """Per-step record of one run; array fields are what trace files persist."""

    scenario: str
    levels: np.ndarray          # (T, 13)
    flows: np.ndarray           # (T, 13) measured gate flows
    inputs: np.ndarray          # (T, 13) applied increments
    offtakes: np.ndarray        # (T, 13)
    topology_bits: list         # (T,) strings of 12 link flags
    perf_cost: np.ndarray       # (T,)
    net_links: np.ndarray       # (T,) int
    n_coalitions: np.ndarray    # (T,) int
    mean_decision_vars: np.ndarray  # (T,)
    config_hash: str = ""
    seed: int = 0
    coalition_log: list = field(default_factory=list, repr=False)
    supervisor_log: list = field(default_factory=list, repr=False)

    @property
    def horizon(self):
        return self.levels.shape[0]

    def arrays_equal(self, other) -> bool:
        return (
            self.scenario == other.scenario
            and self.topology_bits == other.topology_bits
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "levels", "flows", "inputs", "offtakes",
                    "perf_cost", "net_links", "n_coalitions", "mean_decision_vars",
                )
            )
        )


def _controller_frame_state(subsystems, flows_hist, levels):
    """Per-subsystem states [q(k-1)..q(k-d), e] from measured flows and levels."""
    parts = []
    for sub in subsystems:
        x = np.empty(sub.n)
        for j in range(sub.delay):
            x[j] = flows_hist[j][sub.index - 1]
        x[sub.delay] = levels[sub.index - 1]
        parts.append(x)
    return parts


def run_closed_loop(scenario: Scenario, ctrl_cfg: ControllerConfig = None,
                    plant_cfg: PlantConfig = None, seed: int = 0,
                    t_lambda: int = 4, supervision: bool = True,
                    cache: SynthesisCache = None, reaches=DEZ_REACHES) -> SimTrace:
    """Run the two-layer scheme end to end and record the trace.

    With supervision disabled the run is the centralized baseline: one
    coalition on the fixed full topology, no topology decisions.
    """
    ctrl_cfg = ctrl_cfg or ControllerConfig()
    plant_cfg = plant_cfg or PlantConfig()
    cache = cache if cache is not None else SynthesisCache()
    n = len(reaches)
    subs = build_chain(reaches, ctrl_cfg.sample_time)
    nominal_model = assemble_global(subs)
    max_delay = max(s.delay for s in subs)

    rho0 = scenario.offtakes_at(0)
    plant = Plant(plant_cfg, ctrl_cfg.sample_time, rho0, reaches=reaches,
                  input_bound=ctrl_cfg.input_bound)
    rng = np.random.default_rng(seed)

    levels, flows = plant.measure(rng)
    flows_hist = [flows.copy() for _ in range(max_delay)]
    history = HistoryBuffer(ctrl_cfg.history_capacity)
    history.push(levels, flows, np.zeros(n), rho0)
    published = PublishedSetpoints.bootstrap(flows)

    incumbent = full_topology(n)
    controllers: dict = {}
    coal_weights: dict = {}
    prev_u = np.zeros(n)
    prev_rho = rho0

    horizon = scenario.horizon
    trace = SimTrace(
        scenario=scenario.name,
        levels=np.zeros((horizon, n)),
        flows=np.zeros((horizon, n)),
        inputs=np.zeros((horizon, n)),
        offtakes=np.zeros((horizon, n)),
        topology_bits=[],
        perf_cost=np.zeros(horizon),
        net_links=np.zeros(horizon, dtype=int),
        n_coalitions=np.zeros(horizon, dtype=int),
        mean_decision_vars=np.zeros(horizon),
        seed=seed,
    )

    def rebuild_controllers(topology):
        partition = partition_of(topology)
        gains = synthesize(partition, subs, ctrl_cfg, cache)
        fresh = {}
        for members in partition:
            if members in controllers:
                fresh[members] = controllers[members]
                continue
            model = cache.model(subs, members, partition.blocks)
            entry = gains.gains_for(members)
            ctrl = CoalitionController(model, entry.gain, entry.p_mat, ctrl_cfg)
            ctrl.warm_start(history)
            fresh[members] = ctrl
            coal_weights[members] = weight_matrices(model, ctrl_cfg)
        controllers.clear()
        controllers.update(fresh)

    for k in range(horizon):
        rho = scenario.offtakes_at(k)
        if k > 0:
            levels, flows = plant.measure(rng)
            flows_hist.insert(0, flows.copy())
            del flows_hist[max_delay:]

        if supervision and k % t_lambda == 0:
            state_parts = _controller_frame_state(subs, flows_hist, levels)
            result = select_topology(
                state_parts, rho, published, incumbent, cache, subs, ctrl_cfg,
                t_lambda, global_model=nominal_model,
            )
            trace.supervisor_log.append(
                {"step": k, "chosen": result.topology.bits(), "values": result.values}
            )
            incumbent = result.topology
            rebuild_controllers(incumbent)
        elif k == 0:
            rebuild_controllers(incumbent)

        if k > 0:
            for ctrl in controllers.values():
                ctrl.advance_filter(prev_u, prev_rho, levels, flows)

        state_parts = _controller_frame_state(subs, flows_hist, levels)
        u_global = np.zeros(n)
        step_logs = []
        perf = 0.0
        dec_vars = []
        for members in sorted(controllers):
            ctrl = controllers[members]
            try:
                u, setpoint, log = ctrl.compute(rho)
            except Exception as exc:
                raise RuntimeError(f"controller failure at step {k}: {exc}") from exc
            for pos, s in enumerate(members):
                u_global[s - 1] = u[pos]
            published.publish(ctrl.model, setpoint)
            step_logs.append(log)
            dec_vars.append(log.n_decision_inputs)
            xi = np.concatenate([state_parts[s - 1] for s in members])
            zeta = xi - setpoint.xi_s
            nu = u - setpoint.u_s
            q_mat, r_mat = coal_weights[members]
            perf += float(zeta @ q_mat @ zeta + nu @ r_mat @ nu)

        if np.max(np.abs(u_global)) > ctrl_cfg.input_bound + 1e-9:
            raise RuntimeError(f"hard input constraint violated at step {k}")

        trace.levels[k] = levels
        trace.flows[k] = flows
        trace.inputs[k] = u_global
        trace.offtakes[k] = rho
        trace.topology_bits.append(incumbent.bits())
        trace.perf_cost[k] = perf
        trace.net_links[k] = incumbent.n_links
        trace.n_coalitions[k] = len(controllers)
        trace.mean_decision_vars[k] = float(np.mean(dec_vars))
        trace.coalition_log.append(step_logs)

        plant.step(u_global, rho, rng)
        history.push(levels, flows, u_global, rho)
        prev_u = u_global
        prev_rho = rho

    return trace


def run_centralized(scenario: Scenario, ctrl_cfg: ControllerConfig = None,
                    plant_cfg: PlantConfig = None, seed: int = 0,
                    cache: SynthesisCache = None, reaches=DEZ_REACHES) -> SimTrace:
    """Fixed full topology, one coalition, no supervisory layer."""
    return run_closed_loop(
        scenario, ctrl_cfg, plant_cfg, seed=seed, supervision=False,
        cache=cache, reaches=reaches,
    )


@dataclass
class CostReport:
    """Average per-step costs of a run (performance and network separated)."""

    c_link: float
    perf_avg: float
    links_avg: float
    network_avg: float         # c_link * links_avg
    combined_avg: float        # perf + network at c_link
    combined_avg_free: float   # pricing links at zero
    decision_vars_avg: float
    coalitions_avg: float

    def as_dict(self):
        return dataclasses.asdict(self)


def accumulate_costs(trace: SimTrace, c_link: float) -> CostReport:
    perf = float(np.mean(trace.perf_cost))
    links = float(np.mean(trace.net_links))
    return CostReport(
        c_link=c_link,
        perf_avg=perf,
        links_avg=links,
        network_avg=c_link * links,
        combined_avg=perf + c_link * links,
        combined_avg_free=perf,
        decision_vars_avg=float(np.mean(trace.mean_decision_vars)),
        coalitions_avg=float(np.mean(trace.n_coalitions)),
    )
