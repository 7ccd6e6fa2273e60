"""Closed-loop simulation harness against an internal integrator-delay plant.

The plant is the assembled chain model, optionally parameter-perturbed so
that the controllers (which always use the nominal table) face model
mismatch.  The supervisory layer re-selects the network topology every
t_lambda steps; coalition controllers run every step.  Runs are fully
deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .canal import DEZ_REACHES, ReachParams, assemble_global, build_chain
from .control import (CoalitionController, ControllerConfig, KalmanState, PartitionController,
                      compute_setpoint, kf_init, kf_update, partition_filter)
from .numerics import block_diag
from .supervisor import SynthesisCache, select_topology, synthesize
from .topology import full_topology, partition_of


@dataclass(frozen=True)
class Scenario:
    """Offtake schedule per reach: piecewise-constant (step, value) pairs."""

    name: str
    horizon: int
    schedules: dict

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        reaches = range(1, len(self.schedules) + 1)
        for reach, entries in self.schedules.items():
            if reach not in reaches:
                raise ValueError(f"reach {reach}: schedules must be keyed 1..{len(reaches)}")
            steps = [s for s, _ in entries]
            if not entries or entries[0][0] != 0:
                raise ValueError(f"reach {reach}: schedule must start at step 0")
            if steps != sorted(set(steps)):
                raise ValueError(f"reach {reach}: steps must be strictly increasing")
            if not all(0.0 <= v < np.inf for _, v in entries):
                raise ValueError(f"reach {reach}: offtakes must be finite and nonnegative")

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

    surface_factors: tuple[float, ...] | None = None
    delay_offsets: tuple[int, ...] | None = None
    process_noise: float = 0.0
    measurement_noise: float = 0.0

    def __post_init__(self):
        if not all(0.0 < f < np.inf for f in self.surface_factors or ()):
            raise ValueError("surface_factors must be finite and positive")
        for name in ("process_noise", "measurement_noise"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")

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
        return tuple([
            ReachParams(r.index, r.backwater_area * f, r.delay_steps + dd,
                        r.length, r.bottom_width)
            for r, f, dd in zip(reaches, factors, offsets)
        ])


def plant_step(model, state, inputs, offtakes):
    """Advance the assembled chain model one step; the run loop checks the input box."""
    return model.Xi @ state + model.Up @ inputs + model.Phi @ offtakes


class Plant:
    """Stateful wrapper: perturbed chain model plus measurement extraction.

    The noise generator, seeded with `seed`, exists only when the config sets
    process or measurement noise, so a noiseless run never imports numpy.random.
    """

    def __init__(self, plant_cfg: PlantConfig, t_sample: float, initial_offtakes, reaches, seed):
        self.cfg = plant_cfg
        self.subs = build_chain(plant_cfg.perturbed_reaches(reaches), t_sample)
        self.model = assemble_global(self.subs)
        self.state = compute_setpoint(self.model, initial_offtakes, np.zeros(0))
        self._level_rows = self.model.level_rows()
        self._gate_rows = self.model.gate_flow_rows()
        noisy = plant_cfg.process_noise > 0.0 or plant_cfg.measurement_noise > 0.0
        self._rng = np.random.default_rng(seed) if noisy else None

    def measure(self):
        levels = self.state[self._level_rows].copy()
        flows = self.state[self._gate_rows].copy()
        if self.cfg.measurement_noise > 0.0:
            levels += self._rng.normal(0.0, self.cfg.measurement_noise, size=levels.shape)
            flows += self._rng.normal(0.0, self.cfg.measurement_noise, size=flows.shape)
        return levels, flows

    def step(self, inputs, offtakes):
        self.state = plant_step(self.model, self.state, inputs, offtakes)
        if self.cfg.process_noise > 0.0:
            noise = self._rng.normal(0.0, self.cfg.process_noise, size=len(self._level_rows))
            self.state[self._level_rows] += noise


@dataclass(eq=False)
class SimTrace:
    """Per-step record of one run; array fields are what trace files persist.

    levels, flows, inputs and offtakes view rows 1..T of `rows`, the run's
    one record; row 0 is the plant at rest: step 0's measurement and
    offtakes, zero inputs.  Traces compare by arrays_equal; == is identity."""

    scenario: str
    levels: np.ndarray          # (T, N) for N reaches
    flows: np.ndarray           # (T, N) measured gate flows
    inputs: np.ndarray          # (T, N) applied increments
    offtakes: np.ndarray        # (T, N)
    topology_bits: list         # (T,) strings of N - 1 link flags
    perf_cost: np.ndarray       # (T,) level_weight |levels|^2 + input_weight |inputs|^2
    net_links: np.ndarray       # (T,) int
    n_coalitions: np.ndarray    # (T,) int
    mean_decision_vars: np.ndarray  # (T,)
    rows: np.ndarray = field(repr=False)  # (4, T + 1, N); not persisted
    config_hash: str = ""
    seed: int = 0

    @classmethod
    def empty(cls, scenario: str, horizon: int, n: int, seed: int, config_hash: str) -> "SimTrace":
        """A zero-filled trace of `horizon` steps over `n` reaches, to be filled step by step."""
        rows = np.zeros((4, horizon + 1, n))
        return cls(
            scenario, *rows[:, 1:], topology_bits=[],
            perf_cost=np.zeros(horizon), net_links=np.zeros(horizon, dtype=int),
            n_coalitions=np.zeros(horizon, dtype=int), mean_decision_vars=np.zeros(horizon),
            config_hash=config_hash, seed=seed, rows=rows,
        )

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


def run_closed_loop(scenario: Scenario, ctrl_cfg: ControllerConfig = None,
                    plant_cfg: PlantConfig = None, seed: int = 0,
                    t_lambda: int = 4, supervision: bool = True,
                    cache: SynthesisCache = None, reaches=DEZ_REACHES) -> SimTrace:
    """Run the two-layer scheme end to end and record the trace.

    With supervision disabled the run is the centralized baseline: one
    coalition on the fixed full topology, no topology decisions.
    """
    if t_lambda < 1:
        raise ValueError(f"t_lambda must be at least 1, got {t_lambda}")
    ctrl_cfg = ctrl_cfg or ControllerConfig()
    plant_cfg = plant_cfg or PlantConfig()
    cache = cache if cache is not None else SynthesisCache()
    n = len(reaches)
    subs = build_chain(reaches, ctrl_cfg.sample_time)
    nominal_model = assemble_global(subs)
    max_delay = max(s.delay for s in subs)

    rho0 = scenario.offtakes_at(0)
    plant = Plant(plant_cfg, ctrl_cfg.sample_time, rho0, reaches=reaches, seed=seed)

    trace = SimTrace.empty(scenario.name, scenario.horizon, n, seed, "")
    rows = trace.rows  # row k + 1 is step k; row 0 is the plant at rest
    rows[:2, 0] = plant.measure()
    rows[3, 0] = rho0
    outflow = rows[1, 0].copy()  # published per-gate q_s + dq_s; at rest, the measured flows

    incumbent = full_topology(n)
    partition, part = (), None  # part: the partition's controllers, stepped as one
    est = None  # the partition filter's state; part.blocks[i] is controller i's slice of it

    def rebuild_controllers(partition, window):
        """The partition's controllers and their filter's state: a kept controller's
        blocks of `est`, a new one's warm start."""
        nonlocal part
        records = synthesize(partition, subs, ctrl_cfg, cache)
        kept = {ctrl.model.members: (ctrl, KalmanState(est.xhat[b], est.cov[b, b]))
                for ctrl, b in zip(part.controllers, part.blocks)} if part else {}
        part = None
        fresh = [kept.get(r.model.members) for r in records]
        kept.clear()  # the replaced controllers go before any successor is built
        for pos, record in enumerate(records):
            if fresh[pos] is None:
                ctrl = CoalitionController(record.model, record.gain, record.p_mat, ctrl_cfg)
                fresh[pos] = ctrl, kf_init(ctrl.filter, window, cache.schedule(ctrl.filter,
                                                                               window.shape[1]))
        return (PartitionController([ctrl for ctrl, _ in fresh], ctrl_cfg),
                KalmanState(np.concatenate([e.xhat for _, e in fresh]),
                            block_diag(*[e.cov for _, e in fresh])))

    for k in range(scenario.horizon):
        rho = scenario.offtakes_at(k)
        rows[:2, k + 1] = plant.measure() if k > 0 else rows[:2, 0]
        rows[3, k + 1] = rho
        levels, _, u_global = rows[:3, k + 1]

        if k == 0 or supervision and k % t_lambda == 0:
            if supervision:
                lags = [max(k + 1 - j, 0) for j in range(max_delay)]
                state = nominal_model.stack_state(rows[1, lags], levels)
                incumbent = select_topology(
                    state, rho, outflow, incumbent, cache, subs, ctrl_cfg, t_lambda, nominal_model,
                ).topology
            if partition_of(incumbent) != partition:
                partition = partition_of(incumbent)
                window = rows[:, max(0, k + 1 - ctrl_cfg.history_capacity):k + 1]  # steps < k
                part, est = rebuild_controllers(partition, window)
                filt = partition_filter([ctrl.filter for ctrl in part.controllers])
                # the partition measurement: [levels; flows] of each coalition's members in turn
                quantity = np.array([q for c in part.controllers for q in (0, 1) for _ in c.idx])
                reach = np.array([s - 1 for c in part.controllers for s in c.model.members * 2])

        y = rows[quantity, k + 1, reach]
        if not np.all(np.isfinite(y)):  # refused here, so every QP vector stays finite
            bad = reach[np.argmin(np.isfinite(y))]
            owner = next(ctrl.model.members for ctrl in part.controllers if bad in ctrl.idx)
            raise ValueError(f"step {k}: non-finite measurement for coalition {owner}")
        if k > 0:
            est = kf_update(filt, est, rows[2, k], rows[3, k], y)

        try:
            u_global[:], outflow = part.step(est.xhat, rho)
        except Exception as exc:
            raise RuntimeError(f"controller failure at step {k}: {exc}") from exc

        if np.max(np.abs(u_global)) > ctrl_cfg.input_bound + 1e-9:
            raise RuntimeError(f"hard input constraint violated at step {k}")

        trace.topology_bits.append(incumbent.bits())
        trace.net_links[k] = incumbent.n_links
        trace.n_coalitions[k] = len(part.controllers)
        trace.mean_decision_vars[k] = ctrl_cfg.control_horizon * n / len(part.controllers)

        plant.step(u_global, rho)

    # The supervisor's stage term against the zero-error reference.
    trace.perf_cost[:] = (ctrl_cfg.level_weight * np.sum(np.square(trace.levels), axis=1)
                          + ctrl_cfg.input_weight * np.sum(np.square(trace.inputs), axis=1))
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

    perf_avg: float
    links_avg: float
    network_avg: float         # c_link * links_avg
    combined_avg: float        # perf + network at c_link
    decision_vars_avg: float
    coalitions_avg: float


def accumulate_costs(trace: SimTrace, c_link: float) -> CostReport:
    perf = float(np.mean(trace.perf_cost))
    links = float(np.mean(trace.net_links))
    return CostReport(
        perf_avg=perf,
        links_avg=links,
        network_avg=c_link * links,
        combined_avg=perf + c_link * links,
        decision_vars_avg=float(np.mean(trace.mean_decision_vars)),
        coalitions_avg=float(np.mean(trace.n_coalitions)),
    )
