"""Configuration documents, trace files, and plot-data emission.

Configs are YAML (nested key-value sections, diff-friendly); traces are
comma-delimited text with a fixed column order so any plotting tool can
consume them.  Floats are written with shortest round-trip precision, so a
write/read cycle is lossless.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .canal import DEZ_REACHES, ReachParams
from .control import ControllerConfig
from .simulate import BUILTIN_SCENARIOS, PlantConfig, Scenario, SimTrace
from .topology import link_activity_matrix


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the field."""


@dataclass
class RunConfig:
    """Everything one run needs: plant table, tuning, scenario, outputs."""

    reaches: tuple = DEZ_REACHES
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    scenario: Scenario | None = None
    plant: PlantConfig = field(default_factory=PlantConfig)
    t_lambda: int = 4
    c_link_sweep: tuple = (0.0, 0.15, 0.3, 0.6, 1.2, 2.4)
    output_dir: str = "out"
    seed: int = 0

    def config_hash(self) -> str:
        """Digest of the run-defining fields; equal values hash equally, int or float."""
        payload = {
            "reaches": [[r.index, float(r.backwater_area), r.delay_steps,
                         float(r.length), float(r.bottom_width)] for r in self.reaches],
            "controller": dataclasses.asdict(self.controller),
            "scenario": None if self.scenario is None else {
                "name": self.scenario.name,
                "horizon": self.scenario.horizon,
                "schedules": {k: list(map(list, v)) for k, v in sorted(self.scenario.schedules.items())},
            },
            "plant": dataclasses.asdict(self.plant),
            "t_lambda": self.t_lambda,
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _section(value, where, known):
    """The mapping `value`, checked to hold only `known` fields."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(map(str, unknown))}")
    return value


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field '{key}'")
    value = mapping[key]
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: cannot interpret {value!r}") from None


def _optional(mapping, key, kind, where, default):
    return _require(mapping, key, kind, where) if key in mapping else default


def _integer(value):
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{value!r} is not an integer")
    return number


def _real(value):
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _list_of(kind):
    def convert(values):
        if not isinstance(values, list):
            raise TypeError(f"{values!r} is not a list")
        return tuple(kind(v) for v in values)
    return convert


def _parse_reaches(items):
    if not isinstance(items, list) or not items:
        raise ConfigError("reaches: must be a nonempty list")
    reaches = []
    for pos, item in enumerate(items, start=1):
        where = f"reaches[{pos}]"
        item = _section(item, where, _fields(ReachParams))
        try:
            reaches.append(
                ReachParams(
                    _require(item, "index", _integer, where),
                    _require(item, "backwater_area", _real, where),
                    _require(item, "delay_steps", _integer, where),
                    _optional(item, "length", _real, where, 0.0),
                    _optional(item, "bottom_width", _real, where, 0.0),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    indices = [r.index for r in reaches]
    if indices != list(range(1, len(reaches) + 1)):
        raise ConfigError("reaches: indices must be contiguous starting at 1")
    return tuple(reaches)


def _parse_controller(section):
    defaults = dataclasses.asdict(ControllerConfig())
    section = _section(section, "controller", defaults)
    values = {k: _require(section, k, _integer if isinstance(defaults[k], int) else _real,
                          "controller") for k in section}
    try:
        return ControllerConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"controller: {exc}") from None


def _parse_scenario(section):
    section = _section(section, "scenario", ("name", "horizon", "offtakes"))
    name = _require(section, "name", str, "scenario")
    horizon = _require(section, "horizon", _integer, "scenario")
    offtakes = _require(section, "offtakes", dict, "scenario")
    schedules = {}
    for key, entries in offtakes.items():
        try:
            reach = _integer(key)
            schedule = tuple((_integer(step), _real(v)) for step, v in entries)
        except (TypeError, ValueError):
            raise ConfigError(f"scenario.offtakes.{key}: cannot interpret {entries!r}") from None
        schedules[reach] = schedule
    try:
        return Scenario(name, horizon, schedules)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _parse_plant(section, n_reaches):
    section = _section(section, "plant", _fields(PlantConfig))
    factors = _optional(section, "surface_factors", _list_of(_real), "plant", None)
    offsets = _optional(section, "delay_offsets", _list_of(_integer), "plant", None)
    if any(v is not None and len(v) != n_reaches for v in (factors, offsets)):
        raise ConfigError("plant: per-reach lists must match the reach count")
    try:
        return PlantConfig(
            surface_factors=factors,
            delay_offsets=offsets,
            process_noise=_optional(section, "process_noise", _real, "plant", 0.0),
            measurement_noise=_optional(section, "measurement_noise", _real, "plant", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from None


def parse_config(doc: dict) -> RunConfig:
    doc = _section(doc, "top level", _fields(RunConfig))
    defaults = RunConfig()
    reaches = _parse_reaches(doc["reaches"]) if "reaches" in doc else defaults.reaches
    return check_run_config(RunConfig(
        reaches=reaches,
        controller=_parse_controller(doc.get("controller", {})),
        scenario=_parse_scenario(doc["scenario"]) if "scenario" in doc else None,
        plant=_parse_plant(doc.get("plant", {}), len(reaches)),
        t_lambda=_optional(doc, "t_lambda", _integer, "top level", defaults.t_lambda),
        c_link_sweep=_optional(doc, "c_link_sweep", _list_of(_real), "top level",
                               defaults.c_link_sweep),
        output_dir=_optional(doc, "output_dir", str, "top level", defaults.output_dir),
        seed=_optional(doc, "seed", _integer, "top level", defaults.seed),
    ))


def check_run_config(cfg: RunConfig) -> RunConfig:
    """Check the fields a run divides or prices by; a ConfigError names the field.

    Parsed documents and configurations with command-line overrides both
    pass here, so neither reaches the closed loop with a supervisory
    interval below 1, a negative or non-finite link price, a plant delay
    below one step, a negative seed, or a scenario whose schedules are not
    those of reaches 1..N of the reach table.
    """
    n = len(cfg.reaches)
    if cfg.scenario is not None and sorted(cfg.scenario.schedules) != list(range(1, n + 1)):
        raise ConfigError(
            f"scenario: '{cfg.scenario.name}' schedules reaches {sorted(cfg.scenario.schedules)}, "
            f"but the reach table has reaches 1..{n}"
        )
    if cfg.t_lambda < 1:
        raise ConfigError(f"t_lambda: must be at least 1, got {cfg.t_lambda}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {cfg.seed}")
    if not 0.0 <= cfg.controller.link_cost < np.inf:
        raise ConfigError(
            f"controller.link_cost: must be finite and nonnegative, got {cfg.controller.link_cost}"
        )
    if not cfg.c_link_sweep:
        raise ConfigError("c_link_sweep: must hold at least one link cost")
    bad = [c for c in cfg.c_link_sweep if not 0.0 <= c < np.inf]
    if bad:
        raise ConfigError(f"c_link_sweep: entries must be finite and nonnegative, got {bad}")
    for r, offset in zip(cfg.reaches, cfg.plant.delay_offsets or ()):
        if r.delay_steps + offset < 1:
            raise ConfigError(
                f"plant.delay_offsets: reach {r.index} offset {offset} takes its delay "
                f"{r.delay_steps} below 1"
            )
    return cfg


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parse_config(doc)


def scenario_by_name(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown scenario '{name}' (have {sorted(BUILTIN_SCENARIOS)})")
    return BUILTIN_SCENARIOS[name]()


def builtin_config(scenario_name: str) -> RunConfig:
    """The case-study configuration for one of the two scenarios."""
    return RunConfig(scenario=scenario_by_name(scenario_name))


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

_TRACE_MAGIC = "# canalmpc-trace v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def trace_columns(n: int):
    cols = ["step"]
    for prefix in ("e", "q", "dq", "offtake"):
        cols += [f"{prefix}_{i}" for i in range(1, n + 1)]
    cols += ["topology", "perf_cost", "net_links", "n_coalitions", "mean_decision_vars"]
    return cols


def write_trace(trace: SimTrace, path) -> None:
    """Persist a trace as delimited text with a provenance header."""
    n = trace.levels.shape[1]
    lines = [
        _TRACE_MAGIC,
        f"# scenario={trace.scenario}",
        f"# config_hash={trace.config_hash}",
        f"# version={__version__}",
        f"# seed={trace.seed}",
        ",".join(trace_columns(n)),
    ]
    body = np.hstack([trace.levels, trace.flows, trace.inputs, trace.offtakes], dtype=float)
    for k, values in enumerate(body):
        lines.append(",".join([
            str(k), *map(repr, values.tolist()), trace.topology_bits[k],
            _fmt(trace.perf_cost[k]), str(int(trace.net_links[k])),
            str(int(trace.n_coalitions[k])), _fmt(trace.mean_decision_vars[k]),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path) -> SimTrace:
    """Read a trace file back; the persisted arrays round-trip losslessly."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _TRACE_MAGIC:
        raise ValueError(f"{path}: not a canalmpc trace file")
    meta = {}
    body_start = None
    for pos, line in enumerate(lines[1:], start=1):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body_start = pos
            break
    if body_start is None:
        raise ValueError(f"{path}: no column header")
    header = lines[body_start].split(",")
    n = (len(header) - 6) // 4
    if trace_columns(n) != header:
        raise ValueError(f"{path}: unexpected column layout")
    rows = [ln.split(",") for ln in lines[body_start + 1:] if ln]
    horizon = len(rows)
    trace = SimTrace(
        scenario=meta.get("scenario", ""),
        levels=np.zeros((horizon, n)),
        flows=np.zeros((horizon, n)),
        inputs=np.zeros((horizon, n)),
        offtakes=np.zeros((horizon, n)),
        topology_bits=[],
        perf_cost=np.zeros(horizon),
        net_links=np.zeros(horizon, dtype=int),
        n_coalitions=np.zeros(horizon, dtype=int),
        mean_decision_vars=np.zeros(horizon),
        config_hash=meta.get("config_hash", ""),
        seed=int(meta.get("seed", 0)),
    )
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected {len(header)}")
        if int(row[0]) != k:
            raise ValueError(f"{path}: row {k} carries step {row[0]}")
        vals = row[1:]
        trace.levels[k] = [float(v) for v in vals[0:n]]
        trace.flows[k] = [float(v) for v in vals[n:2 * n]]
        trace.inputs[k] = [float(v) for v in vals[2 * n:3 * n]]
        trace.offtakes[k] = [float(v) for v in vals[3 * n:4 * n]]
        trace.topology_bits.append(vals[4 * n])
        trace.perf_cost[k] = float(vals[4 * n + 1])
        trace.net_links[k] = int(vals[4 * n + 2])
        trace.n_coalitions[k] = int(vals[4 * n + 3])
        trace.mean_decision_vars[k] = float(vals[4 * n + 4])
    return trace


def emit_plot_data(trace: SimTrace, outdir, c_link: float) -> list:
    """Write plottable series: levels, inflows, link raster, accumulated costs.

    Returns the list of files written.  The cost file carries accumulated
    performance cost and the same plus network usage priced at c_link.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    n = trace.levels.shape[1]
    written = []

    def table(name, header, rows):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        written.append(path)

    steps = range(trace.horizon)
    levels, flows = (np.asarray(a, dtype=float) for a in (trace.levels, trace.flows))
    table(
        "levels.csv",
        ["step"] + [f"e_{i}" for i in range(1, n + 1)],
        ([str(k), *map(repr, levels[k].tolist())] for k in steps),
    )
    table(
        "inflows.csv",
        ["step"] + [f"q_{i}" for i in range(1, n + 1)],
        ([str(k), *map(repr, flows[k].tolist())] for k in steps),
    )
    raster = link_activity_matrix(trace.topology_bits)
    table(
        "links.csv",
        ["step"] + [f"link_{i}" for i in range(1, raster.shape[1] + 1)],
        ([str(k), *map(str, raster[k].tolist())] for k in steps),
    )
    costs = np.cumsum(np.column_stack([trace.perf_cost, trace.perf_cost + c_link * trace.net_links]),
                      axis=0, dtype=float)
    table(
        "costs_accumulated.csv",
        ["step", "perf_cum", "combined_cum"],
        ([str(k), *map(repr, costs[k].tolist())] for k in steps),
    )
    return written
