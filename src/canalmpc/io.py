"""Configuration documents, trace files, and plot-data emission.

Configs are YAML (nested key-value sections, diff-friendly); traces are
comma-delimited text with a fixed column order so any plotting tool can
consume them.  Floats are written with shortest round-trip precision, so a
write/read cycle is lossless.
"""

import dataclasses
import hashlib
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

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

    reaches: tuple[ReachParams, ...] = DEZ_REACHES
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    scenario: Scenario | None = None
    plant: PlantConfig = field(default_factory=PlantConfig)
    t_lambda: int = 4
    c_link_sweep: tuple[float, ...] = (0.0, 0.15, 0.3, 0.6, 1.2, 2.4)
    output_dir: str = "out"
    seed: int = 0

    def config_hash(self) -> str:
        """Digest of the run-defining fields; equal values hash equally, int or float."""
        payload = {
            "reaches": [list(_as_typed(r).values()) for r in self.reaches],
            "controller": _as_typed(self.controller),
            "scenario": None if self.scenario is None else {
                "name": self.scenario.name,
                "horizon": self.scenario.horizon,
                "schedules": {k: [[step, float(v)] for step, v in entries]
                              for k, entries in sorted(self.scenario.schedules.items())},
            },
            "plant": _as_typed(self.plant),
            "t_lambda": self.t_lambda,
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _as_typed(obj):
    """A flat config dataclass's fields by name, each float-typed value (a scalar
    or a tuple's entries) a float, so that 250 and 250.0 hash alike."""
    def cast(kind, value):
        kind = typing.get_args(kind)[0] if isinstance(kind, types.UnionType) else kind  # X | None
        if typing.get_origin(kind) is tuple and value is not None:  # tuple[X, ...]
            return [cast(typing.get_args(kind)[0], v) for v in value]
        return float(value) if kind is float and value is not None else value
    return {f.name: cast(f.type, getattr(obj, f.name)) for f in dataclasses.fields(obj)}


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _scalar(kind, value, where):
    """A YAML scalar read as `kind`: a float field also takes an int; nothing else converts."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _mapping(value, where, known, required):
    """The mapping `value`, checked to hold every `required` and only `known` fields."""
    where = where or "top level"
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(map(str, unknown))}")
    for name in required:
        if name not in value:
            raise ConfigError(f"{where}: missing required field '{name}'")
    return value


def _read(kind, value, where):
    """`value` read as the annotation `kind`: X | None, tuple[X, ...], a dataclass or a scalar.

    A dataclass section takes its fields by name and leaves omitted ones at
    their defaults; an error names the field by its path from the document root.
    """
    if kind is Scenario:
        return _read_scenario(value, where)
    if isinstance(kind, types.UnionType):  # X | None
        return None if value is None else _read(typing.get_args(kind)[0], value, where)
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_read(item, v, f"{where}[{pos}]") for pos, v in enumerate(value, start=1))
    if not dataclasses.is_dataclass(kind):
        return _scalar(kind, value, where)
    fields = {f.name: f for f in dataclasses.fields(kind)}
    required = [name for name, f in fields.items()
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    _mapping(value, where, fields, required)
    values = {name: _read(fields[name].type, v, f"{where}.{name}" if where else name)
              for name, v in value.items()}
    try:
        return kind(**values)
    except ValueError as exc:
        raise ConfigError(f"{where or 'top level'}: {exc}") from None


def _read_scenario(value, where):
    """The scenario section: its offtake table maps reach numbers to [step, value] lists."""
    keys = ("name", "horizon", "offtakes")
    section = _mapping(value, where, keys, keys)
    if not isinstance(section["offtakes"], dict):
        raise ConfigError(f"{where}.offtakes: expected a mapping, got {section['offtakes']!r}")
    schedules = {}
    for key, entries in section["offtakes"].items():
        at = f"{where}.offtakes.{key}"
        reach = int(key) if isinstance(key, str) and key.isdecimal() else _scalar(int, key, at)
        if reach in schedules:
            raise ConfigError(f"{at}: reach {reach} is scheduled twice")
        if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 2
                                                    for e in entries):
            raise ConfigError(f"{at}: expected a list of [step, value] pairs, got {entries!r}")
        schedules[reach] = tuple(
            (_scalar(int, step, f"{at}[{pos}].step"), _scalar(float, v, f"{at}[{pos}].value"))
            for pos, (step, v) in enumerate(entries, start=1))
    try:
        return Scenario(_scalar(str, section["name"], f"{where}.name"),
                        _scalar(int, section["horizon"], f"{where}.horizon"), schedules)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(doc: dict) -> RunConfig:
    return check_run_config(_read(RunConfig, doc, ""))


def check_run_config(cfg: RunConfig) -> RunConfig:
    """Check the fields a run divides or prices by; a ConfigError names the field.

    Parsed documents and configurations with command-line overrides both
    pass here, so neither reaches the closed loop with a supervisory
    interval below 1, a negative or non-finite link price, a plant delay
    below one step, a negative seed, a reach table that is empty or not
    numbered 1..N, a per-reach plant list of another length than the table,
    or a scenario whose schedules are not those of reaches 1..N.
    """
    n = len(cfg.reaches)
    indices = [r.index for r in cfg.reaches]
    if not n or indices != list(range(1, n + 1)):
        raise ConfigError(f"reaches: indices must be 1..N for at least one reach, got {indices}")
    for name in ("surface_factors", "delay_offsets"):
        values = getattr(cfg.plant, name)
        if values is not None and len(values) != n:
            raise ConfigError(f"plant.{name}: {len(values)} entries for {n} reaches")
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
    import yaml  # imported by its only user, off the import path of runs that read no config
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
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
    trace = SimTrace.empty(meta.get("scenario", ""), len(rows), n,
                           int(meta.get("seed", 0)), meta.get("config_hash", ""))
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
