import copy
import dataclasses
import os
import pathlib
import re

import numpy as np
import pytest
import yaml

from canalmpc.canal import DEZ_REACHES, ReachParams
from canalmpc.control import ControllerConfig
from canalmpc.io import (
    ConfigError,
    RunConfig,
    builtin_config,
    check_run_config,
    emit_plot_data,
    load_config,
    parse_config,
    read_trace,
    scenario_by_name,
    trace_columns,
    write_trace,
)
from canalmpc.simulate import PlantConfig, Scenario, run_centralized
from canalmpc.supervisor import SynthesisCache

from oracles import plot_rows, trace_rows

CACHE = SynthesisCache()


def small_scenario(horizon=30):
    return Scenario("flat", horizon, {i: ((0, 2.0),) for i in range(1, 14)})


@pytest.fixture(scope="module")
def short_trace():
    tr = run_centralized(small_scenario(), seed=1, cache=CACHE)
    tr.config_hash = "abc123def456"
    return tr


class TestLoadConfig:
    def test_bundled_scenario1(self):
        cfg = builtin_config("scenario1")
        assert len(cfg.reaches) == 13
        assert cfg.reaches[0].backwater_area == pytest.approx(0.9318e5)
        assert cfg.reaches[3].backwater_area == pytest.approx(3.7060e5)
        assert [r.delay_steps for r in cfg.reaches] == [3, 1, 2, 2, 2, 3, 2, 1, 2, 2, 2, 2, 2]
        assert cfg.controller.prediction_horizon == 10
        assert cfg.controller.control_horizon == 3
        assert cfg.controller.level_weight == 250.0
        assert cfg.controller.input_weight == 2800.0
        assert cfg.controller.slack_weight == 1.0e4
        assert cfg.controller.link_cost == 0.6
        assert cfg.controller.sample_time == 300.0
        assert cfg.scenario.name == "scenario1"
        assert cfg.scenario.offtakes_at(72)[12] == 0.0

    def test_bundled_scenario2(self):
        cfg = builtin_config("scenario2")
        assert np.array_equal(cfg.scenario.offtakes_at(150), cfg.scenario.offtakes_at(0))

    def test_defaults_applied_when_sections_missing(self, tmp_path):
        doc = {"scenario": {
            "name": "mini", "horizon": 10,
            "offtakes": {str(i): [[0, 1.0]] for i in range(1, 14)},
        }}
        path = tmp_path / "min.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.controller.prediction_horizon == 10
        assert cfg.controller.input_weight == 2800.0
        assert cfg.t_lambda == 4
        assert len(cfg.reaches) == 13  # case-study table by default

    def test_zero_delay_rejected(self, tmp_path):
        doc = {"reaches": [
            {"index": 1, "backwater_area": 1e5, "delay_steps": 0},
        ]}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="delay"):
            load_config(path)

    def test_unknown_controller_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"controller": {"bogus": 1}})

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("controller: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_scenario_reach_must_exist(self):
        with pytest.raises(ConfigError, match="reach 99"):
            parse_config({"scenario": {
                "name": "x", "horizon": 5,
                "offtakes": {"99": [[0, 1.0]]},
            }})

    def test_reach_scheduled_twice_named(self):
        """A quoted and an unquoted key for one reach would otherwise let the last one win."""
        with pytest.raises(ConfigError, match="reach 1 is scheduled twice"):
            parse_config(yaml.safe_load("scenario: {name: x, horizon: 5, offtakes: "
                                        "{1: [[0, 1.0]], '1': [[0, 5.0]]}}"))

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError, match="t_lamda"):
            parse_config({"t_lamda": 8})

    def test_unknown_scenario_field_named(self):
        with pytest.raises(ConfigError, match="initial_regime"):
            parse_config({"scenario": {
                "name": "x", "horizon": 5, "initial_regime": 0.36,
                "offtakes": {str(i): [[0, 1.0]] for i in range(1, 14)},
            }})

    def test_unknown_plant_field_named(self):
        with pytest.raises(ConfigError, match="surface_factor"):
            parse_config({"plant": {"surface_factor": [1.2] * 13}})

    def test_unknown_reach_field_named(self):
        with pytest.raises(ConfigError, match=r"reaches\[1\].*backwater_aera"):
            parse_config({"reaches": [
                {"index": 1, "backwater_aera": 1e5, "delay_steps": 2},
            ]})

    def test_reach_item_must_be_mapping(self):
        with pytest.raises(ConfigError, match=r"reaches\[1\]"):
            parse_config({"reaches": [5]})

    def test_scalar_per_reach_list_named(self):
        with pytest.raises(ConfigError, match="plant.surface_factors"):
            parse_config({"plant": {"surface_factors": 1.2}})

    def test_config_hash_stable(self):
        a = builtin_config("scenario1").config_hash()
        b = builtin_config("scenario1").config_hash()
        assert a == b and len(a) == 12
        assert builtin_config("scenario2").config_hash() != a

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_config_hash_ignores_int_or_float_reach_values(self, name, tmp_path):
        """The case study written out as YAML, lengths and widths as ints, parses to the
        built-in configuration: the parser reads them as floats, the table holds ints."""
        scenario = scenario_by_name(name)
        doc = {
            "reaches": [dataclasses.asdict(r) for r in DEZ_REACHES],
            "controller": dataclasses.asdict(ControllerConfig()),
            "scenario": {"name": name, "horizon": scenario.horizon,
                         "offtakes": {reach: [list(entry) for entry in entries]
                                      for reach, entries in scenario.schedules.items()}},
        }
        assert all(isinstance(r["length"], int) for r in doc["reaches"])
        path = tmp_path / f"dez_{name}.yaml"
        path.write_text(yaml.safe_dump(doc))
        parsed = load_config(path)
        assert parsed == builtin_config(name)
        assert parsed.config_hash() == builtin_config(name).config_hash()

    @pytest.mark.parametrize("field, as_int, as_float, changed", [
        ("controller", ControllerConfig(level_weight=250), ControllerConfig(level_weight=250.0),
         ControllerConfig(level_weight=251)),
        ("plant", PlantConfig(surface_factors=(1,) * 13), PlantConfig(surface_factors=(1.0,) * 13),
         PlantConfig(surface_factors=(2,) * 13)),
        ("scenario", Scenario("flat", 30, {i: ((0, 2),) for i in range(1, 14)}), small_scenario(),
         Scenario("flat", 30, {i: ((0, 3),) for i in range(1, 14)})),
    ])
    def test_config_hash_ignores_int_or_float_spelling(self, field, as_int, as_float, changed):
        """An int in a float field hashes as the float it equals; another value does not."""
        digest = RunConfig(**{field: as_int}).config_hash()
        assert as_int == as_float
        assert digest == RunConfig(**{field: as_float}).config_hash()
        assert digest != RunConfig(**{field: changed}).config_hash()

    @pytest.mark.parametrize("name, digest", [("scenario1", "6bb14feeca60"),
                                              ("scenario2", "a4198d0632b7")])
    def test_config_hash_of_bundled_files_unchanged(self, name, digest):
        assert builtin_config(name).config_hash() == digest

    def test_zero_history_capacity_named(self):
        with pytest.raises(ConfigError, match="controller: history_capacity"):
            parse_config({"controller": {"history_capacity": 0}})

    @pytest.mark.parametrize("field, value", [("kf_measurement_noise", 0.0),
                                              ("kf_omega_process_noise", -1e-2)])
    def test_bad_kalman_noise_named(self, field, value):
        with pytest.raises(ConfigError, match=f"controller: {field}"):
            parse_config({"controller": {field: value}})

    @pytest.mark.parametrize("value", [0.0, -250.0])
    def test_nonpositive_level_weight_named(self, value):
        with pytest.raises(ConfigError, match="controller: level_weight"):
            parse_config({"controller": {"level_weight": value}})

    @pytest.mark.parametrize("field", ["level_weight", "input_weight", "slack_weight",
                                       "setpoint_slack_weight", "link_cost", "sample_time",
                                       "input_bound", "flow_margin", "kf_flow_process_noise",
                                       "kf_level_process_noise", "kf_omega_process_noise",
                                       "kf_measurement_noise", "kf_prior_flow",
                                       "kf_prior_level", "kf_prior_omega"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_controller_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"controller: {field}"):
            parse_config({"controller": {field: value}})

    def test_delay_offset_below_one_step_named(self):
        offsets = [-3] + [0] * 12  # reach 1 has a delay of 3 steps
        with pytest.raises(ConfigError, match=r"plant.delay_offsets: reach 1\b"):
            parse_config({"plant": {"delay_offsets": offsets}})
        offsets[0] = -2
        assert parse_config({"plant": {"delay_offsets": offsets}}).plant.delay_offsets[0] == -2

    def test_infinite_backwater_area_named(self):
        with pytest.raises(ConfigError, match=r"reaches\[1\]: .*backwater_area"):
            parse_config({"reaches": [
                {"index": 1, "backwater_area": float("inf"), "delay_steps": 2},
            ]})

    def test_infinite_surface_factor_named(self):
        with pytest.raises(ConfigError, match="plant: surface_factors"):
            parse_config({"plant": {"surface_factors": [float("inf")] + [1.0] * 12}})

    @pytest.mark.parametrize("value", [float("nan"), -0.01])
    def test_bad_measurement_noise_named(self, value):
        with pytest.raises(ConfigError, match="plant: measurement_noise"):
            parse_config({"plant": {"measurement_noise": value}})

    @pytest.mark.parametrize("value", [float("inf"), -0.01])
    def test_bad_process_noise_named(self, value):
        with pytest.raises(ConfigError, match="plant: process_noise"):
            parse_config({"plant": {"process_noise": value}})

    def test_nan_offtake_named(self):
        offtakes = {str(i): [[0, 2.0]] for i in range(1, 14)}
        offtakes["3"] = [[0, 2.0], [10, float("nan")]]
        with pytest.raises(ConfigError, match="scenario: reach 3: offtakes"):
            parse_config({"scenario": {"name": "x", "horizon": 20, "offtakes": offtakes}})

    @pytest.mark.parametrize("text, field", [
        ("reaches: [{index: 1, backwater_area: true, delay_steps: 2}]",
         r"reaches\[1\]\.backwater_area"),
        ("controller: {level_weight: true}", "controller.level_weight"),
        ("scenario: {name: x, horizon: 5, offtakes: {1: [[0, on]]}}", "scenario.offtakes.1"),
        ("plant: {process_noise: yes}", "plant.process_noise"),
        ("plant: {surface_factors: [no]}", "plant.surface_factors"),
        ("c_link_sweep: [true, false]", r"c_link_sweep\[1\]"),
    ], ids=["reaches", "controller", "scenario", "plant", "plant-list", "top-level"])
    def test_boolean_in_float_field_named(self, text, field):
        """YAML reads true/false, yes/no and on/off as booleans, which are not numbers."""
        with pytest.raises(ConfigError, match=field):
            parse_config(yaml.safe_load(text))

    @pytest.mark.parametrize("text, names", [
        ('reaches: [{index: 1, backwater_area: "1e5", delay_steps: 2}]', ["backwater_area"]),
        ("reaches: [{index: 1, backwater_area: 100000.0, delay_steps: 2.0}]", ["delay_steps"]),
        ('controller: {level_weight: "250"}', ["level_weight"]),
        ('controller: {prediction_horizon: "10"}', ["prediction_horizon"]),
        ('scenario: {name: x, horizon: 5, offtakes: {1: [["0", 1.0]]}}', ["offtakes.1[1].step"]),
        ('scenario: {name: x, horizon: 5, offtakes: {1: [[0, "1.0"]]}}', ["offtakes.1[1].value"]),
        ('plant: {process_noise: "0.1"}', ["process_noise"]),
        ('plant: {surface_factors: [1.0, "0.8"]}', ["surface_factors[2]"]),
        ("t_lambda: 4.0", ["t_lambda"]),
        ('seed: "3"', ["seed"]),
        ("output_dir: 5", ["output_dir"]),
        ("reaches: [{index: 1, delay_steps: 2}]", ["reaches[1]", "backwater_area"]),
        (f"controller: {{input_weight: {10 ** 400}}}", ["input_weight"]),
    ], ids=["reach-float", "reach-int", "controller-float", "controller-int", "offtake-step",
            "offtake-value", "plant-scalar", "plant-list", "t_lambda", "seed", "output_dir",
            "missing-reach-field", "int-beyond-float"])
    def test_field_of_wrong_type_named_once(self, text, names):
        """A YAML value is read only as its field's type: an int may fill a float field if a
        float can hold it, but no string or float is taken as a number or integer, and no
        number as a string."""
        with pytest.raises(ConfigError) as info:
            parse_config(yaml.safe_load(text))
        assert [str(info.value).count(name) for name in names] == [1] * len(names)

    def test_every_field_read_back(self, tmp_path):
        """Every field of every section, set away from its default, survives a YAML round trip."""
        default = ControllerConfig()
        cfg = RunConfig(
            reaches=(ReachParams(1, 2.5e4, 2, 1500.0, 3.5), ReachParams(2, 4.0e4, 3, 2500.0, 6.0)),
            controller=dataclasses.replace(default, **{
                f.name: 2 * getattr(default, f.name) for f in dataclasses.fields(default)}),
            scenario=Scenario("two", 12, {1: ((0, 1.5), (6, 0.5)), 2: ((0, 2.0),)}),
            plant=PlantConfig(surface_factors=(1.1, 0.9), delay_offsets=(1, -1),
                              process_noise=1e-3, measurement_noise=2e-3),
            t_lambda=2,
            c_link_sweep=(0.1, 0.5),
            output_dir="elsewhere",
            seed=5,
        )
        for section in (cfg, cfg.controller, cfg.plant, *cfg.reaches):
            assert _fields_at_default(section) == []
        doc = dataclasses.asdict(cfg)
        doc["scenario"]["offtakes"] = doc["scenario"].pop("schedules")
        path = tmp_path / "every_field.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("cfg, field", [
        (RunConfig(plant=PlantConfig(surface_factors=(1.0,) * 12)), "plant.surface_factors"),
        (RunConfig(plant=PlantConfig(delay_offsets=(0,) * 14)), "plant.delay_offsets"),
        (RunConfig(reaches=()), "reaches"),
        (RunConfig(reaches=DEZ_REACHES[1:]), "reaches"),
    ], ids=["surface-factors", "delay-offsets", "no-reaches", "reach-numbering"])
    def test_cross_field_checks_cover_built_configs(self, cfg, field):
        """A configuration built in Python meets the same checks as a parsed one."""
        with pytest.raises(ConfigError, match=f"^{field}: "):
            check_run_config(cfg)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError):
            scenario_by_name("scenario9")

    def test_readme_example_loads(self, tmp_path):
        """The README's YAML example is a complete configuration a run accepts."""
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```yaml\n(.*?)^```$", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        path = tmp_path / "example.yaml"
        path.write_text(blocks[0])
        cfg = load_config(path)
        assert len(cfg.reaches) == 2 and sorted(cfg.scenario.schedules) == [1, 2]
        assert cfg.plant.surface_factors == (1.2, 0.8)


class TestTraceRoundTrip:
    def test_lossless(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(short_trace, path)
        back = read_trace(path)
        assert back.arrays_equal(short_trace)
        assert back.config_hash == short_trace.config_hash
        # byte-identical on rewrite
        path2 = tmp_path / "trace2.csv"
        write_trace(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_column_count(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(short_trace, path)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert len(header.split(",")) == 1 + 4 * 13 + 1 + 4
        assert header.split(",") == trace_columns(13)

    def test_centralized_topology_column(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(short_trace, path)
        back = read_trace(path)
        assert all(bits == "1" * 12 for bits in back.topology_bits)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("step,e_1\n0,1.0\n")
        with pytest.raises(ValueError, match="not a canalmpc trace"):
            read_trace(path)

    def test_rejects_file_without_column_header(self, tmp_path):
        path = tmp_path / "truncated.csv"
        path.write_text("# canalmpc-trace v1\n# scenario=scenario1\n# seed=0\n")
        with pytest.raises(ValueError, match="no column header"):
            read_trace(path)

    def test_full_precision(self, short_trace, tmp_path):
        short_trace.levels[0, 0] = 0.1 + 0.2  # not representable prettily
        path = tmp_path / "trace.csv"
        write_trace(short_trace, path)
        back = read_trace(path)
        assert back.levels[0, 0] == short_trace.levels[0, 0]

    def test_rows_match_per_value_formatting(self, short_trace, tmp_path):
        trace = _awkward_trace(short_trace)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_text().splitlines()[6:] == trace_rows(trace)


def _fields_at_default(obj):
    """The names of the fields of dataclass `obj` that hold their default value."""
    return [f.name for f in dataclasses.fields(obj)
            if f.default is not dataclasses.MISSING and getattr(obj, f.name) == f.default
            or f.default_factory is not dataclasses.MISSING
            and getattr(obj, f.name) == f.default_factory()]


def _awkward_trace(trace):
    """A copy of `trace` holding values whose shortest repr is easy to get wrong."""
    trace = copy.deepcopy(trace)
    for array in (trace.levels, trace.flows, trace.inputs, trace.offtakes):
        array[0, :4] = [-0.0, 5e-324, 0.1 + 0.2, 1e300]
    trace.perf_cost[:4] = [-0.0, 5e-324, 0.1 + 0.2, 1e300]
    trace.mean_decision_vars[:4] = [-0.0, 5e-324, 0.1 + 0.2, 1e300]
    return trace


class TestEmitPlotData:
    def test_files_and_monotone_costs(self, short_trace, tmp_path):
        files = emit_plot_data(short_trace, tmp_path / "plots", c_link=0.6)
        names = {os.path.basename(f) for f in files}
        assert names == {"levels.csv", "inflows.csv", "links.csv", "costs_accumulated.csv"}
        costs = np.genfromtxt(tmp_path / "plots" / "costs_accumulated.csv",
                              delimiter=",", names=True)
        assert np.all(np.diff(costs["perf_cum"]) >= -1e-12)
        assert np.all(np.diff(costs["combined_cum"]) >= -1e-12)

    def test_centralized_raster_all_ones(self, short_trace, tmp_path):
        emit_plot_data(short_trace, tmp_path / "plots", c_link=0.6)
        raster = np.genfromtxt(tmp_path / "plots" / "links.csv", delimiter=",", skip_header=1)
        assert np.all(raster[:, 1:] == 1)

    def test_rows_match_per_value_formatting(self, short_trace, tmp_path):
        trace = _awkward_trace(short_trace)
        emit_plot_data(trace, tmp_path / "plots", c_link=0.6)
        for name, rows in plot_rows(trace, 0.6).items():
            assert (tmp_path / "plots" / name).read_text().splitlines()[1:] == rows
