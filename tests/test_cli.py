import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import canalmpc
from canalmpc.canal import DEZ_REACHES
from canalmpc.cli import _build_parser, _materialize, main
from canalmpc.io import read_trace


def mini_config(tmp_path, horizon=24, seed=0):
    doc = {
        "scenario": {
            "name": "mini",
            "horizon": horizon,
            "offtakes": {str(i): [[0, 2.0]] for i in range(1, 14)},
        },
        "t_lambda": 4,
        "seed": seed,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestCli:
    def test_run_writes_trace_and_plots(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        out = tmp_path / "out"
        trace = read_trace(out / "trace_coalitional.csv")
        assert trace.horizon == 24
        assert (out / "plots_coalitional" / "levels.csv").exists()
        assert "perf_avg" in capsys.readouterr().out

    def test_baseline_centralized(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["baseline", "--config", str(cfg)])
        assert rc == 0
        trace = read_trace(tmp_path / "out" / "trace_centralized.csv")
        assert all(b == "1" * 12 for b in trace.topology_bits)
        assert np.all(trace.mean_decision_vars == 39.0)

    def test_seed_reproducibility(self, tmp_path):
        cfg = mini_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--seed", "7"]) == 0
        first = (tmp_path / "out" / "trace_coalitional.csv").read_bytes()
        assert main(["run", "--config", str(cfg), "--seed", "7"]) == 0
        second = (tmp_path / "out" / "trace_coalitional.csv").read_bytes()
        assert first == second

    def test_compare_prints_both(self, tmp_path, capsys):
        cfg = mini_config(tmp_path, horizon=16)
        rc = main(["compare", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[coalitional]" in out and "[centralized]" in out
        assert "c_link=0.0" in out

    def test_sweep_monotone(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        assert "non-increasing in c_link: yes" in capsys.readouterr().out

    def test_sweep_checks_monotonicity_in_c_link_order(self, tmp_path, capsys):
        """An unsorted sweep list is swept, and judged, in ascending c_link."""
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["c_link_sweep"] = [2.4, 0.0]
        path.write_text(yaml.safe_dump(doc))
        rc = main(["sweep", "--config", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split(":")[0] for line in lines[:2]] == ["c_link=0", "c_link=2.4"]
        assert lines[2] == "link count non-increasing in c_link: yes"

    @pytest.mark.parametrize("n_reaches", [1, 2])
    def test_sweep_on_short_chain(self, tmp_path, capsys, n_reaches):
        doc = {
            "reaches": [{"index": r.index, "backwater_area": r.backwater_area,
                         "delay_steps": r.delay_steps} for r in DEZ_REACHES[:n_reaches]],
            "scenario": {"name": "short", "horizon": 8,
                         "offtakes": {str(i): [[0, 2.0]] for i in range(1, n_reaches + 1)}},
        }
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["sweep", "--config", str(path)])
        assert rc == 0
        assert "non-increasing in c_link: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario_flag", [[], ["--scenario", "scenario1"]])
    def test_scenario_not_covering_reach_table_refused(self, tmp_path, capsys, scenario_flag):
        path = tmp_path / "two.yaml"
        path.write_text(yaml.safe_dump({"reaches": [
            {"index": r.index, "backwater_area": r.backwater_area, "delay_steps": r.delay_steps}
            for r in DEZ_REACHES[:2]
        ]}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")] + scenario_flag)
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: scenario: 'scenario1' schedules reaches" in err
        assert not (tmp_path / "out").exists()

    def test_validate_passes(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_validate_refuses_zero_level_weight(self, tmp_path, capsys):
        """Q = 0 leaves both controller Hessians singular; validate refuses it
        as a configuration error rather than pass the zero gain it synthesizes."""
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["controller"] = {"level_weight": 0.0}
        path.write_text(yaml.safe_dump(doc))
        rc = main(["validate", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error: controller: level_weight" in captured.err
        assert captured.out == ""

    def test_validate_takes_a_table_without_scenario(self, tmp_path, capsys):
        """validate runs no scenario, so a 3-reach table needs no scenario section."""
        path = tmp_path / "three.yaml"
        path.write_text(yaml.safe_dump({"reaches": [
            {"index": r.index, "backwater_area": r.backwater_area, "delay_steps": r.delay_steps}
            for r in DEZ_REACHES[:3]
        ]}))
        rc = main(["validate", "--config", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("reaches: [{index: 1, backwater_area: -3, delay_steps: 2}]\n")
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_validate_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("plant: {surface_factors: 1.2}\n")
        rc = main(["validate", "--config", str(path)])
        assert rc == 2
        assert "configuration error: plant.surface_factors" in capsys.readouterr().err

    def test_oversized_int_config_exit_code(self, tmp_path, capsys):
        """PyYAML raises a plain ValueError for an int past Python's 4300-digit limit."""
        path = tmp_path / "big.yaml"
        path.write_text("seed: 1" + "0" * 5000 + "\n")
        rc = main(["validate", "--config", str(path)])
        assert rc == 2
        assert f"configuration error: {path}: Exceeds the limit" in capsys.readouterr().err

    def test_zero_tlambda_override_refused(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--tlambda", "0"])
        assert rc == 2
        assert "configuration error: t_lambda" in capsys.readouterr().err

    def test_negative_clink_override_refused(self, tmp_path, capsys):
        cfg = mini_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--clink", "-1"])
        assert rc == 2
        assert "configuration error: controller.link_cost" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_sweep_entry_refused_before_any_result(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["c_link_sweep"] = [0.0, 0.3, -0.3]
        path.write_text(yaml.safe_dump(doc))
        rc = main(["sweep", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error: c_link_sweep" in captured.err
        assert captured.out == ""

    def test_empty_sweep_refused(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["c_link_sweep"] = []
        path.write_text(yaml.safe_dump(doc))
        rc = main(["sweep", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error: c_link_sweep" in captured.err
        assert captured.out == ""

    def test_zero_history_capacity_refused(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["controller"] = {"history_capacity": 0}
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "configuration error: controller: history_capacity" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_measurement_noise_refused(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["controller"] = {"kf_measurement_noise": -1e-4}
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "configuration error: controller: kf_measurement_noise" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_input_weight_refused(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["controller"] = {"input_weight": float("nan")}
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "configuration error: controller: input_weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_mismatch_factor_refused(self, tmp_path, capsys):
        rc = main(["run", "--config", str(mini_config(tmp_path)), "--mismatch", "1.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error: --mismatch 1.5" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--scenario", "scenario1"], ["--out", "elsewhere"],
                                      ["--seed", "1"], ["--clink", "0.3"], ["--tlambda", "2"],
                                      ["--mismatch", "0.2"]], ids=lambda flag: flag[0])
    def test_validate_takes_only_config(self, flag, capsys):
        """validate reads the reach table and tuning alone, so a run flag is
        refused as an unknown argument before any check runs."""
        with pytest.raises(SystemExit) as exc:
            main(["validate"] + flag)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--out", "elsewhere"], ["--seed", "1"], ["--clink", "0.3"],
                                      ["--mismatch", "0.2"]], ids=lambda flag: flag[0])
    def test_sweep_takes_only_scenario_flags(self, flag, capsys):
        """sweep prices each sweep entry at one disturbed state and runs no
        plant, so a run flag is refused as an unknown argument before any
        selection."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep"] + flag)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""

    def test_delay_offset_below_one_step_refused(self, tmp_path, capsys):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["plant"] = {"delay_offsets": [-3] + [0] * 12}
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "configuration error: plant.delay_offsets: reach 1 " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plant", [{}, {"measurement_noise": 0.001}], ids=["noiseless", "noisy"])
    def test_negative_seed_refused(self, tmp_path, capsys, plant):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["plant"] = plant
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", "--config", str(path), "--seed", "-1"])
        assert rc == 2
        assert "configuration error: seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mismatch_flag(self, tmp_path):
        cfg = mini_config(tmp_path, horizon=12)
        rc = main(["run", "--config", str(cfg), "--mismatch", "0.2"])
        assert rc == 0

    def test_builtin_config_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", "--scenario", "scenario1"])
        assert rc == 0


class TestMaterialize:
    """The configuration a command runs: file or case study, then the scenario."""

    @staticmethod
    def materialize(argv):
        return _materialize(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("flags, name, digest", [
        ([], "scenario1", "6bb14feeca60"),
        (["--scenario", "scenario2"], "scenario2", "a4198d0632b7"),
    ])
    def test_case_study(self, flags, name, digest):
        cfg = self.materialize(["run"] + flags)
        assert cfg.scenario.name == name
        assert cfg.config_hash() == digest

    def test_scenario_flag_replaces_the_files_scenario(self, tmp_path):
        cfg = self.materialize(["run", "--config", str(mini_config(tmp_path, seed=3)),
                                "--scenario", "scenario2"])
        assert cfg.scenario.name == "scenario2"
        assert cfg.seed == 3

    def test_file_without_scenario_gets_scenario1(self, tmp_path):
        path = tmp_path / "no_scenario.yaml"
        path.write_text(yaml.safe_dump({"t_lambda": 8}))
        cfg = self.materialize(["run", "--config", str(path)])
        assert cfg.scenario.name == "scenario1"
        assert cfg.t_lambda == 8

    def test_mismatch_replaces_only_surface_factors(self, tmp_path):
        path = mini_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["plant"] = {"process_noise": 0.01, "measurement_noise": 0.002,
                        "delay_offsets": [1] + [0] * 12}
        path.write_text(yaml.safe_dump(doc))
        cfg = self.materialize(["run", "--config", str(path), "--mismatch", "0.2"])
        assert cfg.plant.surface_factors == (1.2, 0.8) * 6 + (1.2,)
        assert cfg.plant.process_noise == 0.01
        assert cfg.plant.measurement_noise == 0.002
        assert cfg.plant.delay_offsets == (1,) + (0,) * 12


NO_SCIPY_SCRIPT = """
import sys
import canalmpc.cli
from canalmpc import io, simulate, validate
from canalmpc.supervisor import SynthesisCache
simulate.run_closed_loop(simulate.scenario_1(horizon=24), seed=0, cache=SynthesisCache())
simulate.run_centralized(simulate.scenario_1(horizon=24), seed=0, cache=SynthesisCache())
assert "numpy.random" not in sys.modules  # noiseless runs draw nothing; validate seeds its own
assert all(ok for _, ok, _ in validate.run_checks(io.RunConfig()))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_on_numpy_alone():
    """The CLI, coalitional and centralized runs and validate load no scipy module,
    and the noiseless runs no numpy.random."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(canalmpc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
