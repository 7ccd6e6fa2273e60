"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The counter test makes two traced runs of every workload and takes about
two minutes.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from canalmpc import simulate, supervisor  # noqa: E402
from canalmpc.supervisor import SynthesisCache  # noqa: E402

import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

# Exact counts per traced run: (solve_dare calls, cache misses,
# candidates scored, select_topology calls).
EXPECTED = {
    "coalitional-cold": (91, 91, 936, 72),
    "mismatch-warm": (0, 0, 936, 72),
    "centralized": (1, 1, 0, 0),
}
DETERMINISTIC = (
    "numerics.solve_dare.calls", "numerics.solve_dare.iters",
    "numerics.solve_qp.calls", "numerics.solve_qp.iters", "numerics.solve_qp.not_optimal",
    "numerics.solve_linear.calls", "canal.build_coalition_model.calls",
    "topology.candidates_scored", "supervisor.select_topology.calls",
    "supervisor.cache.hits", "supervisor.cache.misses",
    "supervisor.topology_value.calls", "control.kf_update.calls",
    "control.feasible_setpoint.infeasible", "control.mpc_step.not_optimal",
    "control.kf_init.calls", "control.prepare_mpc.calls",
    "simulate.plant_step.calls", "io.bytes_written",
)


def traced_counters(name, spec, cfg, cache, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        trace, back, seconds = workload.run_once(spec, cfg, cache, workdir)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(seconds, seconds)
    bound = cfg.controller.input_bound
    assert workload.check(trace, back, workload.load_reference(name), bound) == []
    return trace, {key: metrics[key]["value"] for key in DETERMINISTIC}


@pytest.fixture(scope="module")
def centralized_trace(tmp_path_factory):
    spec = workload.WORKLOADS["centralized"]
    cfg = workload.load_config(spec, seed=0)
    trace, back, _ = workload.run_once(spec, cfg, SynthesisCache(),
                                       tmp_path_factory.mktemp("run"))
    return trace, back


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_counters_repeat_exactly(name, tmp_path):
    spec = workload.WORKLOADS[name]
    cfg = workload.load_config(spec, seed=3)
    shared = SynthesisCache()
    if spec.warm_cache:
        cold_trace, _, _ = workload.run_once(spec, cfg, shared, tmp_path)
    runs = []
    for _ in range(2):
        cache = shared if spec.warm_cache else SynthesisCache()
        runs.append(traced_counters(name, spec, cfg, cache, tmp_path))
    (first_trace, first), (second_trace, second) = runs
    assert first == second
    assert first_trace.arrays_equal(second_trace)
    if spec.warm_cache:
        assert first_trace.arrays_equal(cold_trace)
    dare, misses, scored, decisions = EXPECTED[name]
    assert first["numerics.solve_dare.calls"] == dare
    assert first["supervisor.cache.misses"] == misses
    assert first["topology.candidates_scored"] == scored
    assert first["supervisor.select_topology.calls"] == decisions


def test_rescaling_removes_a_uniform_slowdown():
    # Four stretches of a run (start, two steps, end) on a host at half the
    # reference speed: probes and stretches both take twice as long.
    clock = workload.StepClock()
    probe_s, stamp = 2 * workload.PROBE_REFERENCE_S, 0.0
    for stretch in (0.010, 0.004, 0.006, 0.020, None):
        clock.before.append(stamp)
        stamp += probe_s
        clock.after.append(stamp)
        stamp += 2 * (stretch or 0.0)
    run_s, steps_s, measured_s = clock.rescaled()
    assert run_s == pytest.approx(0.040)
    assert steps_s == pytest.approx([0.004, 0.006])
    assert measured_s == pytest.approx(0.080)


def test_quantile_is_a_harrell_davis_estimate():
    assert workload.quantile(np.arange(101.0), 0.5) == pytest.approx(50.0)
    assert workload.quantile(np.full(288, 7.0), 0.95) == pytest.approx(7.0)
    values = np.random.default_rng(0).lognormal(size=288)
    assert np.percentile(values, 90) < workload.quantile(values, 0.95) < np.percentile(values, 99)


def test_uninstall_restores_every_name():
    before = (simulate.select_topology, supervisor.solve_dare, simulate.plant_step,
              supervisor.SynthesisCache.gains)
    tracer = Tracer()
    tracer.install()
    assert simulate.select_topology is not before[0]
    assert supervisor.solve_dare is not before[1]
    tracer.uninstall()
    after = (simulate.select_topology, supervisor.solve_dare, simulate.plant_step,
             supervisor.SynthesisCache.gains)
    assert all(a is b for a, b in zip(before, after))


def test_check_accepts_the_reference_run(centralized_trace):
    trace, back = centralized_trace
    assert workload.check(trace, back, workload.load_reference("centralized"), 1.0) == []


@pytest.mark.parametrize("defect", ["topology", "cost", "input", "round-trip"])
def test_check_flags_each_defect(centralized_trace, defect):
    trace, back = centralized_trace
    reference = workload.load_reference("centralized")
    if defect == "topology":
        reference["topology_bits"][100] = "0" * 12
    elif defect == "cost":
        reference["perf_cost"][150] *= 1 + 2e-6
    elif defect == "input":
        inputs = trace.inputs.copy()
        inputs[10, 3] = 1.0 + 1e-6
        trace = dataclasses.replace(trace, inputs=inputs)
        back = dataclasses.replace(back, inputs=inputs)
    else:
        back = dataclasses.replace(back, levels=back.levels.copy())
        back.levels[5, 0] = np.nextafter(back.levels[5, 0], np.inf)
    assert len(workload.check(trace, back, reference, 1.0)) == 1


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "centralized", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
