"""The six gate runs: save their traces, or compare this checkout's with saved ones.

    python3 tests/gate_runs.py save OUT.npz
    python3 tests/gate_runs.py compare REF.npz

The runs are scenario1, scenario2, scenario1 with +0.2 and -0.2 surface
mismatch, centralized scenario1, and scenario2 with process and measurement
noise 0.01 (seed 3), each on a fresh SynthesisCache.  The script runs the
canalmpc of the checkout it sits in, so a parent's reference is saved by
that checkout's copy of it.  `compare` prints, per run, whether the topology
sequence is identical, SimTrace.arrays_equal, the largest |du| and the
largest relative per-step cost difference over the steps that cost more
than 1e-6 of the run's largest step cost; it exits 1 when any topology
sequence differs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from canalmpc.simulate import (PlantConfig, SimTrace, run_centralized,  # noqa: E402
                               run_closed_loop, scenario_1, scenario_2)
from canalmpc.supervisor import SynthesisCache  # noqa: E402

ARRAYS = ("levels", "flows", "inputs", "offtakes", "perf_cost", "net_links", "n_coalitions",
          "mean_decision_vars")


def gate_runs():
    """{name: trace} of the six gate runs."""
    noisy = PlantConfig(process_noise=0.01, measurement_noise=0.01)
    return {
        "scenario1": run_closed_loop(scenario_1(), cache=SynthesisCache()),
        "scenario2": run_closed_loop(scenario_2(), cache=SynthesisCache()),
        "mismatch+0.2": run_closed_loop(scenario_1(), plant_cfg=PlantConfig.with_mismatch(0.2),
                                        cache=SynthesisCache()),
        "mismatch-0.2": run_closed_loop(scenario_1(), plant_cfg=PlantConfig.with_mismatch(-0.2),
                                        cache=SynthesisCache()),
        "centralized": run_centralized(scenario_1(), cache=SynthesisCache()),
        "scenario2-noise": run_closed_loop(scenario_2(), plant_cfg=noisy, seed=3,
                                           cache=SynthesisCache()),
    }


def save(path):
    np.savez(path, **{f"{name}/{field}": np.asarray(getattr(trace, field))
                      for name, trace in gate_runs().items()
                      for field in ("scenario", "topology_bits", *ARRAYS)})


def load(path, name):
    with np.load(path) as saved:
        fields = {field: saved[f"{name}/{field}"] for field in ("topology_bits", *ARRAYS)}
        scenario = str(saved[f"{name}/scenario"])
    fields["topology_bits"] = fields["topology_bits"].tolist()
    return SimTrace(scenario, rows=None, **fields)


def compare(path):
    """Print one line per run against the saved traces; 1 if a topology differs, else 0."""
    differs = False
    for name, trace in gate_runs().items():
        ref = load(path, name)
        same_topology = trace.topology_bits == ref.topology_bits
        differs |= not same_topology
        du = np.max(np.abs(trace.inputs - ref.inputs))
        costly = ref.perf_cost > 1e-6 * np.max(ref.perf_cost)
        dcost = np.max(np.abs(trace.perf_cost - ref.perf_cost)[costly] / ref.perf_cost[costly],
                       initial=0.0)
        print(f"{name:16s} topology {'identical' if same_topology else 'DIFFERS'}  "
              f"arrays_equal {trace.arrays_equal(ref)}  max|du| {du:.3g}  "
              f"max rel dcost {dcost:.3g}")
    return int(differs)


if __name__ == "__main__":
    command, path = sys.argv[1:3] if len(sys.argv) == 3 else (None, None)
    if command == "save":
        save(path)
    elif command == "compare":
        sys.exit(compare(path))
    else:
        sys.exit(__doc__)
