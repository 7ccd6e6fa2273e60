"""Record the reference outputs every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes reference/<workload>.json: the topology bit-string sequence and the
per-step performance cost of one cold-cache run of each workload's
configuration.  Re-record only when a change is meant to alter the
closed-loop behaviour, and say so in the change.
"""

import json
import os
import tempfile

from canalmpc.supervisor import SynthesisCache

from workload import REFERENCE_DIR, WORKLOADS, load_config, run_once


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, spec in WORKLOADS.items():
        cfg = load_config(spec, seed=0)
        with tempfile.TemporaryDirectory() as workdir:
            trace, _, seconds = run_once(spec, cfg, SynthesisCache(), workdir)
        reference = {
            "workload": name,
            "scenario": trace.scenario,
            "topology_bits": trace.topology_bits,
            "perf_cost": [float(c) for c in trace.perf_cost],
        }
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(reference, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {trace.horizon} steps recorded in {seconds:.1f} s")


if __name__ == "__main__":
    main()
