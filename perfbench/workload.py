"""One benchmark workload in one fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --mode MODE

MODE is one of
  setup    set up once and report setup_s only;
  measure  set up, then repeat untraced runs until S seconds have passed,
           with times rescaled by the speed probe (see StepClock);
  trace    set up, make one untraced and one traced run, report per-layer
           metrics.

A run is what ``canalmpc run``/``canalmpc baseline`` do: one closed loop
over the scenario horizon, then ``write_trace`` + ``emit_plot_data`` and a
``read_trace`` back.  Every run's outputs are checked against the stored
reference of its workload.  The last line of standard output is one JSON
object.  ``run.py`` launches this script with PYTHONPATH pointing at the
checkout's ``src`` and with BLAS thread pools pinned to 1.
"""

from time import perf_counter

PROCESS_START = perf_counter()  # before numpy and canalmpc are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import zip_longest  # noqa: E402

import numpy as np  # noqa: E402

from canalmpc import canal, io, simulate  # noqa: E402
from canalmpc.supervisor import SynthesisCache  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")

# Per-step cost tolerance: 1e-6 relative is the gate for solver changes.
# The absolute floor (1e-12 of the trace's peak cost) only matters on the
# settled steps, whose costs are ~1e-30 and carry no relative precision.
COST_RTOL = 1e-6
COST_ATOL_SHARE = 1e-12


@dataclass(frozen=True)
class Workload:
    scenario: str
    centralized: bool = False
    mismatch: float = 0.0
    warm_cache: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "coalitional-cold": Workload("scenario2"),
    "mismatch-warm": Workload("scenario1", mismatch=0.2, warm_cache=True),
    "centralized": Workload("scenario1", centralized=True),
}


def load_config(spec, seed):
    """The run configuration as ``canalmpc run`` materialises it."""
    cfg = io.builtin_config(spec.scenario)
    cfg.seed = seed
    if spec.mismatch:
        cfg.plant = simulate.PlantConfig.with_mismatch(spec.mismatch, len(cfg.reaches))
    return cfg


def run_once(spec, cfg, cache, workdir):
    """One closed loop plus trace write and read-back; returns (trace, back, seconds)."""
    start = perf_counter()
    kwargs = dict(scenario=cfg.scenario, ctrl_cfg=cfg.controller, plant_cfg=cfg.plant,
                  seed=cfg.seed, cache=cache, reaches=cfg.reaches)
    if spec.centralized:
        trace = simulate.run_centralized(**kwargs)
    else:
        trace = simulate.run_closed_loop(t_lambda=cfg.t_lambda, **kwargs)
    trace.config_hash = cfg.config_hash()
    path = os.path.join(workdir, "trace.csv")
    io.write_trace(trace, path)
    io.emit_plot_data(trace, os.path.join(workdir, "plots"), c_link=cfg.controller.link_cost)
    back = io.read_trace(path)
    return trace, back, perf_counter() - start


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def check(trace, back, reference, input_bound):
    """Failures of one run's outputs against the reference; empty when correct."""
    failures = []
    if trace.topology_bits != reference["topology_bits"]:
        first = next(k for k, (a, b) in enumerate(
            zip_longest(trace.topology_bits, reference["topology_bits"])) if a != b)
        failures.append(f"topology sequence differs from step {first} on")
    ref_cost = np.array(reference["perf_cost"])
    if ref_cost.shape != trace.perf_cost.shape:
        failures.append("perf_cost length differs from the reference")
    else:
        atol = COST_ATOL_SHARE * np.max(np.abs(ref_cost))
        bad = np.abs(trace.perf_cost - ref_cost) > COST_RTOL * np.abs(ref_cost) + atol
        if np.any(bad):
            failures.append(f"perf_cost outside 1e-6 relative at {int(np.sum(bad))} steps")
    if np.max(np.abs(trace.inputs)) > input_bound + 1e-9:
        failures.append("|dq| <= input bound breached")
    if not trace.arrays_equal(back):
        failures.append("trace does not survive write_trace -> read_trace")
    return failures


# On a shared 2-vCPU virtual machine the speed swings by up to 2x in phases
# of seconds to minutes, unevenly between the vCPUs.  A fixed probe (small dense solves plus an
# interpreter loop, the mix a control step is made of) runs on the same CPU
# at every step; reported times are rescaled to the speed at which the probe
# takes PROBE_REFERENCE_S.  Across runs the probe's time tracks the run's own
# (correlation 0.98 on `centralized`), so the rescaled figures measure the
# program's work rather than the host's phase.
PROBE_REFERENCE_S = 3.0e-4
PROBE_WINDOW = 2  # probes each side of a step whose median gives its speed
_PROBE_A = 30.0 * np.eye(30) + np.add.outer(np.arange(30.0), np.arange(30.0)) / 900.0
_PROBE_B = np.ones(30)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all n order statistics: with
    a few hundred steps of uneven cost, one or two order statistics jump with
    every reordering.  The weights are integrated by the midpoint rule.
    """
    x = np.sort(values)
    n, points = len(x), 16
    t = (np.arange(n * points) + 0.5) / (n * points)
    log_pdf = (n + 1) * (q * np.log(t) + (1 - q) * np.log1p(-t)) - np.log(t) - np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, points).sum(axis=1)
    return float(weights @ x / weights.sum())


def probe():
    """Run the fixed speed probe once; return its seconds."""
    start = perf_counter()
    for _ in range(10):
        np.linalg.solve(_PROBE_A, _PROBE_B)
    total = 0
    for i in range(2000):
        total += i * i
    return perf_counter() - start


class StepClock:
    """Speed probes at the start and end of a run and at every plant_step.

    The hook on simulate.plant_step makes two clock reads and one probe.
    The step latency is the time between consecutive plant_step calls,
    i.e. from one step's gate command to the next one's, less the probe.
    """

    def __init__(self):
        self.before, self.after = [], []
        self._original = simulate.plant_step

    def mark(self):
        self.before.append(perf_counter())
        probe()
        self.after.append(perf_counter())

    def __enter__(self):
        original, mark = self._original, self.mark

        def plant_step(*args, **kwargs):
            mark()
            return original(*args, **kwargs)

        simulate.plant_step = plant_step
        mark()
        return self

    def __exit__(self, *exc):
        self.mark()
        simulate.plant_step = self._original

    def probe_times(self):
        return np.array(self.after) - np.array(self.before)

    def rescaled(self):
        """(run seconds, step seconds, run seconds as measured), probes left out.

        Each stretch between two probes is rescaled by the median probe time
        around it.
        """
        probes = self.probe_times()
        stretches = np.array(self.before[1:]) - np.array(self.after[:-1])
        local = np.array([np.median(probes[max(0, k - PROBE_WINDOW + 1):k + PROBE_WINDOW + 1])
                          for k in range(len(stretches))])
        scaled = stretches * (PROBE_REFERENCE_S / local)
        return float(scaled.sum()), scaled[1:-1], float(stretches.sum())


def environment():
    import scipy

    def blas(config):
        return config["Build Dependencies"]["blas"].get("version", "unknown")

    return {
        "numpy": np.__version__, "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(simulate.__file__).startswith(src + os.sep):
        raise SystemExit(f"canalmpc was imported from {simulate.__file__}, not from {src}")

    spec = WORKLOADS[args.workload]
    cfg = load_config(spec, args.seed)
    subsystems = canal.build_chain(cfg.reaches, cfg.controller.sample_time)
    canal.assemble_global(subsystems)
    setup_wall_s = perf_counter() - PROCESS_START
    result = {"setup_wall_s": setup_wall_s,
              "setup_base_s": setup_wall_s * PROBE_REFERENCE_S
              / float(np.median([probe() for _ in range(50)]))}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    reference = load_reference(args.workload)
    bound = cfg.controller.input_bound
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    attempted = failed = 0
    failures = []

    def attempt(cache, same_as=None, what="", clock=None):
        """One checked run: (trace, seconds), or (None, None) when it raised."""
        nonlocal attempted, failed
        attempted += 1
        try:
            with clock or nullcontext():
                trace, back, seconds = run_once(spec, cfg, cache, workdir)
        except Exception as exc:  # a raising run is a failed run, not a crash
            problems = [f"run raised {exc!r}"]
            trace = seconds = None
        else:
            problems = check(trace, back, reference, bound)
            if same_as is not None and not trace.arrays_equal(same_as):
                problems.append(f"trace differs from the {what} trace")
        if problems:
            failed += 1
            failures.extend(problems)
        return trace, seconds

    try:
        cold_trace = shared_cache = None
        if spec.warm_cache:
            # The cache fill is a cold-cache run of the same configuration;
            # its trace is what every warm run must reproduce exactly.
            shared_cache = SynthesisCache()
            clock = StepClock()
            cold_trace, _ = attempt(shared_cache, clock=clock)
            if cold_trace is not None:
                result["fill_s"], _, result["fill_wall_s"] = clock.rescaled()

        def cache():
            return shared_cache if spec.warm_cache else SynthesisCache()

        if args.mode == "measure":
            run_s, run_wall_s, steps_s, probes = [], [], [], []
            loop_start = perf_counter()
            while perf_counter() - loop_start < args.seconds or not attempted:
                clock = StepClock()
                trace, _ = attempt(cache(), cold_trace, "cold-cache", clock)
                if trace is not None:
                    scaled_run, scaled_steps, measured = clock.rescaled()
                    run_s.append(scaled_run)
                    run_wall_s.append(measured)
                    steps_s.extend(scaled_steps)
                    probes.extend(clock.probe_times())
            if run_s:
                steps_ms = 1e3 * np.array(steps_s)
                result.update(run_s=run_s, run_wall_s=run_wall_s,
                              step_ms_p50=quantile(steps_ms, 0.50),
                              step_ms_p95=quantile(steps_ms, 0.95),
                              step_samples=len(steps_ms),
                              probe_ms=1e3 * float(np.median(probes)),
                              probe_reference_ms=1e3 * PROBE_REFERENCE_S)
        else:
            from tracer import Tracer

            untraced, untraced_s = attempt(cache(), cold_trace, "cold-cache")
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_s = attempt(cache(), untraced, "untraced")
            finally:
                tracer.uninstall()
            if untraced_s and traced_s:
                result.update(per_layer=tracer.layer_metrics(traced_s, untraced_s),
                              self_times=tracer.self_times()[:8])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(attempted=attempted, failed=failed, failures=failures[:10],
                  peak_rss_mb=peak_rss_mb(), environment=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
