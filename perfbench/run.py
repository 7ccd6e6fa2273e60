"""canalmpc benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and uses the ``src/`` tree found there.
Every workload process is fresh and single-threaded: BLAS/OpenMP pools are
pinned to 1 here, not in the repository.  With ``--trace 0`` the launcher
starts SETUP_PROCESSES set-up-only processes and one measuring process and
prints the end-to-end metrics; with ``--trace 1`` it starts one process that
makes an untraced and a traced run and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every run's outputs passed their check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up-only processes per measuring run; with the measuring process's own
# set-up this gives five set-up samples, of which setup_s is the median.
SETUP_PROCESSES = 4
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A workload process failed or the checkout cannot be benchmarked."""


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # identical import cost on every run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode, deadline):
    """Run perfbench/workload.py once; return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the workload process started")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{mode} process printed no report:\n{proc.stderr[-2000:]}") from None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = [run_child(args, "setup", deadline) for _ in range(SETUP_PROCESSES)]
    report = run_child(args, "measure", deadline)
    if "run_s" not in report:
        raise BenchError(f"no run succeeded: {report['failures']}")
    setups.append(report)
    fill_s = report.get("fill_s", 0.0)
    runs = report["run_s"]
    metrics = {
        "run_s": metric(statistics.median(runs), "s"),
        "step_ms.p50": metric(report["step_ms_p50"], "ms"),
        "step_ms.p95": metric(report["step_ms_p95"], "ms"),
        "setup_s": metric(statistics.median(s["setup_base_s"] for s in setups) + fill_s, "s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
    }
    q1, q3 = quartiles(runs)
    print(f"workload {args.workload}: {len(runs)} untraced runs in {args.seconds:g} s; "
          f"times rescaled to a {report['probe_reference_ms']:g} ms speed probe, which took "
          f"{report['probe_ms']:.3f} ms (median) during the runs")
    print(f"  run_s        {metrics['run_s']['value']:.3f} s  (median; q1 {q1:.3f}, "
          f"q3 {q3:.3f}; n={len(runs)}; as measured "
          f"{statistics.median(report['run_wall_s']):.3f} s)")
    for name in ("step_ms.p50", "step_ms.p95"):
        print(f"  {name:<12} {metrics[name]['value']:.3f} ms  "
              f"(pooled over n={report['step_samples']} steps)")
    fill = f" + cache fill {fill_s:.3f} s" if fill_s else ""
    wall = statistics.median(s["setup_wall_s"] for s in setups) + report.get("fill_wall_s", 0.0)
    print(f"  setup_s      {metrics['setup_s']['value']:.3f} s  "
          f"(median of {len(setups)} fresh-process set-ups{fill}; as measured {wall:.3f} s)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    return report, metrics


def per_layer(args, deadline):
    report = run_child(args, "trace", deadline)
    if "per_layer" not in report:
        raise BenchError(f"no traced run succeeded: {report['failures']}")
    print(f"workload {args.workload}: one untraced and one traced run")
    print("  largest self times: " + ", ".join(
        f"{name} {seconds:.3f} s" for name, seconds in report["self_times"]))
    return report, report["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description="canalmpc benchmark")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "canalmpc", "__init__.py")):
        print(f"error: no canalmpc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        report, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    print(f"  error_rate   {failed / attempted:g}  ({failed} of {attempted} runs failed)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    environment = dict(report["environment"], git_sha=git_sha(), nproc=len(os.sched_getaffinity(0)),
                       threads=PINNED_THREADS, seed=args.seed, python=platform.python_version())
    print("environment: " + json.dumps(environment, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
