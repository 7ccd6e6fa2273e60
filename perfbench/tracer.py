"""Per-layer spans recorded from outside the program.

Every public function of the traced canalmpc modules is wrapped at each
module attribute that refers to it, which is the name its callers look up
(``canalmpc.simulate.select_topology``, ``canalmpc.supervisor.solve_dare``
and so on, because modules import these by name).  A wrapper counts calls
and accumulates inclusive and self time; a few wrappers also inspect
arguments or results to count solver iterations, cache hits and bytes
written.  Nothing in ``src/`` changes, and ``uninstall`` restores every
patched attribute.
"""

import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "canal", "topology", "supervisor", "control", "simulate", "io")
CERTIFICATE = ("numerics.lqr_gain", "numerics.dare_residual", "numerics.lyapunov_residual")


def _canalmpc_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "canalmpc" or name.startswith("canalmpc."))]


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall, report."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)      # inclusive seconds per function
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.decisions_s = []                # per-call seconds of select_topology
        self.counts = Counter()
        self.dare_linear_s = 0.0             # solve_linear seconds inside solve_dare
        self._stack = []                     # [name, child seconds] per open span
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        is_decision = name == "supervisor.select_topology"

        def traced(*args, **kwargs):
            # A solve_linear call inside solve_dare is one Riccati iteration.
            in_dare = name == "numerics.solve_linear" and any(
                frame[0] == "numerics.solve_dare" for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if is_decision:
                    self.decisions_s.append(elapsed)
                if in_dare:
                    self.counts["numerics.solve_dare.iters"] += 1
                    self.dare_linear_s += elapsed
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def _observe_numerics_solve_qp(self, sol, args):
        self.counts["numerics.solve_qp.iters"] += sol.iterations
        self.counts["numerics.solve_qp.not_optimal"] += not sol.optimal

    def _observe_control_feasible_setpoint(self, setpoint, args):
        self.counts["control.feasible_setpoint.infeasible"] += not setpoint.feasible

    def _observe_control_mpc_step(self, step, args):
        self.counts["control.mpc_step.not_optimal"] += step.status != "optimal"

    def _observe_topology_candidate_set(self, candidates, args):
        self.counts["topology.candidates_scored"] += len(candidates)

    def _observe_io_write_trace(self, _, args):
        self.counts["io.bytes_written"] += os.path.getsize(args[1])

    def _observe_io_emit_plot_data(self, written, args):
        self.counts["io.bytes_written"] += sum(os.path.getsize(p) for p in written)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public layer function at every name that refers to it."""
        from canalmpc import supervisor

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"canalmpc.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in _canalmpc_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

        original_gains = supervisor.SynthesisCache.gains
        counts = self.counts

        def gains(cache, members):
            entry = original_gains(cache, members)
            counts["supervisor.cache.misses" if entry is None else "supervisor.cache.hits"] += 1
            return entry

        self._patch(supervisor.SynthesisCache, "gains", gains)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, traced_run_s, untraced_run_s):
        """Per-layer metrics named as in BENCHMARK.json, with their units."""
        calls, total, counts = self.calls, self.total, self.counts
        hits = counts["supervisor.cache.hits"]
        misses = counts["supervisor.cache.misses"]
        decisions_ms = 1e3 * np.array(self.decisions_s)

        def decision_ms(q):
            return float(np.percentile(decisions_ms, q)) if decisions_ms.size else 0.0

        linear_in_dare = counts["numerics.solve_dare.iters"]
        covered = sum(self.self_time.values())
        values = {
            "numerics.solve_dare.calls": (calls["numerics.solve_dare"], "count"),
            "numerics.solve_dare.s": (total["numerics.solve_dare"], "s"),
            "numerics.solve_dare.iters": (linear_in_dare, "count"),
            "numerics.certificate.s": (sum(total[n] for n in CERTIFICATE), "s"),
            "numerics.solve_qp.calls": (calls["numerics.solve_qp"], "count"),
            "numerics.solve_qp.s": (total["numerics.solve_qp"], "s"),
            "numerics.solve_qp.iters": (counts["numerics.solve_qp.iters"], "count"),
            "numerics.solve_qp.not_optimal": (counts["numerics.solve_qp.not_optimal"], "count"),
            "numerics.solve_linear.calls": (calls["numerics.solve_linear"] - linear_in_dare, "count"),
            "numerics.solve_linear.s": (total["numerics.solve_linear"] - self.dare_linear_s, "s"),
            "canal.build_coalition_model.calls": (calls["canal.build_coalition_model"], "count"),
            "canal.build_coalition_model.s": (total["canal.build_coalition_model"], "s"),
            "topology.candidates_scored": (counts["topology.candidates_scored"], "count"),
            "supervisor.select_topology.calls": (calls["supervisor.select_topology"], "count"),
            "supervisor.select_topology.s": (total["supervisor.select_topology"], "s"),
            "supervisor.decision_ms.p50": (decision_ms(50), "ms"),
            "supervisor.decision_ms.p85": (decision_ms(85), "ms"),
            "supervisor.cache.hits": (hits, "count"),
            "supervisor.cache.misses": (misses, "count"),
            "supervisor.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "supervisor.topology_value.calls": (calls["supervisor.topology_value"], "count"),
            "supervisor.topology_value.s": (total["supervisor.topology_value"], "s"),
            "supervisor.candidate_setpoints.s": (total["supervisor.candidate_setpoints"], "s"),
            "control.kf_update.calls": (calls["control.kf_update"], "count"),
            "control.kf_update.s": (total["control.kf_update"], "s"),
            "control.compute_setpoint.s": (total["control.compute_setpoint"], "s"),
            "control.feasible_setpoint.s": (total["control.feasible_setpoint"], "s"),
            "control.feasible_setpoint.infeasible": (counts["control.feasible_setpoint.infeasible"], "count"),
            "control.mpc_step.s": (total["control.mpc_step"], "s"),
            "control.mpc_step.not_optimal": (counts["control.mpc_step.not_optimal"], "count"),
            "control.kf_init.calls": (calls["control.kf_init"], "count"),
            "control.kf_init.s": (total["control.kf_init"], "s"),
            "control.prepare_mpc.calls": (calls["control.prepare_mpc"], "count"),
            "control.prepare_mpc.s": (total["control.prepare_mpc"], "s"),
            "simulate.plant_step.calls": (calls["simulate.plant_step"], "count"),
            "simulate.plant_step.s": (total["simulate.plant_step"], "s"),
            "simulate.harness.self_s": (self.self_time["simulate.run_closed_loop"], "s"),
            "io.write_trace.s": (total["io.write_trace"], "s"),
            "io.emit_plot_data.s": (total["io.emit_plot_data"], "s"),
            "io.read_trace.s": (total["io.read_trace"], "s"),
            "io.bytes_written": (counts["io.bytes_written"], "B"),
            "trace.overhead": (traced_run_s / untraced_run_s, "ratio"),
            "trace.uncovered_share": ((traced_run_s - covered) / traced_run_s, "ratio"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def self_times(self):
        """Self seconds per wrapped function, largest first."""
        return sorted(self.self_time.items(), key=lambda item: -item[1])
