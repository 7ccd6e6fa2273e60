"""Command-line surface: run, baseline, compare, sweep, validate."""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .canal import assemble_global, build_chain
from .control import compute_setpoint
from .io import (
    ConfigError,
    RunConfig,
    check_run_config,
    emit_plot_data,
    load_config,
    scenario_by_name,
    write_trace,
)
from .simulate import PlantConfig, accumulate_costs, run_closed_loop
from .supervisor import SynthesisCache, select_topology
from .topology import Topology
from .validate import run_checks


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="canalmpc",
        description="Coalitional MPC for canal level control with topology switching",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "YAML run configuration (default: the case study)"

    def scenario_flags(p):
        p.add_argument("--config", help=config_help)
        p.add_argument("--scenario", default=None, help="built-in scenario name (scenario1/scenario2)")
        p.add_argument("--tlambda", type=int, default=None, help="supervisory interval override")

    def common(p):
        scenario_flags(p)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--clink", type=float, default=None, help="link cost override")
        p.add_argument("--mismatch", type=float, default=None,
                       help="plant mismatch factor (alternating +/- on surfaces only)")

    p_run = sub.add_parser("run", help="closed-loop coalitional run")
    common(p_run)
    p_run.set_defaults(func=cmd_run, centralized=False)

    p_base = sub.add_parser("baseline", help="centralized baseline run")
    common(p_base)
    p_base.set_defaults(func=cmd_run, centralized=True)

    p_cmp = sub.add_parser("compare", help="coalitional and centralized runs plus cost report")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="link-cost sweep: selected link counts at a disturbed state")
    scenario_flags(p_swp)
    # sweep runs no plant and prices each sweep entry: the run flags are refused
    p_swp.set_defaults(func=cmd_sweep, out=None, seed=None, clink=None, mismatch=None)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--config", help=config_help)
    p_val.set_defaults(func=cmd_validate)

    return parser


def _materialize(args):
    """The checked configuration a command runs; scenario1 when neither
    --scenario nor the file names a scenario."""
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.scenario or cfg.scenario is None:
        cfg.scenario = scenario_by_name(args.scenario or "scenario1")
    if args.out is not None:
        cfg.output_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.clink is not None:
        cfg.controller.link_cost = args.clink
    if args.tlambda is not None:
        cfg.t_lambda = args.tlambda
    if args.mismatch is not None:
        try:
            factors = PlantConfig.with_mismatch(args.mismatch, len(cfg.reaches)).surface_factors
            cfg.plant = dataclasses.replace(cfg.plant, surface_factors=factors)
        except ValueError as exc:
            raise ConfigError(f"--mismatch {args.mismatch}: {exc}") from None
    return check_run_config(cfg)


def _run_one(cfg, centralized, cache):
    trace = run_closed_loop(cfg.scenario, cfg.controller, cfg.plant, seed=cfg.seed,
                            t_lambda=cfg.t_lambda, supervision=not centralized,
                            cache=cache, reaches=cfg.reaches)
    trace.config_hash = cfg.config_hash()
    return trace


def _emit(cfg, trace, tag):
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, f"trace_{tag}.csv")
    write_trace(trace, path)
    plot_dir = os.path.join(cfg.output_dir, f"plots_{tag}")
    emit_plot_data(trace, plot_dir, c_link=cfg.controller.link_cost)
    return path


def _print_report(tag, report):
    print(f"[{tag}] perf_avg={report.perf_avg:.3f} links_avg={report.links_avg:.3f} "
          f"network_avg={report.network_avg:.3f} combined_avg={report.combined_avg:.3f} "
          f"decision_vars_avg={report.decision_vars_avg:.2f} coalitions_avg={report.coalitions_avg:.2f}")


def cmd_run(args):
    cfg = _materialize(args)
    cache = SynthesisCache()
    trace = _run_one(cfg, args.centralized, cache)
    tag = "centralized" if args.centralized else "coalitional"
    path = _emit(cfg, trace, tag)
    report = accumulate_costs(trace, cfg.controller.link_cost)
    _print_report(tag, report)
    print(f"trace written to {path}")
    return 0


def cmd_compare(args):
    cfg = _materialize(args)
    cache = SynthesisCache()
    coal = _run_one(cfg, False, cache)
    cent = _run_one(cfg, True, cache)
    _emit(cfg, coal, "coalitional")
    _emit(cfg, cent, "centralized")
    c = cfg.controller.link_cost
    for c_price in (0.0, c):
        r_coal = accumulate_costs(coal, c_price)
        r_cent = accumulate_costs(cent, c_price)
        print(f"c_link={c_price}:")
        _print_report("coalitional", r_coal)
        _print_report("centralized", r_cent)
    return 0


def cmd_sweep(args):
    """Selected link count at a disturbed state for each c_link in the sweep list, ascending."""
    cfg = _materialize(args)
    subs = build_chain(cfg.reaches, cfg.controller.sample_time)
    rho = cfg.scenario.offtakes_at(0)
    model = assemble_global(subs)
    state = compute_setpoint(model, rho, np.zeros(0))
    flows = state[model.gate_flow_rows()]
    # mid-range incumbent, modest disturbance in its unlinked region
    lv = model.level_rows()
    n = len(subs)
    mid = n // 2
    state[lv[mid - 1]] = 0.06
    state[lv[mid]] = 0.048
    cache = SynthesisCache()
    third = max(1, (n - 1) // 4)
    ends = frozenset(range(1, third + 1)) | frozenset(range(n - third, n))
    incumbent = Topology(n, ends & frozenset(range(1, n)))  # links 1..n-1 only
    counts = []
    for c_link in sorted(cfg.c_link_sweep):
        priced = dataclasses.replace(cfg.controller, link_cost=c_link)
        result = select_topology(state, rho, flows, incumbent, cache, subs,
                                 priced, cfg.t_lambda, model)
        counts.append(result.topology.n_links)
        print(f"c_link={c_link:g}: selected {result.topology.bits()} ({result.topology.n_links} links)")
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    print(f"link count non-increasing in c_link: {'yes' if monotone else 'NO'}")
    return 0 if monotone else 1


def cmd_validate(args):
    """The invariant suite on --config's reach table and tuning, or the case study's."""
    results = run_checks(load_config(args.config) if args.config else RunConfig())
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
