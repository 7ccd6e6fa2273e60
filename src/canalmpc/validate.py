"""Invariant suite behind the `validate` CLI command.

Each check is a named predicate over a run configuration; `run_checks`
executes all of them and reports (name, passed, detail) triples.  Every
check reads the configuration's reach table or controller tuning and needs
no closed-loop run; invariants that hold by construction, whatever the
configuration, are left to the tests.
"""

import numpy as np

from .canal import assemble_global, build_chain, build_coalition_model
from .control import compute_setpoint
from .supervisor import CERT_RTOL, SynthesisCache, synthesize
from .topology import Topology, partition_of


def _check_block_assembly(cfg):
    subs = build_chain(cfg.reaches, cfg.controller.sample_time)
    global_model = assemble_global(subs)
    rng = np.random.default_rng(0)
    n = len(subs)
    for _ in range(5):
        blocks = partition_of(Topology(n, {l for l in range(1, n) if rng.random() < 0.5}))
        coals = [build_coalition_model(subs, b) for b in blocks]
        unrouted = [s for c in coals for s in c.coupling_sources if s not in global_model.offsets]
        if unrouted:
            return False, f"channels to gates {unrouted} outside the chain"
        rows = np.cumsum([0] + [c.n for c in coals])
        cols = np.cumsum([0] + [c.m for c in coals])
        xi = np.zeros((global_model.n, global_model.n))
        up = np.zeros((global_model.n, global_model.m))
        for i, ci in enumerate(coals):
            xi[rows[i]:rows[i + 1], rows[i]:rows[i + 1]] = ci.Xi
            up[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = ci.Up
            for j, cj in enumerate(coals):
                if i != j:
                    xi_ij, up_ij = ci.coupling_matrices(cj)
                    xi[rows[i]:rows[i + 1], rows[j]:rows[j + 1]] += xi_ij
                    up[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] += up_ij
        if not (np.allclose(xi, global_model.Xi, atol=1e-13)
                and np.allclose(up, global_model.Up, atol=1e-13)):
            return False, f"assembly mismatch for {blocks}"
    return True, "5 random partitions"


def _check_steady_state(cfg):
    subs = build_chain(cfg.reaches, cfg.controller.sample_time)
    model = assemble_global(subs)
    offtakes = np.full(len(subs), 2.0)
    state = compute_setpoint(model, offtakes, np.zeros(0))
    nxt = model.Xi @ state + model.Phi @ offtakes
    if not np.allclose(nxt, state, atol=1e-10):
        return False, f"zero-level steady state moves by {np.max(np.abs(nxt - state)):.1e} in one step"
    return True, "zero-level steady state is a fixed point"


def _check_synthesis_certificates(cfg):
    subs = build_chain(cfg.reaches, cfg.controller.sample_time)
    cache = SynthesisCache()
    n = len(subs)
    cut = min(3, n - 1)  # head block of up to three reaches, tail nonempty
    partitions = [tuple((i,) for i in range(1, n + 1)), (tuple(range(1, n + 1)),)]
    if cut:
        partitions.append((tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1))))
    worst = 0.0  # synthesize raises SynthesisError for a residual past tolerance
    for part in partitions:
        for entry in synthesize(part, subs, cfg.controller, cache):
            tol = CERT_RTOL * (1.0 + np.linalg.norm(entry.p_mat, np.inf))
            worst = max(worst, entry.dare_res / tol, entry.lyap_res / tol)
    return True, f"worst residual at {worst:.1e} of tolerance"


def _check_setpoint_telescoping(cfg):
    subs = build_chain(cfg.reaches, cfg.controller.sample_time)
    model = assemble_global(subs)
    rng = np.random.default_rng(1)
    n = len(subs)
    for _ in range(5):
        rho = rng.uniform(0.5, 4.0, size=n)
        star = compute_setpoint(model, rho, np.zeros(0))
        flows = star[model.gate_flow_rows()]
        for members in partition_of(Topology(n, {l for l in range(1, n) if rng.random() < 0.5})):
            coal = build_coalition_model(subs, members)
            omega = flows[[s - 1 for s in coal.coupling_sources]]
            xi_bar = compute_setpoint(coal, rho[[s - 1 for s in members]], omega)
            off = model.offsets[members[0]]  # partition blocks are contiguous runs
            if not np.allclose(xi_bar, star[off:off + coal.n], rtol=1e-12, atol=0.0):
                return False, f"coalition {members} leaves the chain's steady state"
    return True, "coalition steady states match the chain's on 5 random partitions"


CHECKS = [
    ("coalition-block-assembly", _check_block_assembly),
    ("global-steady-state", _check_steady_state),
    ("synthesis-certificates", _check_synthesis_certificates),
    ("setpoint-telescoping", _check_setpoint_telescoping),
]


def run_checks(cfg):
    """Run every invariant check; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(cfg)
        except Exception as exc:  # a crash is a failure with the reason attached
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
