"""Acceptance suite: each criterion asserted at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one PASS/FAIL line per
criterion.  Criteria 3 and the second clause of 5 are known-infeasible
under the pinned case-study constants (see the analysis in the repository
notes); they are asserted as stated and fail honestly with the measured
values attached.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from canalmpc.canal import DEZ_REACHES, assemble_global, build_chain, build_coalition_model
from canalmpc.control import (
    ControllerConfig,
    KalmanState,
    compute_setpoint,
    kalman_model,
    kf_init,
    kf_schedule,
    kf_update,
    weight_matrices,
)
from canalmpc.io import read_trace, write_trace
from canalmpc.numerics import QpStructure, solve_qp
from canalmpc.simulate import (
    PlantConfig,
    accumulate_costs,
    run_centralized,
    run_closed_loop,
    scenario_1,
    scenario_2,
)
from canalmpc.supervisor import (
    SynthesisCache,
    select_topology,
    synthesize,
)
from canalmpc.topology import Topology, full_topology, partition_of

from oracles import brute_force_qp, scipy_lqr_gain, shift_linear_term, union_find_components

CACHE = SynthesisCache()
CHAIN = build_chain(DEZ_REACHES, 300.0)
CFG = ControllerConfig()


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


@pytest.fixture(scope="module")
def runs():
    sc1, sc2 = scenario_1(), scenario_2()
    return {
        "coal1": run_closed_loop(sc1, seed=0, cache=CACHE),
        "cent1": run_centralized(sc1, seed=0, cache=CACHE),
        "coal2": run_closed_loop(sc2, seed=0, cache=CACHE),
        "cent2": run_centralized(sc2, seed=0, cache=CACHE),
        "mis1": run_closed_loop(
            sc1, plant_cfg=PlantConfig.with_mismatch(0.2), seed=0, cache=CACHE
        ),
    }


def test_01_centralized_decision_variables(runs):
    cent = runs["cent1"]
    coal = runs["coal1"]
    exact = bool(np.all(cent.mean_decision_vars == 39.0))
    coal_avg = float(np.mean(coal.mean_decision_vars))
    ok = exact and coal_avg < 39.0
    assert report(
        1, ok,
        f"centralized reports 39 input decision variables every step ({exact}); "
        f"coalitional per-coalition average {coal_avg:.2f} < 39",
    )


def test_02_hard_input_constraint(runs):
    worst = max(
        float(np.max(np.abs(runs[k].inputs))) for k in ("coal1", "coal2", "cent1", "cent2")
    )
    ok = worst <= 1.0 + 1e-9
    assert report(2, ok, f"|dq| <= 1 + 1e-9 across both scenarios; worst {worst:.12f}")


def test_03_offset_free_regulation(runs):
    fin = np.max(np.abs(runs["coal1"].levels[-50:]), axis=0)
    fin_mis = np.max(np.abs(runs["mis1"].levels[-50:]), axis=0)
    ok_nominal = bool(np.all(fin < 0.02))
    ok_mismatch = bool(np.all(fin_mis < 0.05))
    ok = ok_nominal and ok_mismatch
    report(
        3, ok,
        "final-50 |e| < 0.02 m (nominal) and < 0.05 m (mismatch) for all reaches; "
        f"nominal per-reach {np.round(fin, 3).tolist()}; "
        f"mismatch per-reach {np.round(fin_mis, 3).tolist()} "
        "(infeasible under pinned tuning: reach 4 needs ~290 steps to settle, "
        "reach 13 holds a ~0.4 m un-drainable ramp excess; see notes)",
    )
    assert ok, (
        f"nominal max {fin.max():.3f} (bound 0.02), mismatch max {fin_mis.max():.3f} (bound 0.05)"
    )


def test_04_link_activity_pattern(runs):
    links = runs["coal1"].net_links
    before = int(links[62:72].sum())
    after = int(links[72:82].sum())
    post_peak = int(links[72:].max())
    tail = links[-50:]
    burst = after > before
    bounded = int(tail.max()) <= post_peak
    trend = float(np.mean(np.diff(tail))) <= 0.0
    ok = burst and bounded and trend
    assert report(
        4, ok,
        f"links 10-before={before} < 10-after={after}; final-50 max {int(tail.max())} <= "
        f"post-disturbance peak {post_peak}; final-50 mean step change "
        f"{float(np.mean(np.diff(tail))):+.4f} <= 0",
    )


def test_05_cost_ordering(runs):
    r_coal = accumulate_costs(runs["coal1"], 0.6)
    r_cent = accumulate_costs(runs["cent1"], 0.6)
    clause1 = r_cent.perf_avg <= r_coal.perf_avg
    clause2 = r_coal.combined_avg < r_cent.combined_avg
    ok = clause1 and clause2
    report(
        5, ok,
        f"perf: centralized {r_cent.perf_avg:.1f} <= coalitional {r_coal.perf_avg:.1f} "
        f"({clause1}); combined at c=0.6: coalitional {r_coal.combined_avg:.1f} < "
        f"centralized {r_cent.combined_avg:.1f} ({clause2}) "
        "(clause 2 infeasible with per-step link pricing: the network gap is at most "
        "7.2/step while the performance gap is O(400)/step; see notes)",
    )
    assert ok, (
        f"clause1={clause1} clause2={clause2}: coal combined {r_coal.combined_avg:.1f} "
        f"vs cent {r_cent.combined_avg:.1f}"
    )


def test_06_peak_reduction_direction(runs):
    pk_coal = np.max(np.abs(runs["coal1"].levels), axis=0)
    pk_cent = np.max(np.abs(runs["cent1"].levels), axis=0)
    ok = bool(np.all(pk_cent[:12] <= pk_coal[:12] + 1e-12))
    assert report(
        6, ok,
        "centralized peak level errors <= coalitional per reach (excl. 13); "
        f"centralized {np.round(pk_cent[:12], 3).tolist()} vs "
        f"coalitional {np.round(pk_coal[:12], 3).tolist()}",
    )


def test_07_synthesis_certificates():
    rng = np.random.default_rng(7)
    partitions = [tuple((i,) for i in range(1, 14)), (tuple(range(1, 14)),)]
    for _ in range(20):
        cuts = sorted(rng.choice(range(1, 13), size=int(rng.integers(0, 6)), replace=False))
        blocks, start = [], 1
        for c in list(cuts) + [13]:
            if start <= c:
                blocks.append(tuple(range(start, c + 1)))
            start = c + 1
        partitions.append(tuple(blocks))
    worst = 0.0
    for part in partitions:
        for entry in synthesize(part, CHAIN, CFG, CACHE):
            tol = 1e-8 * (1.0 + np.linalg.norm(entry.p_mat, np.inf))
            worst = max(worst, entry.dare_res / tol, entry.lyap_res / tol)
            assert entry.dare_res <= tol and entry.lyap_res <= tol
    glob = assemble_global(CHAIN)
    q_mat, r_mat = weight_matrices(glob, CFG)
    k_ref = scipy_lqr_gain(glob.Xi, glob.Up, q_mat, r_mat)
    (full,) = synthesize((tuple(range(1, 14)),), CHAIN, CFG, CACHE)
    full_gain = full.gain
    gain_err = float(np.max(np.abs(full_gain - k_ref))) / (1.0 + float(np.max(np.abs(k_ref))))
    ok = gain_err <= 1e-8
    assert report(
        7, ok,
        f"{len(partitions)} partitions certified (worst residual at {worst:.1e} of "
        f"tolerance); full-partition gain matches centralized LQR to {gain_err:.1e}",
    )


def test_08_qp_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst_obj = worst_x = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        n_in = int(rng.integers(0, 7))
        m_mat = rng.normal(size=(n, n))
        h = m_mat @ m_mat.T + 0.3 * np.eye(n)
        f = rng.normal(size=n)
        a_in = rng.normal(size=(n_in, n))
        b_in = a_in @ rng.normal(size=n) + rng.uniform(0.05, 1.0, size=n_in)
        # solve_qp takes no linear term: f moves into bin by x = y + x0.
        x0, b_y = shift_linear_term(h, f, Ain=a_in, bin_=b_in)
        sol = solve_qp(QpStructure(h, Ain=a_in), bin=b_y)
        assert sol.optimal
        x = sol.x + x0
        x_ref, obj_ref = brute_force_qp(h, f, Ain=a_in, bin_=b_in)
        worst_obj = max(worst_obj, abs(0.5 * x @ h @ x + f @ x - obj_ref))
        worst_x = max(worst_x, float(np.linalg.norm(x - x_ref, np.inf)))
    ok = worst_obj <= 1e-6 and worst_x <= 1e-5
    assert report(
        8, ok,
        f"100 random QPs vs exhaustive enumeration: worst objective gap {worst_obj:.1e} "
        f"(<=1e-6), worst solution gap {worst_x:.1e} (<=1e-5)",
    )


def test_09_partition_oracle_exhaustive():
    links = list(range(1, 13))
    count = 0
    for bits in itertools.product((0, 1), repeat=12):
        enabled = frozenset(l for l, b in zip(links, bits) if b)
        ours = partition_of(Topology(13, enabled))
        ref = union_find_components(13, [(l, l + 1) for l in enabled])
        assert ours == ref
        count += 1
    assert report(9, count == 4096, f"partition_of matches union-find on all {count} topologies")


def test_10_link_count_monotone_in_cost():
    # mid-range incumbent plus a modest disturbance in the unlinked region,
    # so the sweep can exhibit both enabling and shedding
    offtakes = np.full(13, 2.0)
    model = assemble_global(CHAIN)
    state = compute_setpoint(model, offtakes, np.zeros(0))
    flows = state[model.gate_flow_rows()]
    lv = model.level_rows()
    state[lv[5]] = 0.06
    state[lv[6]] = 0.048
    incumbent = Topology(13, frozenset({1, 2, 3, 10, 11, 12}))
    counts = []
    for c_link in (0.0, 0.15, 0.3, 0.6, 1.2, 2.4):
        result = select_topology(
            state, offtakes, flows, incumbent,
            CACHE, CHAIN, dataclasses.replace(CFG, link_cost=c_link), 4, global_model=model,
        )
        counts.append(result.topology.n_links)
    ok = all(a >= b for a, b in zip(counts, counts[1:]))
    assert report(10, ok, f"selected link counts over the c_link grid: {counts} (non-increasing)")


def test_11_kalman_convergence_and_warm_start():
    coal = build_coalition_model(CHAIN, (12,))
    filt = kalman_model(coal, CFG)
    w_true, p12 = 2.0, 1.5
    q12 = p12 + w_true
    x = np.array([q12, q12, 0.0])
    prior = np.diag([CFG.kf_prior_flow] * 2 + [CFG.kf_prior_level, CFG.kf_prior_omega])
    kf = KalmanState(np.array([q12, q12, 0.0, 0.0]), prior)

    hist = []
    levels = np.zeros(13)
    flows = np.zeros(13)
    inputs = np.zeros(13)
    offs = np.zeros(13)
    flows[10], flows[11], flows[12] = 3.0, q12, w_true
    offs[10], offs[11], offs[12] = 1.0, p12, 0.0
    u = np.zeros(1)
    rho = np.array([p12])
    first_hit = None
    for k in range(50):
        lv = levels.copy(); lv[11] = x[2]
        fl = flows.copy(); fl[11] = x[0]
        hist.append((lv, fl, inputs, offs))
        x = coal.Xi @ x + coal.Phi @ rho + coal.Psi @ np.array([w_true])
        kf = kf_update(filt, kf, u, rho, np.array([x[2], x[0]]))
        if first_hit is None and abs(kf.xhat[3] - w_true) <= 1e-3:
            first_hit = k + 1
    err50 = abs(kf.xhat[3] - w_true)

    # forced topology switch: {12} merges with {11}; warm-start from history
    coal2 = build_coalition_model(CHAIN, (11, 12))
    filt2 = kalman_model(coal2, CFG)
    window = np.array(hist[-CFG.history_capacity:]).transpose(1, 0, 2)  # (4, L, 13)
    kf2 = kf_init(filt2, window, kf_schedule(filt2, window.shape[1]))
    x2 = np.array([3.0, 3.0, 0.0, x[0], x[1], x[2]])
    u2 = np.zeros(2)
    rho2 = np.array([1.0, p12])
    rehit = None
    for k in range(20):
        x2 = coal2.Xi @ x2 + coal2.Phi @ rho2 + coal2.Psi @ np.array([w_true])
        kf2 = kf_update(filt2, kf2, u2, rho2, np.array([x2[2], x2[5], x2[0], x2[3]]))
        if rehit is None and abs(kf2.xhat[6] - w_true) <= 1e-3:
            rehit = k + 1
    ok = err50 <= 1e-3 and rehit is not None
    assert report(
        11, ok,
        f"|omega_hat - w| <= 1e-3 reached at step {first_hit} (err@50 {err50:.1e}); "
        f"after a forced switch the warm-started filter re-converges at step {rehit} (<=20)",
    )


def test_12_determinism_and_round_trip(runs, tmp_path):
    sc = scenario_1(horizon=80)
    t1 = run_closed_loop(sc, seed=5, cache=CACHE)
    t2 = run_closed_loop(sc, seed=5, cache=SynthesisCache())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(t1, p1)
    write_trace(t2, p2)
    identical = p1.read_bytes() == p2.read_bytes()

    full = runs["coal1"]
    p3 = tmp_path / "full.csv"
    write_trace(full, p3)
    back = read_trace(p3)
    lossless = back.arrays_equal(full)
    p4 = tmp_path / "full2.csv"
    write_trace(back, p4)
    byte_stable = p3.read_bytes() == p4.read_bytes()
    ok = identical and lossless and byte_stable
    assert report(
        12, ok,
        f"same-seed trace files identical ({identical}); write/read round-trip lossless "
        f"({lossless}); rewrite byte-stable ({byte_stable})",
    )


# perfbench's three workloads are these runs' configurations at seed 0
BENCHMARK_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("run, workload", [
    ("coal2", "coalitional-cold"), ("mis1", "mismatch-warm"), ("cent1", "centralized"),
])
def test_runs_match_benchmark_reference(runs, run, workload):
    """Behaviour lock: the topology sequence equals the benchmark's reference,
    and every step cost is within its 1e-6 relative plus 1e-12 x peak rule."""
    reference = json.loads((BENCHMARK_REFERENCE / f"{workload}.json").read_text())
    trace = runs[run]
    assert trace.topology_bits == reference["topology_bits"]
    ref_cost = np.array(reference["perf_cost"])
    tol = 1e-6 * np.abs(ref_cost) + 1e-12 * np.max(np.abs(ref_cost))
    assert trace.perf_cost.shape == ref_cost.shape
    assert np.count_nonzero(np.abs(trace.perf_cost - ref_cost) > tol) == 0
