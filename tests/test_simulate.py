import dataclasses
import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from canalmpc import canal, control, numerics, simulate, supervisor
from canalmpc.canal import (
    DEZ_REACHES,
    CoalitionModel,
    ReachParams,
    assemble_global,
    build_chain,
)
from canalmpc.control import ControllerConfig, PartitionController, compute_setpoint
from canalmpc.simulate import (
    PlantConfig,
    Scenario,
    accumulate_costs,
    plant_step,
    run_centralized,
    run_closed_loop,
    scenario_1,
    scenario_2,
)
from canalmpc.supervisor import SynthesisCache
from canalmpc.topology import Topology, partition_of

CACHE = SynthesisCache()  # shared across tests; selections are cache-transparent


class TestScenario:
    def test_scenario1_schedule(self):
        sc = scenario_1()
        assert sc.horizon == 288
        rho0 = sc.offtakes_at(0)
        assert rho0[3] == 12.5 and rho0[8] == 10.0 and rho0[9] == 6.25 and rho0[12] == 10.0
        assert rho0[0] == 2.0
        rho = sc.offtakes_at(72)
        assert rho[3] == 2.5 and rho[8] == 5.0 and rho[9] == 1.25 and rho[12] == 0.0
        assert np.array_equal(sc.offtakes_at(71), rho0)
        # head inflow fraction of capacity
        assert rho0.sum() / 157.0 == pytest.approx(0.3615, abs=1e-3)

    def test_scenario2_restores(self):
        sc = scenario_2()
        assert np.array_equal(sc.offtakes_at(200), sc.offtakes_at(0))
        assert np.array_equal(sc.offtakes_at(143), sc.offtakes_at(72))

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            Scenario("bad", 10, {1: ((5, 1.0),)})
        with pytest.raises(ValueError):
            Scenario("bad", 10, {1: ((0, 1.0), (0, 2.0))})
        with pytest.raises(ValueError):
            Scenario("bad", 10, {1: ((0, -1.0),)})

    @pytest.mark.parametrize("reaches, bad", [((0, 1), 0), ((1, 3), 3)])
    def test_rejects_reach_keys_other_than_one_to_n(self, reaches, bad):
        """Reach 0 would land on the last reach, reach 3 of two would index past it."""
        with pytest.raises(ValueError, match=f"reach {bad}: "):
            Scenario("x", 10, {r: ((0, 1.0),) for r in reaches})


class TestPlantConfig:
    def test_mismatch_pattern(self):
        cfg = PlantConfig.with_mismatch(0.2)
        assert cfg.surface_factors[0] == pytest.approx(1.2)
        assert cfg.surface_factors[1] == pytest.approx(0.8)
        reaches = cfg.perturbed_reaches()
        assert reaches[0].backwater_area == pytest.approx(0.9318e5 * 1.2)

    def test_rejects_nonpositive_surface(self):
        with pytest.raises(ValueError):
            PlantConfig(surface_factors=tuple([0.0] + [1.0] * 12))

    def test_defaults_follow_reach_table(self):
        reaches = DEZ_REACHES + tuple(ReachParams(i, 0.5e5, 2) for i in (14, 15, 16))
        sc = Scenario("s16", 3, {i: ((0, 2.0),) for i in range(1, 17)})
        trace = run_centralized(sc, reaches=reaches)
        assert trace.levels.shape == (3, 16)
        assert np.all(np.isfinite(trace.levels))

    def test_rejects_list_not_matching_reach_table(self):
        sc = Scenario("s5", 3, {i: ((0, 2.0),) for i in range(1, 6)})
        with pytest.raises(ValueError, match="5 reaches"):
            run_centralized(sc, plant_cfg=PlantConfig.with_mismatch(0.2),
                            reaches=DEZ_REACHES[:5])


class TestPlantStep:
    def test_steady_state_fixed(self):
        subs = build_chain(DEZ_REACHES, 300.0)
        model = assemble_global(subs)
        offtakes = np.full(13, 2.0)
        state = compute_setpoint(model, offtakes, np.zeros(0))
        nxt = plant_step(model, state, np.zeros(13), offtakes)
        assert np.allclose(nxt, state, atol=1e-12)

    def test_delayed_pulse_response(self):
        # single-reach model: a unit pulse moves the level d steps later by T/A
        from canalmpc.canal import ReachParams, build_subsystem, build_coalition_model

        sub = build_subsystem(ReachParams(1, 1e5, 2), 300.0)
        model = build_coalition_model([sub], (1,))
        state = np.zeros(3)
        levels = []
        for k in range(4):
            u = np.array([1.0]) if k == 0 else np.zeros(1)
            state = plant_step(model, state, u, np.zeros(1))
            levels.append(state[2])
        # pulse applied at k=0 -> flow q(k)=1 from k=0 -> enters level after d=2
        assert levels[0] == 0.0 and levels[1] == 0.0
        assert levels[2] == pytest.approx(300.0 / 1e5)

    def test_mass_balance_identity(self):
        """sum_i A_i de_i = T(sum_i q_i(k-d_i) - sum_{i>=2} q_i(k) - sum p_i) to 1e-9."""
        subs = build_chain(DEZ_REACHES, 300.0)
        model = assemble_global(subs)
        rng = np.random.default_rng(5)
        state = rng.uniform(0.0, 5.0, size=39)
        areas = np.array([r.backwater_area for r in DEZ_REACHES])
        t_c = 300.0
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, size=13)
            p = rng.uniform(0.0, 3.0, size=13)
            nxt = plant_step(model, state, u, p)
            lv = model.level_rows()
            de = nxt[lv] - state[lv]
            # delayed inflows q_i(k - d_i) are the last flow slots
            q_delayed = np.array(
                [state[model.offsets[s + 1] + subs[s].delay - 1] for s in range(13)]
            )
            q_now = np.array([state[model.offsets[s + 1]] + u[s] for s in range(13)])
            rhs = t_c * (np.sum(q_delayed) - np.sum(q_now[1:]) - np.sum(p))
            assert abs(np.sum(areas * de) - rhs) <= 1e-9 * max(1.0, abs(rhs))
            state = nxt


@pytest.fixture(scope="module", params=[0.0, 0.6])
def scenario1_links(request):
    """net_links of scenario1's first 120 steps at link price 0 and 0.6."""
    cfg = ControllerConfig(link_cost=request.param)
    return run_closed_loop(scenario_1(horizon=120), cfg, seed=0, cache=CACHE).net_links


class TestClosedLoop:
    def test_zero_disturbance_sheds_links_levels_stay(self):
        sc = Scenario("flat", 72, {i: ((0, 2.0),) for i in range(1, 14)})
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        assert trace.net_links[0] == 11  # first supervisory decision sheds one link
        assert trace.net_links[-1] == 0  # one link shed per supervisory interval
        assert np.max(np.abs(trace.levels)) < 1e-6
        assert np.max(np.abs(trace.inputs)) < 1e-6

    def test_settled_chain_sheds_one_link_per_decision(self, scenario1_links):
        """A characterization, not a bound: on settled scenario1 the supervisor sheds
        one link per decision, 11 at decision 0 down to none at step 44, and holds the
        empty topology to step 71, at link price 0 (where a settled decision's
        candidates tie) as at 0.6.  The candidate set allows no faster fall."""
        assert scenario1_links[0:45:4].tolist() == list(range(11, -1, -1))
        assert not np.any(scenario1_links[44:72])

    def test_offtake_step_regains_one_link_per_decision(self, scenario1_links):
        """A characterization, not a bound: after the offtake step at k = 72 the
        supervisor regains one link per decision, 1 at step 72 up to all 12 at step
        116, at link price 0 as at 0.6.  The candidate set, the incumbent and its
        one-link toggles, allows no faster climb."""
        assert scenario1_links[72:117:4].tolist() == list(range(1, 13))

    def test_deterministic_bit_identical(self):
        sc = scenario_1(horizon=40)
        t1 = run_closed_loop(sc, seed=3, cache=CACHE)
        t2 = run_closed_loop(sc, seed=3, cache=SynthesisCache())
        assert t1.arrays_equal(t2)

    @pytest.mark.parametrize("run", [run_closed_loop, run_centralized])
    def test_mpc_start_lives_with_its_controller(self, run, monkeypatch):
        """MPC solves start from the previous step's working set, but each
        controller's first solve starts cold, and a run on a cache another
        run filled equals that run: the set is never shared."""
        starts = {}  # per QP structure, kept alive so no two share an id
        real = control.solve_qp

        def recording(structure, *args, start=(), **kwargs):
            starts.setdefault(structure, []).append(start)
            return real(structure, *args, start=start, **kwargs)

        monkeypatch.setattr(control, "solve_qp", recording)
        # MPC rows, those of the soft flow floor, first bind after the k = 72 drop.
        cache = SynthesisCache()
        first = run(scenario_1(horizon=120), seed=0, cache=cache)
        assert run(scenario_1(horizon=120), seed=0, cache=cache).arrays_equal(first)
        assert any(any(seen) for seen in starts.values())
        assert all(seen[0] == () for seen in starts.values())

    def test_hard_constraint_all_steps(self):
        sc = scenario_1(horizon=120)
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        assert np.max(np.abs(trace.inputs)) <= 1.0 + 1e-9

    def test_burst_after_disturbance(self):
        sc = scenario_1(horizon=100)
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        before = trace.net_links[62:72].sum()
        after = trace.net_links[72:82].sum()
        assert after > before

    def test_warm_starts_replay_at_most_history_capacity_samples(self, monkeypatch):
        lengths = []
        real = PartitionController.rebuild

        def recording(part, records, window):
            lengths.append(window.shape[1])
            return real(part, records, window)

        monkeypatch.setattr(PartitionController, "rebuild", recording)
        cfg = ControllerConfig(history_capacity=3)
        run_closed_loop(scenario_1(horizon=24), cfg, seed=0, cache=SynthesisCache())
        # Step 0 warm-starts on the initial sample; later ones see the last three.
        assert lengths[0] == 1 and lengths[-1] == 3 and max(lengths) == 3

    def test_warm_start_windows_are_rows_of_the_returned_trace(self, monkeypatch):
        """Every window a rebuild warm-starts new filters on equals the returned trace's
        rows for the same steps, behind the at-rest row when it reaches back before step 0."""
        windows, steps = [], [0]
        real_rebuild, real_step = PartitionController.rebuild, simulate.plant_step

        def recording(part, records, window):
            windows.append((steps[0], np.array(window)))
            return real_rebuild(part, records, window)

        def counting(*args):
            steps[0] += 1
            return real_step(*args)

        monkeypatch.setattr(PartitionController, "rebuild", recording)
        monkeypatch.setattr(simulate, "plant_step", counting)
        cfg = ControllerConfig()
        trace = run_closed_loop(scenario_1(), cfg, seed=0, cache=CACHE)
        persisted = np.array([trace.levels, trace.flows, trace.inputs, trace.offtakes])
        at_rest = persisted[:, :1].copy()
        at_rest[2] = 0.0
        record = np.concatenate([at_rest, persisted], axis=1)
        capacity = cfg.history_capacity
        assert {k + 1 < capacity for k, _ in windows} == {True, False}
        for k, window in windows:
            assert np.array_equal(window, record[:, max(0, k + 1 - capacity):k + 1]), k

    def test_kept_coalitions_carry_their_filter_blocks_across_a_decision(self, monkeypatch):
        """A rebuild keeps each coalition the new partition keeps: its filter, programs
        and MPC start, and its blocks of the last estimate and covariance, bit for bit.
        A new coalition's blocks are its filter's kf_init on the window; blocks between
        coalitions are 0."""
        real = PartitionController.rebuild

        def held(part):
            return {prog.coalition.members: (filt, sp, prog, start, block)
                    for filt, sp, prog, start, block in zip(
                        part.filters, part.setpoint_programs, part.programs, part.mpc_starts,
                        part.blocks)}

        def checked(part, records, window):
            old, last = held(part), getattr(part, "est", None)
            real(part, records, window)
            for members, (filt, sp, prog, start, block) in held(part).items():
                rest = np.ones(len(part.est.xhat), dtype=bool)
                rest[block] = False
                assert np.all(part.est.cov[block][:, rest] == 0.0)
                if members not in old:
                    counts["new"] += bool(old)  # built in place of a replaced coalition
                    ref = control.kf_init(filt, window, control.kf_schedule(filt, window.shape[1]))
                    assert np.array_equal(part.est.xhat[block], ref.xhat)
                    assert np.array_equal(part.est.cov[block, block], ref.cov)
                    continue
                counts["kept"] += 1
                counts["kept starts"] += bool(start)
                *was, was_start, was_block = old[members]
                assert all(a is b for a, b in zip((filt, sp, prog), was)) and start == was_start
                assert np.array_equal(part.est.xhat[block], last.xhat[was_block])
                assert np.array_equal(part.est.cov[block, block], last.cov[was_block, was_block])

        counts = Counter()
        monkeypatch.setattr(PartitionController, "rebuild", checked)
        # MPC rows bind from step 100 on, so some kept coalitions carry a nonempty start.
        run_closed_loop(scenario_1(horizon=120), seed=0, cache=CACHE)
        assert counts["kept"] > 0 and counts["new"] > 0 and counts["kept starts"] > 0

    def test_traces_compare_by_arrays_equal_not_eq(self):
        """== on traces is identity, so it never asks numpy for an array's truth value."""
        a, b = (simulate.SimTrace.empty("s", 3, 2, 0, "") for _ in range(2))
        assert a == a and a != b
        assert a.arrays_equal(b)

    @pytest.mark.parametrize("t_lambda", [0, -1])
    def test_t_lambda_below_one_refused(self, t_lambda):
        with pytest.raises(ValueError, match="t_lambda must be at least 1"):
            run_closed_loop(scenario_1(horizon=8), t_lambda=t_lambda, cache=CACHE)

    @pytest.mark.parametrize("reaches", [DEZ_REACHES[:5],
                                         DEZ_REACHES + (ReachParams(14, 0.5e5, 2),)])
    def test_scenario_for_another_reach_table_refused(self, reaches):
        """A scenario schedules reaches 1..N of the table it runs on, or the run refuses
        it before it builds anything."""
        with pytest.raises(ValueError, match=f"scenario scenario1 schedules 13 reaches, "
                                             f"not the {len(reaches)} of the reach table"):
            run_closed_loop(scenario_1(horizon=8), reaches=reaches, cache=SynthesisCache())

    def test_warm_cache_computes_no_gain_schedule(self, monkeypatch):
        schedules = []
        real = supervisor.kf_schedule

        def counting(filt, length):
            schedules.append(length)
            return real(filt, length)

        monkeypatch.setattr(supervisor, "kf_schedule", counting)
        cache = SynthesisCache()
        cold = run_closed_loop(scenario_1(), seed=0, cache=cache)
        assert schedules
        schedules.clear()
        warm = run_closed_loop(scenario_1(), seed=0, cache=cache)
        assert schedules == []
        assert warm.arrays_equal(cold)

    def test_input_outside_box_refused_before_the_plant(self, monkeypatch):
        """The run loop, not the plant, checks the hard input box, and names the step."""
        bound = ControllerConfig().input_bound
        real = PartitionController.step

        def outside(part, xhat, rho):
            u, outflow = real(part, xhat, rho)
            return np.full(u.shape, 1.5 * bound), outflow

        monkeypatch.setattr(PartitionController, "step", outside)
        stepped = []
        monkeypatch.setattr(simulate, "plant_step", lambda *args: stepped.append(args))
        with pytest.raises(RuntimeError, match="hard input constraint violated at step 0"):
            run_closed_loop(scenario_1(horizon=4), seed=0, cache=CACHE)
        assert not stepped

    def test_errors_carry_step_index(self):
        # an absurdly tight input box makes the tail constraints infeasible
        sc = scenario_1(horizon=80)
        bad = ControllerConfig(input_bound=1e-6)
        with pytest.raises(RuntimeError, match=r"step 72: MPC infeasible for coalition \(3, 4\)"):
            run_closed_loop(sc, ctrl_cfg=bad, seed=0, cache=SynthesisCache())

    def test_indefinite_hessian_fails_at_first_solve_with_its_step(self, monkeypatch):
        """QP data is built on a coalition's first solve (step 72 here), so a Hessian
        without a Cholesky factor fails there, named by step and coalition."""
        real = control.weight_matrices
        monkeypatch.setattr(control, "weight_matrices",
                            lambda coal, cfg: (real(coal, cfg)[0], -1e6 * np.eye(coal.m)))
        with pytest.raises(RuntimeError, match=r"controller failure at step 72: H must be "
                                               r"positive definite for coalition \(13,\)"):
            run_closed_loop(scenario_1(horizon=80), seed=0, cache=CACHE)


class TestPublishedOutflow:
    def test_decisions_read_the_outflow_published_the_step_before(self, monkeypatch):
        """The decision at step 0 reads the measured gate flows; every later one
        reads the outflow, each gate's xi_s[gate row] + u_s, that the previous
        step's partition controller published."""
        seen, latest = [], np.full(13, np.nan)
        real_select, real_step = simulate.select_topology, PartitionController.step

        def select(state, rho, outflow, *args):
            seen.append((np.array(outflow), latest.copy()))
            return real_select(state, rho, outflow, *args)

        def step(part, xhat, rho):
            u, outflow = real_step(part, xhat, rho)
            latest[:] = outflow
            return u, outflow

        monkeypatch.setattr(simulate, "select_topology", select)
        monkeypatch.setattr(PartitionController, "step", step)
        trace = run_closed_loop(scenario_1(), seed=0, cache=CACHE)
        assert len(seen) == 72
        (first, _), *later = seen
        assert np.array_equal(first, trace.flows[0])
        for outflow, published in later:
            assert np.array_equal(outflow, published)


def _new_coalitions(trace):
    """(rebuilds, coalitions built): the partitions a run's topology bits change to,
    and the coalitions each has that the one before it has not."""
    partitions = [partition_of(Topology(len(bits) + 1, {i + 1 for i, b in enumerate(bits)
                                                         if b == "1"}))
                  for bits in trace.topology_bits]
    changes = [(before, after) for before, after in zip([()] + partitions, partitions)
               if after != before]
    return len(changes), sum(len(set(after) - set(before)) for before, after in changes)


class TestBuiltOnce:
    def test_setup_work_scales_with_controllers_not_steps(self, monkeypatch):
        """Filter matrices and prediction maps are built once per coalition a rebuild
        adds, a partition's stacking once per rebuild, and a QP's data on its
        coalition's first solve of it; a step only solves against them."""
        calls = Counter()

        def count(owner, name, key=None):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(CoalitionModel, "flow_selector")
        count(CoalitionModel, "gate_flow_selector")
        count(control, "weight_matrices")
        count(supervisor, "weight_matrices")
        count(np.linalg, "cholesky")
        count(PartitionController, "rebuild", "partitions")
        count(SynthesisCache, "store", "coalitions")
        count(control, "prepare_mpc")
        solve_qp = numerics.solve_qp

        def solve_counting_iterations(*args, start=(), **kwargs):
            sol = solve_qp(*args, start=start, **kwargs)
            calls["iterations"] += sol.iterations
            calls["start_rows"] += len(start)
            return sol

        monkeypatch.setattr(control, "solve_qp", solve_counting_iterations)
        count(control, "solve_qp", "solves")
        count(control, "QpStructure", "structures")
        count(numerics, "_qr_append")
        programs = []  # every program a solve reads, kept alive so their ids stay distinct
        for name in ("feasible_setpoint", "mpc_step"):
            def solving(prog, *args, solve=getattr(control, name), **kwargs):
                programs.append(prog)
                return solve(prog, *args, **kwargs)

            monkeypatch.setattr(control, name, solving)

        def solved_programs():
            return len({id(prog) for prog in programs})

        trace = run_closed_loop(scenario_1(horizon=24), seed=0, cache=SynthesisCache())
        rebuilds, controllers = _new_coalitions(trace)
        coalitions = calls["coalitions"]
        # A per-step rebuild would add at least one call per coalition-step.
        assert int(trace.n_coalitions.sum()) > coalitions + 2 * controllers
        assert calls["flow_selector"] <= controllers
        assert calls["gate_flow_selector"] <= controllers
        assert calls["cholesky"] <= calls["structures"] <= solved_programs()
        assert calls["weight_matrices"] <= coalitions + 2 * controllers
        assert calls["prepare_mpc"] == controllers  # a kept coalition is not built again
        assert 0 < calls["partitions"] == rebuilds <= controllers  # stacked once per rebuild
        # At most one structure per QP family of each controller that solves one,
        # on a run whose coalitions solve both QPs from step 72 on.
        calls.clear()
        programs.clear()
        run_closed_loop(scenario_2(), seed=0, cache=SynthesisCache())
        assert 0 < calls["cholesky"] <= calls["structures"] <= solved_programs() < calls["solves"]
        # Both QPs step on their structure's Cholesky factor, factored once
        # per structure.  The start rows take one QR before the first
        # iteration, and at most one entering row L^-1 a_i per iteration is
        # appended to the QR.  No row enters the working set before step 72
        # of scenario1, and no MPC row, so no start row, before step 100, so
        # the bound is checked on a run past both.
        calls.clear()
        run_centralized(scenario_1(horizon=120), seed=0, cache=SynthesisCache())
        assert calls["cholesky"] <= calls["structures"] == 2
        assert calls["solves"] > 0 and calls["start_rows"] > 0
        assert 0 < calls["_qr_append"] <= calls["iterations"]

    def test_settled_run_solves_no_qp(self, monkeypatch):
        """Before k = 72 scenario1 is settled: every coalition's setpoint and MPC rows
        hold at the QP's zero start, so a 60-step run makes no solve_qp call (1,032
        when every coalition-step solved both QPs)."""
        solves, structures = [], []
        for name, calls in [("solve_qp", solves), ("QpStructure", structures)]:
            def counting(*args, real=getattr(control, name), calls=calls, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(control, name, counting)
        trace = run_closed_loop(scenario_1(horizon=60), seed=0, cache=SynthesisCache())
        assert int(trace.n_coalitions.sum()) > 0
        assert solves == [] and structures == []  # no QP data built either

    def test_replaced_controllers_released_before_successors_are_built(self, monkeypatch):
        """A rebuild holds no replaced coalition's programs while it builds the new
        ones, so the MPC programs alive at any prepare_mpc call cover at most the
        chain's states."""
        alive, covered = weakref.WeakSet(), []
        build = control.prepare_mpc

        def tracked(*args):
            gc.collect()
            covered.append(sum(prog.coalition.n for prog in alive))
            prog = build(*args)
            alive.add(prog)
            return prog

        monkeypatch.setattr(control, "prepare_mpc", tracked)
        run_closed_loop(scenario_1(horizon=24), seed=0, cache=SynthesisCache())
        assert len(covered) > 1  # some rebuild came after the first build
        assert max(covered) <= 39


class TestCentralized:
    def test_decision_vars_and_coalitions(self):
        sc = scenario_1(horizon=30)
        trace = run_centralized(sc, seed=0, cache=CACHE)
        assert np.all(trace.mean_decision_vars == 39.0)
        assert np.all(trace.n_coalitions == 1)
        assert all(bits == "1" * 12 for bits in trace.topology_bits)

    def test_coalitional_reports_fewer_decision_vars(self):
        sc = scenario_1(horizon=60)
        coal = run_closed_loop(sc, seed=0, cache=CACHE)
        assert float(np.mean(coal.mean_decision_vars)) < 39.0


class TestStepCost:
    def test_perf_cost_is_the_supervisor_stage_term_under_a_tight_box(self, monkeypatch):
        """perf_cost[k] is level_weight |e|^2 + input_weight |u|^2 against the
        zero-error reference, also where a setpoint moves off it: with a 0.3
        box, setpoints from k = 72 on shift u_s or member levels away from 0."""
        cfg = ControllerConfig(input_bound=0.3)
        shifted = []
        real = control.feasible_setpoint

        def spy(prog, xi_bar, bin_):
            sp = real(prog, xi_bar, bin_)
            shifted.append(np.any(sp.u_s) or np.any(sp.xi_s[prog.coalition.level_rows()]))
            return sp

        monkeypatch.setattr(control, "feasible_setpoint", spy)
        trace = run_closed_loop(scenario_1(horizon=100), ctrl_cfg=cfg, seed=0, cache=CACHE)
        assert any(shifted)
        for k in range(trace.horizon):
            e, u = trace.levels[k], trace.inputs[k]
            expected = cfg.level_weight * float(e @ e) + cfg.input_weight * float(u @ u)
            assert trace.perf_cost[k] == pytest.approx(expected, rel=1e-12, abs=0.0), k
        assert np.all(trace.perf_cost[72:] > 0.0)


class TestAccumulateCosts:
    def test_network_cost_zero_when_no_links(self):
        sc = Scenario("flat", 60, {i: ((0, 2.0),) for i in range(1, 14)})
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        report = accumulate_costs(trace, 0.6)
        # links shed to zero over the run; only early steps are priced
        assert report.network_avg == pytest.approx(0.6 * float(np.mean(trace.net_links)))

    def test_centralized_network_price(self):
        sc = scenario_1(horizon=20)
        trace = run_centralized(sc, seed=0, cache=CACHE)
        report = accumulate_costs(trace, 0.6)
        assert report.network_avg == pytest.approx(0.6 * 12)
        assert report.coalitions_avg == 1.0

    def test_report_dict_roundtrip(self):
        sc = scenario_1(horizon=20)
        trace = run_centralized(sc, seed=0, cache=CACHE)
        d = dataclasses.asdict(accumulate_costs(trace, 0.6))
        assert d["network_avg"] == pytest.approx(0.6 * d["links_avg"])
        assert d["combined_avg"] == pytest.approx(d["perf_avg"] + d["network_avg"])


class TestMismatch:
    def test_perturbed_plant_still_regulated(self):
        sc = Scenario("flat", 90, {i: ((0, 2.0),) for i in range(1, 14)})
        trace = run_closed_loop(
            sc, plant_cfg=PlantConfig.with_mismatch(0.2), seed=0, cache=CACHE
        )
        # mismatch on A_s only re-scales level responses; steady start stays steady
        assert np.max(np.abs(trace.levels[-10:])) < 0.05
        assert np.max(np.abs(trace.inputs)) <= 1.0 + 1e-9


class TestNoise:
    def test_noise_seeded_and_deterministic(self):
        sc = Scenario("flat", 40, {i: ((0, 2.0),) for i in range(1, 14)})
        noisy = PlantConfig(process_noise=1e-3, measurement_noise=1e-3)
        t1 = run_closed_loop(sc, plant_cfg=noisy, seed=11, cache=CACHE)
        t2 = run_closed_loop(sc, plant_cfg=noisy, seed=11, cache=CACHE)
        t3 = run_closed_loop(sc, plant_cfg=noisy, seed=12, cache=CACHE)
        assert t1.arrays_equal(t2)
        assert not t1.arrays_equal(t3)
        clean = run_closed_loop(sc, seed=11, cache=CACHE)
        assert not t1.arrays_equal(clean)
        assert np.max(np.abs(t1.inputs)) <= 1.0 + 1e-9
