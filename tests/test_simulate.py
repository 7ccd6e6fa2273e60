import numpy as np
import pytest

from canalmpc.canal import DEZ_REACHES, ReachParams, build_chain, assemble_global, steady_state
from canalmpc.control import ControllerConfig
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
        subs = build_chain()
        model = assemble_global(subs)
        offtakes = np.full(13, 2.0)
        _, state = steady_state(subs, offtakes)
        nxt = plant_step(model, state, np.zeros(13), offtakes)
        assert np.allclose(nxt, state, atol=1e-12)

    def test_delayed_pulse_response(self):
        # single-reach model: a unit pulse moves the level d steps later by T/A
        from canalmpc.canal import ReachParams, build_subsystem, build_coalition_model

        sub = build_subsystem(ReachParams(1, 1e5, 2), 300.0, is_last=True)
        model = build_coalition_model([sub], (1,), ((1,),))
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
        subs = build_chain()
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

    def test_input_outside_box_asserts(self):
        subs = build_chain()
        model = assemble_global(subs)
        state = np.zeros(39)
        with pytest.raises(AssertionError):
            plant_step(model, state, np.full(13, 1.5), np.zeros(13), bound=1.0)


class TestClosedLoop:
    def test_zero_disturbance_sheds_links_levels_stay(self):
        sc = Scenario("flat", 72, {i: ((0, 2.0),) for i in range(1, 14)})
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        assert trace.net_links[0] == 11  # first supervisory decision sheds one link
        assert trace.net_links[-1] == 0  # one link shed per supervisory interval
        assert np.max(np.abs(trace.levels)) < 1e-6
        assert np.max(np.abs(trace.inputs)) < 1e-6

    def test_deterministic_bit_identical(self):
        sc = scenario_1(horizon=40)
        t1 = run_closed_loop(sc, seed=3, cache=CACHE)
        t2 = run_closed_loop(sc, seed=3, cache=SynthesisCache())
        assert t1.arrays_equal(t2)

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

    def test_errors_carry_step_index(self):
        # an absurdly tight input box makes the tail constraints infeasible
        sc = scenario_1(horizon=80)
        bad = ControllerConfig(input_bound=1e-6)
        with pytest.raises(RuntimeError, match=r"step \d+"):
            run_closed_loop(sc, ctrl_cfg=bad, seed=0, cache=SynthesisCache())


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


class TestAccumulateCosts:
    def test_network_cost_zero_when_no_links(self):
        sc = Scenario("flat", 60, {i: ((0, 2.0),) for i in range(1, 14)})
        trace = run_closed_loop(sc, seed=0, cache=CACHE)
        report = accumulate_costs(trace, 0.6)
        # links shed to zero over the run; only early steps are priced
        assert report.network_avg == pytest.approx(0.6 * float(np.mean(trace.net_links)))
        assert report.combined_avg_free == report.perf_avg

    def test_centralized_network_price(self):
        sc = scenario_1(horizon=20)
        trace = run_centralized(sc, seed=0, cache=CACHE)
        report = accumulate_costs(trace, 0.6)
        assert report.network_avg == pytest.approx(0.6 * 12)
        assert report.coalitions_avg == 1.0

    def test_report_dict_roundtrip(self):
        sc = scenario_1(horizon=20)
        trace = run_centralized(sc, seed=0, cache=CACHE)
        d = accumulate_costs(trace, 0.6).as_dict()
        assert d["c_link"] == 0.6
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
