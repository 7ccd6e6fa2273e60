import numpy as np
import pytest

from canalmpc.canal import (
    DEZ_REACHES,
    ReachParams,
    assemble_global,
    build_chain,
    build_coalition_model,
    build_subsystem,
)
from canalmpc.control import compute_setpoint

from oracles import step_reaches

T_C = 300.0


@pytest.fixture(scope="module")
def chain():
    return build_chain(DEZ_REACHES, T_C)


class TestReachParams:
    def test_table_shape(self):
        assert len(DEZ_REACHES) == 13
        assert [r.delay_steps for r in DEZ_REACHES] == [3, 1, 2, 2, 2, 3, 2, 1, 2, 2, 2, 2, 2]

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            ReachParams(1, 1e5, 0)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            ReachParams(1, 0.0, 2)


def _pair(delay=3):
    """A two-reach chain; reach 1 has the given delay and a downstream gate."""
    return build_chain((ReachParams(1, 2e5, delay), ReachParams(2, 1e5, 1)), T_C)


class TestBuildSubsystem:
    def test_reach2_dimensions(self):
        sub = build_subsystem(DEZ_REACHES[1], T_C)
        assert sub.n == 2
        assert sub.delay == 1

    def test_reach1_gain(self):
        sub = build_subsystem(DEZ_REACHES[0], T_C)
        assert sub.gain == pytest.approx(300.0 / 93180.0, rel=1e-12)
        assert sub.gain == pytest.approx(3.2196e-3, rel=1e-4)

    def test_delay_line_structure(self):
        pair = _pair()
        coal = build_coalition_model(pair, (1,))
        a, gain = coal.Xi, pair[0].gain
        # slot 0 integrates the input, slots 1..d-1 shift, level integrates slot d-1
        assert a[0, 0] == 1.0 and coal.Up[0, 0] == 1.0
        assert a[1, 0] == 1.0 and a[2, 1] == 1.0
        assert a[3, 2] == pytest.approx(gain)
        assert a[3, 3] == 1.0
        assert np.count_nonzero(a) == 5
        assert np.count_nonzero(coal.Up) == 1

    def test_offtake_and_external_channels_match(self):
        coal = build_coalition_model(build_chain(DEZ_REACHES, T_C), (5,))
        gain = T_C / DEZ_REACHES[4].backwater_area
        assert np.array_equal(coal.Phi, coal.Psi)
        assert coal.Phi[coal.level_rows()[0], 0] == pytest.approx(-gain)
        assert np.count_nonzero(coal.Phi) == 1

    def test_last_reach_has_no_downstream_coupling(self, chain):
        coal = build_coalition_model(chain, (13,))
        assert coal.Psi.shape == (3, 0) and coal.coupling_sources == ()
        assert np.count_nonzero(coal.Up) == 1
        global_model = assemble_global(chain)
        last_level = global_model.level_rows()[-1]
        assert np.flatnonzero(global_model.Xi[last_level]).tolist() == [last_level - 1, last_level]
        assert np.count_nonzero(global_model.Up[last_level]) == 0

    def test_level_constant_when_flows_balance(self):
        # One step with inflow equal to outflow (offtake + external) keeps e fixed.
        coal = build_coalition_model(_pair(delay=2), (1,))
        q = 4.0
        x = np.array([q, q, 0.7])
        p = np.array([1.5])
        w = np.array([q - 1.5])  # downstream gate takes the rest
        x_next = coal.Xi @ x + coal.Up @ np.zeros(1) + coal.Phi @ p + coal.Psi @ w
        assert x_next[2] == pytest.approx(0.7)

    def test_zero_state_zero_everything_fixed_point(self):
        coal = build_coalition_model(_pair(delay=2), (1,))
        x = np.zeros(3)
        x_next = coal.Xi @ x + coal.Up @ np.zeros(1) + coal.Phi @ np.zeros(1) + coal.Psi @ np.zeros(1)
        assert np.array_equal(x_next, x)


class TestCoalitionModel:
    def test_singleton_reach4(self, chain):
        coal = build_coalition_model(chain, (4,))
        sub = chain[3]
        global_model = assemble_global(chain)
        rows = slice(global_model.offsets[4], global_model.offsets[4] + sub.n)
        assert np.array_equal(coal.Xi, global_model.Xi[rows, rows])
        assert coal.Psi.shape == (3, 1)
        assert coal.Psi[sub.delay, 0] == pytest.approx(-sub.gain)
        assert coal.coupling_sources == (5,)

    def test_full_coalition_dimensions(self, chain):
        coal = assemble_global(chain)
        assert coal.n == 39
        assert coal.m == 13
        assert coal.Psi.shape == (39, 0)
        assert coal.coupling_sources == ()

    def test_first_four_one_channel(self, chain):
        coal = build_coalition_model(chain, (1, 2, 3, 4))
        assert coal.n_channels == 1
        assert coal.coupling_sources == (5,)

    @pytest.mark.parametrize("n_reaches", [1, 2, 3, len(DEZ_REACHES)])
    def test_gamma_selects_levels(self, n_reaches):
        coal = assemble_global(build_chain(DEZ_REACHES[:n_reaches], T_C))
        assert np.allclose(coal.gamma @ coal.gamma.T, np.eye(n_reaches))
        rows = coal.level_rows()
        state = np.zeros(coal.n)
        state[rows] = np.arange(1.0, n_reaches + 1)
        assert np.allclose(coal.gamma @ state, np.arange(1.0, n_reaches + 1))

    def test_noncontiguous_members(self, chain):
        coal = build_coalition_model(chain, (1, 3))
        # both 1 and 3 couple to external downstream gates 2 and 4
        assert coal.coupling_sources == (2, 4)
        assert coal.n == chain[0].n + chain[2].n

    def test_steady_state_is_fixed_point(self, chain):
        offtakes = np.full(13, 2.0)
        coal = assemble_global(chain)
        state = compute_setpoint(coal, offtakes, np.zeros(0))
        flows = state[coal.gate_flow_rows()]
        nxt = coal.Xi @ state + coal.Up @ np.zeros(13) + coal.Phi @ offtakes
        assert np.allclose(nxt, state, atol=1e-12)
        assert flows[0] == pytest.approx(26.0)
        assert flows[-1] == pytest.approx(2.0)


def _probed_matrices(reaches, members, sources):
    """Xi, Up, Phi and Psi of `members`, read column by column off the reach-by-reach stepper."""
    n = sum(reaches[s - 1].delay_steps + 1 for s in members)
    m = len(members)

    def step(x=np.zeros(n), u=np.zeros(m), p=np.zeros(m), w=np.zeros(len(sources))):
        return step_reaches(reaches, T_C, members, x, u, p, dict(zip(sources, w)))

    xi = np.column_stack([step(x=unit) for unit in np.eye(n)])
    up = np.column_stack([step(u=unit) for unit in np.eye(m)])
    phi = np.column_stack([step(p=unit) for unit in np.eye(m)])
    psi = np.column_stack([step(w=unit) for unit in np.eye(len(sources))] or [np.zeros((n, 0))])
    return xi, up, phi, psi


def _assert_matches_stepper(reaches, members):
    last = len(reaches)
    sources = tuple(s + 1 for s in members if s < last and s + 1 not in members)
    coal = build_coalition_model(build_chain(reaches, T_C), members)
    assert coal.coupling_sources == sources
    for built, probed in zip((coal.Xi, coal.Up, coal.Phi, coal.Psi),
                             _probed_matrices(reaches, members, sources)):
        assert built.shape == probed.shape
        np.testing.assert_allclose(built, probed, rtol=1e-13, atol=0.0)


class TestModelAgainstReachStepper:
    """The stacked matrices reproduce each reach's own difference equations."""

    def test_global_model(self):
        _assert_matches_stepper(DEZ_REACHES, tuple(range(1, 14)))

    def test_every_contiguous_coalition(self):
        count = 0
        for first in range(1, 14):
            for last in range(first, 14):
                _assert_matches_stepper(DEZ_REACHES, tuple(range(first, last + 1)))
                count += 1
        assert count == 91

    @pytest.mark.parametrize("members", [(1, 3), (2, 5, 9), (1, 13), (2, 4, 6, 8)])
    def test_noncontiguous_coalition(self, members):
        _assert_matches_stepper(DEZ_REACHES, members)

    def test_other_reach_table(self):
        table = tuple(ReachParams(i, area, d) for i, (area, d) in
                      enumerate([(4e4, 1), (2.5e5, 4), (9e4, 2), (6e4, 1)], start=1))
        for first in range(1, 5):
            for last in range(first, 5):
                _assert_matches_stepper(table, tuple(range(first, last + 1)))
        _assert_matches_stepper(table, (1, 3))


class TestStackState:
    def test_layout_per_member(self, chain):
        coal = build_coalition_model(chain, (5, 6, 8))
        history = [np.arange(13.0) + 100.0 * j for j in range(3)]  # q(k-1-j) per gate
        levels = -np.arange(1.0, 14.0)
        expected = [4.0, 104.0, -5.0, 5.0, 105.0, 205.0, -6.0, 7.0, -8.0]
        assert coal.stack_state(history, levels).tolist() == expected

    def test_rows_agree_with_selectors(self, chain):
        coal = assemble_global(chain)
        rng = np.random.default_rng(3)
        history = rng.normal(size=(3, 13))
        levels = rng.normal(size=13)
        state = coal.stack_state(history, levels)
        assert np.array_equal(state[coal.gate_flow_rows()], history[0])
        assert np.array_equal(state[coal.level_rows()], levels)


def _permute_indices(chain, blocks):
    order = []
    offsets = np.cumsum([0] + [sub.n for sub in chain])
    for block in blocks:
        for s in block:
            order.extend(range(offsets[s - 1], offsets[s - 1] + chain[s - 1].n))
    return np.array(order)


def _input_order(blocks):
    order = []
    for block in blocks:
        order.extend(s - 1 for s in block)
    return np.array(order)


@pytest.mark.parametrize(
    "blocks",
    [
        tuple((i,) for i in range(1, 14)),
        (tuple(range(1, 14)),),
        ((1, 2, 3, 4), (5,), (6, 7), (8,), (9, 10, 11), (12, 13)),
        ((1, 3), (2,), (4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    ],
)
def test_block_assembly_matches_global(chain, blocks):
    """Diagonal blocks plus channel-routed couplings reproduce the one-coalition model."""
    global_model = assemble_global(chain)
    perm = _permute_indices(chain, blocks)
    inp = _input_order(blocks)
    target_xi = global_model.Xi[np.ix_(perm, perm)]
    target_up = global_model.Up[np.ix_(perm, inp)]

    coals = [build_coalition_model(chain, b) for b in blocks]
    n = sum(c.n for c in coals)
    m = sum(c.m for c in coals)
    xi = np.zeros((n, n))
    up = np.zeros((n, m))
    row = 0
    col_in = 0
    row_offsets = []
    in_offsets = []
    for c in coals:
        row_offsets.append(row)
        in_offsets.append(col_in)
        xi[row:row + c.n, row:row + c.n] = c.Xi
        up[row:row + c.n, col_in:col_in + c.m] = c.Up
        row += c.n
        col_in += c.m
    for i, ci in enumerate(coals):
        for j, cj in enumerate(coals):
            if i == j:
                continue
            xi_ij, up_ij = ci.coupling_matrices(cj)
            xi[row_offsets[i]:row_offsets[i] + ci.n,
               row_offsets[j]:row_offsets[j] + cj.n] += xi_ij
            up[row_offsets[i]:row_offsets[i] + ci.n,
               in_offsets[j]:in_offsets[j] + cj.m] += up_ij
    assert np.allclose(xi, target_xi, atol=1e-14)
    assert np.allclose(up, target_up, atol=1e-14)
