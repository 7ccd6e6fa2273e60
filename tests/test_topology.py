import itertools

import numpy as np
import pytest

from canalmpc.topology import (
    Topology,
    candidate_set,
    full_topology,
    link_activity_matrix,
    partition_of,
)

from oracles import union_find_components

N = 13


class TestTopology:
    def test_bits_roundtrip(self):
        t = Topology(5, frozenset({1, 3}))
        assert t.bits() == "1010"
        assert Topology(3, ()).bits() == "00"

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            Topology(3, frozenset({3}))

    def test_toggle(self):
        t = Topology(4, ())
        assert t.toggled(2).enabled == frozenset({2})
        assert t.toggled(2).toggled(2) == t


class TestPartitionOf:
    def test_all_disabled(self):
        p = partition_of(Topology(N, ()))
        assert len(p) == 13
        assert all(len(b) == 1 for b in p)

    def test_all_enabled(self):
        p = partition_of(full_topology(N))
        assert p == (tuple(range(1, 14)),)

    def test_two_links(self):
        t = Topology(N, frozenset({1, 2}))
        p = partition_of(t)
        assert p[0] == (1, 2, 3)
        assert len(p) == 11

    @pytest.mark.parametrize("n", [1, 2, 3, N])
    def test_exhaustive_union_find_oracle(self, n):
        links = list(range(1, n))
        for bits in itertools.product("01", repeat=n - 1):
            enabled = frozenset(l for l, b in zip(links, bits) if b == "1")
            p = partition_of(Topology(n, enabled))
            edges = [(l, l + 1) for l in enabled]
            assert p == union_find_components(n, edges)

    def test_partition_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            enabled = frozenset(
                int(l) for l in rng.choice(range(1, N), size=rng.integers(0, N), replace=False)
            )
            p = partition_of(Topology(N, enabled))
            members = [s for b in p for s in b]
            assert sorted(members) == list(range(1, N + 1))
            assert all(b for b in p)
            assert 1 <= len(p) <= N
            # chain topology: every block is a contiguous interval
            for b in p:
                assert list(b) == list(range(b[0], b[-1] + 1))


class TestCandidateSet:
    def test_from_empty(self):
        cands = candidate_set(Topology(N, ()))
        assert len(cands) == 13
        assert cands[0] == Topology(N, ())
        assert sorted(c.n_links for c in cands) == [0] + [1] * 12

    def test_from_full(self):
        cands = candidate_set(full_topology(N))
        assert len(cands) == 13
        assert sorted(c.n_links for c in cands) == [11] * 12 + [12]

    def test_hamming_distance_at_most_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            enabled = frozenset(
                int(l) for l in rng.choice(range(1, N), size=rng.integers(0, N), replace=False)
            )
            t = Topology(N, enabled)
            for c in candidate_set(t):
                assert len(c.enabled ^ t.enabled) <= 1


def test_link_activity_matrix():
    mat = link_activity_matrix(["110", "001"])
    assert np.array_equal(mat, [[1, 1, 0], [0, 0, 1]])
