"""Communication topology over the chain of agents and induced partitions.

The link universe contains one link per adjacent pair: link i joins agents
i and i+1 (i = 1..N-1).  Enabling a set of links partitions the agent set
into connected components (coalitions).  Traces serialize a topology as a
bit-string of link flags ordered upstream to downstream.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Topology:
    """An enabled-link set over a chain of `n_agents` nodes."""

    n_agents: int
    enabled: frozenset

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if not isinstance(self.enabled, frozenset):
            object.__setattr__(self, "enabled", frozenset(self.enabled))
        for link in self.enabled:
            if not 1 <= link <= self.n_agents - 1:
                raise ValueError(f"link {link} outside universe 1..{self.n_agents - 1}")

    @property
    def n_links(self):
        return len(self.enabled)

    def bits(self) -> str:
        """Link flags as a string, upstream to downstream."""
        return "".join(
            "1" if i in self.enabled else "0" for i in range(1, self.n_agents)
        )

    def toggled(self, link: int) -> "Topology":
        if link in self.enabled:
            return Topology(self.n_agents, self.enabled - {link})
        return Topology(self.n_agents, self.enabled | {link})


def full_topology(n_agents: int) -> Topology:
    return Topology(n_agents, frozenset(range(1, n_agents)))


def partition_of(topology: Topology) -> tuple:
    """Connected components induced by the enabled links of a chain graph.

    Returns a tuple of member tuples: contiguous runs of agents, in chain
    order, that cover the chain once.
    """
    n = topology.n_agents
    blocks = []
    current = [1]
    for i in range(1, n):
        if i in topology.enabled:
            current.append(i + 1)
        else:
            blocks.append(tuple(current))
            current = [i + 1]
    blocks.append(tuple(current))
    return tuple(blocks)


def candidate_set(current: Topology) -> list:
    """The incumbent plus every topology differing in exactly one link."""
    return [current] + [current.toggled(i) for i in range(1, current.n_agents)]


def link_activity_matrix(bit_strings) -> np.ndarray:
    """Steps-by-links 0/1 matrix from a sequence of topology bit-strings."""
    return np.array([[int(c) for c in bits] for bits in bit_strings], dtype=int)
