"""Integrator-delay canal models: per-reach subsystems and coalition assembly.

A reach is a gate plus its downstream pool.  Each subsystem state stacks the
recent gate flows followed by the water-level error:

    x_i = [q_i(k-1), ..., q_i(k-d_i), e_i(k)]

The level integrates the difference between the delayed inflow and the
outflow (downstream gate flow plus offtake); flows form a delay line driven
by the flow increment u_i = dq_i commanded at the upstream gate.  The
downstream gate flow perturbs the level, so the neighbour set of reach i is
{i+1} (distant downstream control), empty for the last reach whose
downstream discharge is not manipulated.  CoalitionModel owns this layout:
its row helpers and stack_state are the only code that encodes it.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReachParams:
    """Physical parameters of one reach (length/width are informational)."""

    index: int
    backwater_area: float  # m^2
    delay_steps: int
    length: float = 0.0
    bottom_width: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.backwater_area < np.inf:
            raise ValueError(f"reach {self.index}: backwater_area must be finite and positive")
        if self.delay_steps < 1:
            raise ValueError(f"reach {self.index}: delay_steps must be >= 1")


# West main canal, 13 reaches, identified at 80% of maximum discharge.
DEZ_REACHES = (
    ReachParams(1, 0.9318e5, 3, 6219, 12),
    ReachParams(2, 1.0952e5, 1, 1933, 12),
    ReachParams(3, 0.8554e5, 2, 3718, 10),
    ReachParams(4, 3.7060e5, 2, 3906, 10),
    ReachParams(5, 1.7095e5, 2, 2934, 5),
    ReachParams(6, 0.7786e5, 3, 4670, 5),
    ReachParams(7, 0.6661e5, 2, 3110, 5),
    ReachParams(8, 0.8904e5, 1, 2240, 5),
    ReachParams(9, 0.8671e5, 2, 3405, 5),
    ReachParams(10, 0.4897e5, 2, 3820, 5),
    ReachParams(11, 0.4032e5, 2, 2520, 4),
    ReachParams(12, 0.3820e5, 2, 2874, 4),
    ReachParams(13, 0.3884e5, 2, 2468, 5),
)


@dataclass(frozen=True, eq=False)
class SubsystemModel:
    """One gate+reach pair: its flow delay and level gain T_c / A_s."""

    index: int
    delay: int
    gain: float  # T_c / A_s

    @property
    def n(self):
        return self.delay + 1


def build_subsystem(params: ReachParams, t_sample: float) -> SubsystemModel:
    """The model of one reach from its parameters."""
    if t_sample <= 0.0:
        raise ValueError("t_sample must be positive")
    return SubsystemModel(params.index, params.delay_steps, t_sample / params.backwater_area)


def build_chain(reaches, t_sample):
    """Build all subsystem models for a chain of reaches."""
    reaches = tuple(reaches)
    for pos, r in enumerate(reaches, start=1):
        if r.index != pos:
            raise ValueError("reach indices must be contiguous starting at 1")
    return tuple([build_subsystem(r, t_sample) for r in reaches])


@dataclass(frozen=True, eq=False)
class CoalitionModel:
    """Stacked model of a connected group of subsystems.

    xi(k+1) = Xi xi + Up u + Phi rho + Psi w

    where rho stacks the members' offtakes and w holds one channel per
    coupling to a non-member: the value of channel c is the flow
    q_s(k-1) + dq_s(k) at the external source gate coupling_sources[c].
    gamma selects the members' level errors.
    """

    members: tuple
    Xi: np.ndarray
    Up: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    gamma: np.ndarray
    coupling_sources: tuple
    offsets: dict
    delays: tuple

    @property
    def n(self):
        return self.Xi.shape[0]

    @property
    def m(self):
        return self.Up.shape[1]

    @property
    def n_channels(self):
        return self.Psi.shape[1]

    def stack_state(self, flow_history, levels):
        """The stacked state [q_s(k-1), ..., q_s(k-d_s), e_s] per member, from measurements.

        flow_history[j] holds every gate's flow j + 1 steps back, for at
        least the longest member delay; levels holds every reach's level
        error.  Both are indexed by reach index - 1.
        """
        return np.concatenate([
            [flow_history[j][s - 1] for j in range(d)] + [levels[s - 1]]
            for s, d in zip(self.members, self.delays)
        ])

    def level_rows(self):
        """State indices of the member level errors, in member order."""
        return [self.offsets[s] + d for s, d in zip(self.members, self.delays)]

    def flow_rows(self):
        """State indices of every flow slot (all sections), in member order."""
        rows = []
        for s, d in zip(self.members, self.delays):
            rows.extend(range(self.offsets[s], self.offsets[s] + d))
        return rows

    def gate_flow_rows(self):
        """State indices of the newest flow slot q_s(k-1) per member."""
        return [self.offsets[s] for s in self.members]

    def flow_selector(self):
        rows = self.flow_rows()
        sel = np.zeros((len(rows), self.n))
        sel[np.arange(len(rows)), rows] = 1.0
        return sel

    def gate_flow_selector(self):
        rows = self.gate_flow_rows()
        sel = np.zeros((len(rows), self.n))
        sel[np.arange(len(rows)), rows] = 1.0
        return sel

    def coupling_matrices(self, other):
        """(Xi_ij, Up_ij) expressing this coalition's dependence on `other`.

        Routed through the Psi channels: channel c with source s contributes
        Psi[:, c] times the row selecting q_s(k-1) in other's state (and the
        row selecting dq_s in other's input).
        """
        xi_ij = np.zeros((self.n, other.n))
        up_ij = np.zeros((self.n, other.m))
        for c, s in enumerate(self.coupling_sources):
            if s in other.offsets:
                xi_ij[:, other.offsets[s]] += self.Psi[:, c]
                up_ij[:, other.members.index(s)] += self.Psi[:, c]
        return xi_ij, up_ij


def build_coalition_model(subsystems, members) -> CoalitionModel:
    """Assemble the stacked model of one coalition.

    `subsystems` lists every subsystem model in chain order.  Each member
    contributes its flow delay line and its level row: + gain on the
    delayed inflow q(k-d), - gain on the offtake and - gain on the
    downstream gate's flow q(k-1) + dq(k).  When that gate is a member the
    coupling lands in Xi/Up; otherwise it becomes a disturbance channel in
    Psi, so the model depends on the members alone, not on how the other
    subsystems are grouped.  The last reach of the chain has no downstream
    gate.  Members need not be contiguous.
    """
    members = tuple(sorted(members))
    by_index = {s.index: s for s in subsystems}
    for s in members:
        if s not in by_index:
            raise ValueError(f"member {s} not found among subsystems")

    offsets = {}
    off = 0
    for s in members:
        offsets[s] = off
        off += by_index[s].n
    n = off
    m = len(members)

    Xi = np.zeros((n, n))
    Up = np.zeros((n, m))
    Phi = np.zeros((n, m))
    gamma = np.zeros((m, n))
    channels = []  # (level row, gain, source gate) per coupling to a non-member

    for col, s in enumerate(members):
        off, d, gain = offsets[s], by_index[s].delay, by_index[s].gain
        # Flow delay line: slot 0 integrates the gate increment, later slots shift.
        Xi[off, off] = 1.0
        Up[off, col] = 1.0
        for j in range(1, d):
            Xi[off + j, off + j - 1] = 1.0
        level = off + d
        Xi[level, level] = 1.0
        Xi[level, level - 1] = gain
        Phi[level, col] = -gain
        gamma[col, level] = 1.0
        down = s + 1
        if down in offsets:
            Xi[level, offsets[down]] = -gain
            Up[level, members.index(down)] = -gain
        elif down in by_index:
            channels.append((level, gain, down))

    Psi = np.zeros((n, len(channels)))
    for c, (level, gain, _) in enumerate(channels):
        Psi[level, c] = -gain

    return CoalitionModel(
        members=members,
        Xi=Xi,
        Up=Up,
        Phi=Phi,
        Psi=Psi,
        gamma=gamma,
        coupling_sources=tuple([source for _, _, source in channels]),
        offsets=offsets,
        delays=tuple([by_index[s].delay for s in members]),
    )


def assemble_global(subsystems) -> CoalitionModel:
    """The whole chain as a single coalition (no external channels)."""
    members = tuple([s.index for s in subsystems])
    return build_coalition_model(subsystems, members)

