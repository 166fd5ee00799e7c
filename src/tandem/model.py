"""Domain types and the plan-duration cost model for two-agent collaborative plans.

A plan assigns symbolic tasks to a human and a robot, and each agent works
through its own lane of tasks.  Each task has a nominal (expected) duration; whenever the
counterpart agent works concurrently, the nominal duration is scaled by a
per-task-pair synergy coefficient weighted by the fraction of overlap.  The
fraction of a task with no concurrent counterpart work keeps coefficient 1, so
a fully decoupled plan costs exactly the sum of nominal durations.
"""

from __future__ import annotations

# collections.abc generics, unlike typing's, are not cached process-wide, so the
# aliases below do not keep an earlier import of this module alive.
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import inf, isfinite

# Absolute tolerance for time comparisons, in seconds.
TIME_EPS = 1e-9

# Smallest synergy coefficient a matrix admits.  The estimator clamps its
# estimates here, and the floor keeps every coupled duration positive.
COEFFICIENT_FLOOR = 1e-6


class AgentId(str, Enum):
    HUMAN = "human"
    ROBOT = "robot"

    @property
    def counterpart(self) -> "AgentId":
        return AgentId.ROBOT if self is AgentId.HUMAN else AgentId.HUMAN


# Agent order of the synergy matrix as estimated, stored and reported.
SIDES = (AgentId.ROBOT, AgentId.HUMAN)


@dataclass(frozen=True)
class TimeInterval:
    """Closed interval [start, end] in non-negative seconds; end >= start."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (isfinite(self.start) and isfinite(self.end)):
            raise ValueError(f"interval bounds must be finite, got [{self.start}, {self.end}]")
        if self.start < 0.0:
            raise ValueError(f"interval start must be non-negative, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")


@dataclass(frozen=True)
class SynergyEntry:
    """One coefficient of the synergy matrix with its estimation metadata."""

    coefficient: float = 1.0
    std_error: float = 0.0
    sample_count: int = 0

    def __post_init__(self) -> None:
        if not (isfinite(self.coefficient) and self.coefficient >= COEFFICIENT_FLOOR):
            raise ValueError(
                f"synergy coefficient must be finite and at least {COEFFICIENT_FLOOR}, "
                f"got {self.coefficient}"
            )
        if not (isfinite(self.std_error) and self.std_error >= 0.0):
            raise ValueError(f"std error must be non-negative and finite, got {self.std_error}")
        if self.sample_count < 0:
            raise ValueError(f"sample count must be non-negative, got {self.sample_count}")


NEUTRAL_SYNERGY = SynergyEntry()


@dataclass(frozen=True)
class SynergyMatrix:
    """Per-agent coefficients keyed by (own task id, counterpart task id).

    Unobserved pairs default to the neutral entry (coefficient 1.0,
    sample_count 0), so an empty matrix models fully decoupled agents.
    Two tables are computed once per matrix and kept on it.
    ``coefficients`` maps each agent and own task to {counterpart task:
    coefficient} over the stored entries; the planner builds a plan's
    coefficient rows from it.  ``lower_factors`` holds for each agent and own
    task a factor that no coupled duration of that task falls below, as a
    fraction of its mean; the planner prices a plan's lower bound with it.
    """

    entries: Mapping[AgentId, Mapping[tuple[str, str], SynergyEntry]] = field(
        default_factory=dict
    )

    def get(self, agent: AgentId, own_task: str, counterpart_task: str) -> SynergyEntry:
        return self.entries.get(agent, {}).get((own_task, counterpart_task), NEUTRAL_SYNERGY)

    @cached_property
    def coefficients(self) -> dict[AgentId, dict[str, dict[str, float]]]:
        """Per agent and own task id, each stored counterpart's coefficient.

        An unstored pair has no key; it reads NEUTRAL_SYNERGY's 1.0.
        """
        table: dict[AgentId, dict[str, dict[str, float]]] = {}
        for agent, entries in self.entries.items():
            rows = table[agent] = {}
            for (own, other), entry in entries.items():
                rows.setdefault(own, {})[other] = entry.coefficient
        return table

    @cached_property
    def lower_factors(self) -> dict[AgentId, dict[str, float]]:
        """Per agent and own task, a factor at most every coupled_lane_durations factor of the task.

        A task whose stored coefficients are all at least 1 reads 1.0, and
        exactly so: c * delta >= delta rounds to no less than delta, and
        both sums add their terms in the same order, so every coupled
        duration is at least its mean, bit for bit.  Otherwise the factor is
        the smallest stored coefficient c_min less a margin, floored at 0:
        the overlap fractions of one task sum to at most 1, so
        1 + sum (c - 1) * delta >= c_min, and 1e-9 * (2 + the largest
        coefficient in the matrix) covers the rounding of the fractions, of
        their sums and of 1 + (coupled - covered) for up to millions of
        overlaps per task.  An unstored pair's neutral 1.0 lowers neither
        case, and a task with no stored coefficient has no key and reads
        1.0.  Only min and max combine the entries, so the table follows no
        iteration order.  Like the entries, the table is keyed by agent,
        then by own task id.
        """
        smallest: dict[AgentId, dict[str, float]] = {}
        largest = 0.0
        for agent, table in self.entries.items():
            low = smallest[agent] = {}
            for (own, _), entry in table.items():
                c = entry.coefficient
                if c < low.get(own, inf):
                    low[own] = c
                if c > largest:
                    largest = c
        margin = 1e-9 * (2.0 + largest)
        return {
            agent: {own: 1.0 if c >= 1.0 else max(0.0, c - margin) for own, c in low.items()}
            for agent, low in smallest.items()
        }


@dataclass(frozen=True)
class DurationStats:
    """Mean and spread of a task's measured durations for one agent."""

    task_id: str
    agent: AgentId
    mean: float
    std: float
    count: int

    def __post_init__(self) -> None:
        if not (isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"mean duration must be positive and finite, got {self.mean}")
        if not (isfinite(self.std) and self.std >= 0.0):
            raise ValueError(f"std must be non-negative and finite, got {self.std}")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if self.count == 1 and self.std != 0.0:
            raise ValueError("a single sample has zero standard deviation")


# Lookup table for duration statistics, keyed by (task id, agent).
StatsMap = Mapping[tuple[str, AgentId], DurationStats]


def stats_table(stats: Iterable[DurationStats]) -> dict[tuple[str, AgentId], DurationStats]:
    return {(s.task_id, s.agent): s for s in stats}


def coupled_lane_durations(
    means: Sequence[float],
    rows: Sequence[Sequence[float]],
    starts: Sequence[float],
    ends: Sequence[float],
    n_human: int,
) -> list[float]:
    """Synergy-scaled durations of both lanes' tasks, over slot-major lists.

    Slots below n_human hold the human lane and the rest the robot lane; slot
    i runs over [starts[i], ends[i]] with expected duration means[i], and
    rows[i][j] is its coefficient against the other lane's j-th task.  Task i
    costs means[i] * (1 + sum_j (rows[i][j] - 1) * delta_ij), where delta_ij
    is the fraction of task i that the other lane's task j covers; terms are
    added in the other lane's order.  Each lane must be in start order with
    no overlapping tasks, as serial dispatch leaves it while every duration
    is positive: a mean above 0 and every coefficient at least
    COEFFICIENT_FLOOR keep it so.  starts and ends are read only at slots
    below len(means), so they may be longer, as the planner's ends are by
    its sentinel, or exactly that long.

    One merge prices each overlapping pair once for both its tasks: the
    robot pointer walks slots n_human..n-1, stops at the first task starting
    at or after the human task's end, or at one reaching past that end (it
    may overlap the next human task), and never moves back.  When it moves
    onto a task it reads that task's start, end and length once.  The sums
    of the robot task under the pointer are carried in two locals and priced
    when the pointer moves past it, or after the human lane for a task still
    open then; a task the pointer never reaches keeps its mean, which is
    what the formula gives with no overlap.
    """
    n = len(means)
    out = list(means)
    k = n_human  # the robot slot under the pointer; n once it has left the lane
    if k < n:
        other_s = starts[k]
        other_e = ends[k]
        other_len = other_e - other_s
    else:
        other_s = inf
    other_coupled = 0.0
    other_covered = 0.0
    for i, own_s, own_e, row, mean in zip(range(n_human), starts, ends, rows, means):
        own_len = own_e - own_s
        own_coupled = 0.0
        own_covered = 0.0
        while other_s < own_e:
            lo = own_s if own_s > other_s else other_s
            hi = own_e if own_e < other_e else other_e
            if hi > lo:
                span = hi - lo
                delta = span / own_len
                own_coupled += row[k - n_human] * delta
                own_covered += delta
                delta = span / other_len
                other_coupled += rows[k][i] * delta
                other_covered += delta
            if other_e > own_e:
                break
            out[k] = means[k] * (1.0 + (other_coupled - other_covered))
            other_coupled = 0.0
            other_covered = 0.0
            k += 1
            if k < n:
                other_s = starts[k]
                other_e = ends[k]
                other_len = other_e - other_s
            else:
                other_s = inf
        out[i] = mean * (1.0 + (own_coupled - own_covered))
    if k < n:
        out[k] = means[k] * (1.0 + (other_coupled - other_covered))
    return out


def overlap_pairs(
    own_start: Sequence[float],
    own_end: Sequence[float],
    other_start: Sequence[float],
    other_end: Sequence[float],
) -> list[list[tuple[int, float]]]:
    """Per own task, the counterpart tasks that overlap it, with their fractions.

    Both lanes must be sorted by start.  Entry i lists (j, delta_ij) in
    counterpart order for every counterpart task j that shares more than an
    endpoint with own task i, where delta_ij = |i ∩ j| / |i|: the pairs that
    `coupled_lane_durations` prices.  Counterpart tasks ending at or before a
    task's start are dropped for good, and the scan stops at the first one
    starting at or after its end.  A zero-length own task overlaps nothing.
    """
    out = []
    m = len(other_start)
    j = 0
    for own_s, own_e in zip(own_start, own_end):
        while j < m and other_end[j] <= own_s:
            j += 1
        own_len = own_e - own_s
        pairs = []
        for k in range(j, m):
            other_s = other_start[k]
            if other_s >= own_e:
                break
            other_e = other_end[k]
            lo = own_s if own_s > other_s else other_s
            hi = own_e if own_e < other_e else other_e
            if hi <= lo:
                continue
            pairs.append((k, (hi - lo) / own_len))
        out.append(pairs)
    return out
