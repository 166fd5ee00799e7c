"""Plan generation and synergy-aware makespan minimization.

A planning domain lists task instances (possibly many of the same symbolic
type), their eligible agents, and pick-before-place precedence pairs.  Plans
are an agent assignment plus per-agent task orderings.  The predicted cost of
a plan is computed by serial dispatch: each agent runs its tasks back-to-back,
waiting only for unmet precedence, while task durations and overlap fractions
are iterated to a fixed point under the synergy coupling.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    InfeasibleDomain,
    InvalidProgram,
    MissingDuration,
    NonConvergence,
)
from .model import (
    AgentId,
    PlanSchedule,
    ScheduledTask,
    StatsMap,
    SynergyMatrix,
    TimeInterval,
    plan_cost,
)

# Fixed-point iteration controls for the coupled-duration schedule.
MAKESPAN_TOL = 1e-6
MAX_FIXED_POINT_ITERATIONS = 100


@dataclass(frozen=True)
class TaskInstance:
    """One concrete task to execute: a unique uid tagged with its symbolic type."""

    uid: str
    spec_id: str
    eligible: frozenset[AgentId]


@dataclass(frozen=True)
class PlanningDomain:
    """Task instances to complete plus precedence pairs (before_uid, after_uid)."""

    instances: tuple[TaskInstance, ...]
    precedence: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        uids = [inst.uid for inst in self.instances]
        if len(set(uids)) != len(uids):
            raise ValueError("task instance uids must be unique")
        known = set(uids)
        for before, after in self.precedence:
            if before not in known or after not in known:
                raise ValueError(f"precedence pair ({before!r}, {after!r}) references unknown uid")
            if before == after:
                raise ValueError(f"precedence pair on {before!r} is a self-loop")
        if self._has_cycle():
            raise ValueError("precedence graph contains a cycle")

    def _has_cycle(self) -> bool:
        indegree = {inst.uid: 0 for inst in self.instances}
        succ: dict[str, list[str]] = {inst.uid: [] for inst in self.instances}
        for before, after in self.precedence:
            indegree[after] += 1
            succ[before].append(after)
        ready = [u for u, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            u = ready.pop()
            seen += 1
            for v in succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        return seen != len(self.instances)

    def instance(self, uid: str) -> TaskInstance:
        return self._by_uid[uid]

    @functools.cached_property
    def _by_uid(self) -> dict[str, TaskInstance]:
        return {inst.uid: inst for inst in self.instances}

    def prerequisites(self) -> dict[str, tuple[str, ...]]:
        prereq: dict[str, list[str]] = {inst.uid: [] for inst in self.instances}
        for before, after in self.precedence:
            prereq[after].append(before)
        return {u: tuple(v) for u, v in prereq.items()}


@dataclass(frozen=True)
class CandidatePlan:
    """Agent assignment plus per-agent task orderings."""

    assignment: Mapping[str, AgentId]
    order: Mapping[AgentId, tuple[str, ...]]
    predicted_makespan: float | None = None


def validate_plan(domain: PlanningDomain, plan: CandidatePlan) -> None:
    """Independent well-formedness check used by the planner's own tests.

    Verifies that every instance is assigned to exactly one eligible agent,
    appears exactly once in that agent's ordering, and that every same-agent
    precedence pair is ordered correctly.
    """
    uids = {inst.uid for inst in domain.instances}
    if set(plan.assignment) != uids:
        raise InvalidProgram("assignment does not cover the domain's instances exactly")
    for inst in domain.instances:
        agent = plan.assignment[inst.uid]
        if agent not in inst.eligible:
            raise InvalidProgram(f"{inst.uid!r} assigned to ineligible agent {agent.value}")
    placed = []
    for agent in AgentId:
        lane = plan.order.get(agent, ())
        for uid in lane:
            if plan.assignment.get(uid) is not agent:
                raise InvalidProgram(f"{uid!r} ordered under {agent.value} but assigned elsewhere")
        placed.extend(lane)
    if sorted(placed) != sorted(uids):
        raise InvalidProgram("orderings do not cover the assignment exactly")
    position = {uid: i for agent in AgentId for i, uid in enumerate(plan.order.get(agent, ()))}
    for before, after in domain.precedence:
        if plan.assignment[before] is plan.assignment[after]:
            if position[before] > position[after]:
                raise InvalidProgram(f"{after!r} ordered before its prerequisite {before!r}")


def _pairs_are_disjoint(precedence: Sequence[tuple[str, str]]) -> bool:
    seen: set[str] = set()
    for before, after in precedence:
        if before in seen or after in seen:
            return False
        seen.update((before, after))
    return True


def _random_linearization(domain: PlanningDomain, rng: np.random.Generator) -> list[str]:
    """Uniformly random topological order of the domain's instances.

    For disjoint precedence pairs (the pick/place case) a uniform permutation
    with inverted pairs swapped in place is exactly uniform over valid
    linearizations.  Other acyclic precedence falls back to repeatedly picking
    uniformly among the ready tasks.
    """
    uids = [inst.uid for inst in domain.instances]
    if _pairs_are_disjoint(domain.precedence):
        order = [uids[i] for i in rng.permutation(len(uids))]
        position = {uid: i for i, uid in enumerate(order)}
        for before, after in domain.precedence:
            i, j = position[before], position[after]
            if i > j:
                order[i], order[j] = order[j], order[i]
                position[before], position[after] = j, i
        return order

    prereq = {u: set(v) for u, v in domain.prerequisites().items()}
    out: list[str] = []
    done: set[str] = set()
    remaining = list(uids)
    while remaining:
        ready = sorted(u for u in remaining if prereq[u] <= done)
        pick = ready[int(rng.integers(len(ready)))]
        out.append(pick)
        done.add(pick)
        remaining.remove(pick)
    return out


def random_plan(domain: PlanningDomain, seed) -> CandidatePlan:
    """Sample a valid plan: eligible agent per task, random interleaving.

    Deterministic per seed.  Raises InfeasibleDomain when some task has no
    eligible agent.
    """
    for inst in domain.instances:
        if not inst.eligible:
            raise InfeasibleDomain(f"task {inst.uid!r} has no eligible agent")
    rng = np.random.default_rng(seed)
    assignment: dict[str, AgentId] = {}
    for inst in domain.instances:
        choices = sorted(inst.eligible, key=lambda a: a.value)
        assignment[inst.uid] = choices[int(rng.integers(len(choices)))]
    linear = _random_linearization(domain, rng)
    order = {
        agent: tuple(uid for uid in linear if assignment[uid] is agent) for agent in AgentId
    }
    return CandidatePlan(assignment=assignment, order=order)


def _serial_schedule(
    lanes: Sequence[Sequence[str]],
    prereq: Mapping[str, tuple[str, ...]],
    durations: Mapping[str, float],
) -> dict[str, tuple[float, float]]:
    """Dispatch each lane's tasks back-to-back from t=0, as (start, end) pairs.

    A task whose precedence prerequisite runs on the other agent starts no
    earlier than that prerequisite's end (the only inserted idle time).
    """
    index = [0, 0]
    free_at = [0.0, 0.0]
    intervals: dict[str, tuple[float, float]] = {}
    remaining = sum(len(lane) for lane in lanes)
    while remaining:
        progressed = False
        for li, lane in enumerate(lanes):
            while index[li] < len(lane):
                uid = lane[index[li]]
                deps = prereq.get(uid, ())
                if any(d not in intervals for d in deps):
                    break
                start = free_at[li]
                for d in deps:
                    start = max(start, intervals[d][1])
                end = start + durations[uid]
                intervals[uid] = (start, end)
                free_at[li] = end
                index[li] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise InvalidProgram("cross-agent precedence deadlock in plan orderings")
    return intervals


def predicted_schedule(
    domain: PlanningDomain,
    plan: CandidatePlan,
    stats: StatsMap,
    synergy: SynergyMatrix,
) -> tuple[PlanSchedule, float]:
    """Fixed-point schedule under synergy coupling, plus its makespan.

    Durations start at each task's expected value; the schedule they induce
    determines overlap fractions, which rescale the durations, until the
    makespan moves by less than MAKESPAN_TOL between rounds.
    """
    if not domain.instances:
        return PlanSchedule(), 0.0
    spec_of = {inst.uid: inst.spec_id for inst in domain.instances}
    means: dict[str, float] = {}
    for inst in domain.instances:
        agent = plan.assignment[inst.uid]
        key = (inst.spec_id, agent)
        if key not in stats:
            raise MissingDuration(inst.spec_id, agent)
        means[inst.uid] = stats[key].mean

    lanes = (plan.order.get(AgentId.HUMAN, ()), plan.order.get(AgentId.ROBOT, ()))
    prereq = domain.prerequisites()
    # Coefficients resolved per instance pair once; (own uid, counterpart uid).
    coeff: dict[str, list[tuple[str, float]]] = {}
    for agent, own_lane, other_lane in (
        (AgentId.HUMAN, lanes[0], lanes[1]),
        (AgentId.ROBOT, lanes[1], lanes[0]),
    ):
        for uid in own_lane:
            coeff[uid] = [
                (other, synergy.get(agent, spec_of[uid], spec_of[other]).coefficient)
                for other in other_lane
            ]

    durations = dict(means)
    previous = None
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        intervals = _serial_schedule(lanes, prereq, durations)
        makespan = max(end for _, end in intervals.values())
        if previous is not None and abs(makespan - previous) < MAKESPAN_TOL:
            schedule = PlanSchedule.from_tasks(
                ScheduledTask(spec_of[uid], plan.assignment[uid], TimeInterval(s, e))
                for uid, (s, e) in intervals.items()
            )
            finish = [0.0, 0.0]
            for li, lane in enumerate(lanes):
                for uid in lane:
                    finish[li] = max(finish[li], intervals[uid][1])
            return schedule, plan_cost(finish[0], finish[1])
        previous = makespan
        durations = _coupled_durations(means, intervals, coeff)
    raise NonConvergence(
        f"makespan did not settle within {MAX_FIXED_POINT_ITERATIONS} iterations"
    )


def _coupled_durations(
    means: Mapping[str, float],
    intervals: Mapping[str, tuple[float, float]],
    coeff: Mapping[str, Sequence[tuple[str, float]]],
) -> dict[str, float]:
    durations: dict[str, float] = {}
    for uid, pairs in coeff.items():
        own_start, own_end = intervals[uid]
        own_len = own_end - own_start
        coupled = 0.0
        covered = 0.0
        for other_uid, s in pairs:
            other_start, other_end = intervals[other_uid]
            lo = own_start if own_start > other_start else other_start
            hi = own_end if own_end < other_end else other_end
            if hi <= lo:
                continue
            delta = (hi - lo) / own_len
            coupled += s * delta
            covered += delta
        durations[uid] = means[uid] * (1.0 + (coupled - covered))
    return durations


def predict_makespan(
    domain: PlanningDomain,
    plan: CandidatePlan,
    stats: StatsMap,
    synergy: SynergyMatrix,
) -> float:
    """Predicted plan cost: the slower agent's finish time at the fixed point."""
    _, makespan = predicted_schedule(domain, plan, stats, synergy)
    return makespan


def _all_linearizations(domain: PlanningDomain) -> Iterator[tuple[str, ...]]:
    prereq = {u: set(v) for u, v in domain.prerequisites().items()}
    uids = sorted(inst.uid for inst in domain.instances)

    def extend(done: set[str], acc: list[str]) -> Iterator[tuple[str, ...]]:
        if len(acc) == len(uids):
            yield tuple(acc)
            return
        for u in uids:
            if u not in done and prereq[u] <= done:
                acc.append(u)
                done.add(u)
                yield from extend(done, acc)
                done.remove(u)
                acc.pop()

    yield from extend(set(), [])


def _count_linearizations(domain: PlanningDomain, limit: int) -> int | None:
    """Number of topological orders, or None once it exceeds `limit`."""
    count = 0
    for _ in _all_linearizations(domain):
        count += 1
        if count > limit:
            return None
    return count


def _enumerate_plans(domain: PlanningDomain) -> Iterator[CandidatePlan]:
    eligible_lists = [sorted(inst.eligible, key=lambda a: a.value) for inst in domain.instances]
    uids = [inst.uid for inst in domain.instances]
    for combo in itertools.product(*eligible_lists):
        assignment = dict(zip(uids, combo))
        for linear in _all_linearizations(domain):
            order = {
                agent: tuple(u for u in linear if assignment[u] is agent) for agent in AgentId
            }
            yield CandidatePlan(assignment=assignment, order=order)


def _plan_key(domain: PlanningDomain, plan: CandidatePlan) -> tuple:
    assignment_vec = tuple(plan.assignment[inst.uid].value for inst in domain.instances)
    order_vec = tuple(plan.order.get(agent, ()) for agent in AgentId)
    return (assignment_vec, order_vec)


def optimize_plan(
    domain: PlanningDomain,
    stats: StatsMap,
    synergy: SynergyMatrix,
    budget: int,
    seed: int = 0,
) -> CandidatePlan:
    """Minimum-predicted-makespan plan by exhaustive or sampled search.

    When the candidate space (assignments x interleavings) fits within the
    budget it is enumerated exhaustively; otherwise `budget` seeded random
    plans are evaluated.  Ties break on the lexicographic assignment vector,
    then the orderings, so the result is independent of evaluation order.
    Candidates whose fixed point fails to converge, or that put a task on an
    agent without duration statistics, are skipped; MissingDuration is raised
    only when no candidate could be evaluated and one of them lacked them.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    for inst in domain.instances:
        if not inst.eligible:
            raise InfeasibleDomain(f"task {inst.uid!r} has no eligible agent")
    if not domain.instances:
        return CandidatePlan(assignment={}, order={a: () for a in AgentId}, predicted_makespan=0.0)

    n_assignments = math.prod(len(inst.eligible) for inst in domain.instances)
    candidates: Iterator[CandidatePlan]
    if n_assignments <= budget:
        n_orders = _count_linearizations(domain, limit=budget // n_assignments + 1)
        exhaustive = n_orders is not None and n_assignments * n_orders <= budget
    else:
        exhaustive = False
    if exhaustive:
        candidates = _enumerate_plans(domain)
    else:
        candidates = (random_plan(domain, seed=[seed, i]) for i in range(budget))

    best: CandidatePlan | None = None
    best_cost = math.inf
    best_key: tuple | None = None
    skipped = 0
    missing: MissingDuration | None = None
    for plan in candidates:
        try:
            cost = predict_makespan(domain, plan, stats, synergy)
        except NonConvergence:
            skipped += 1
            continue
        except MissingDuration as exc:
            skipped += 1
            missing = missing or exc
            continue
        key = _plan_key(domain, plan)
        if cost < best_cost or (cost == best_cost and (best_key is None or key < best_key)):
            best, best_cost, best_key = plan, cost, key
    if best is None:
        if missing is not None:
            raise missing
        raise NonConvergence(
            f"all {skipped} evaluated candidates failed to converge; "
            "check the synergy estimates for pathological values"
        )
    return replace(best, predicted_makespan=best_cost)
