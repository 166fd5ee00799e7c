"""Plan generation and synergy-aware makespan minimization.

A planning domain lists task instances (possibly many of the same symbolic
type), their eligible agents, and disjoint pick-before-place precedence
pairs: each task is in at most one pair, so it has at most one prerequisite.
Plans are an agent assignment plus per-agent task orderings; exhaustive
search prices each distinct plan once, and prod |eligible| * n!/2^p
assignments times interleavings only bound how many there are.
``predict_makespan`` is the one cost entry point: it prices a plan by serial
dispatch, each agent running its tasks back-to-back and waiting only for an
unmet prerequisite, while task durations and overlap fractions are iterated
to a fixed point under the synergy coupling.  The slower agent's finish time
is the plan's cost.

The dispatch order depends only on the orderings and the precedence, so it
is computed once per plan, together with the well-formedness and deadlock
checks that ``validate_plan`` runs.  Each round then replays it in one
linear pass, and one merge over the two lanes (``model.coupled_lane_durations``)
prices each overlapping human-robot pair once for both its tasks, in
O(n_h + n_r), carrying the sums of the robot task under its pointer in
locals rather than in per-slot lists.  Every mean is positive and every
coefficient at least ``model.COEFFICIENT_FLOOR``, so every coupled duration
stays positive and each round's lanes stay start-sorted without overlap, as
the merge needs; ends then grow along each lane, so a round's makespan is
the later of the two lanes' last ends.  The result equals, bit for bit, an
all-pairs O(n_h * n_r) scan of the same formula; the tests keep that scan
as their reference.

Search prices each candidate against the best cost so far, an exact
branch-and-bound (Land & Doig, 1960).  ``SynergyMatrix.lower_factors``
gives, per agent and own task, a factor that no coupled duration of the task
falls below, as a fraction of its mean: 1.0 when every stored coefficient of
the task is at least 1, else its smallest coefficient less a rounding
margin.  When a candidate's first round already costs more than the best,
one more replay with each mean times its factor bounds every round from
below, since dispatch only takes maxima and sums; a bound strictly above the
best skips the fixed point.  Only plans that cost strictly more are skipped,
so ties are still priced and the chosen plan and its cost are the ones
found without the bound.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from .errors import InfeasibleDomain, InvalidProgram, MissingDuration, NonConvergence
from .model import NEUTRAL_SYNERGY, AgentId, StatsMap, SynergyMatrix, coupled_lane_durations

logger = logging.getLogger(__name__)

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
    """Task instances to complete plus precedence pairs (before_uid, after_uid).

    The pairs are disjoint: every uid is in at most one pair, once, which
    also rules out self-pairs and cycles.  Every instance has an eligible
    agent: the first that has none raises InfeasibleDomain.
    """

    instances: tuple[TaskInstance, ...]
    precedence: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        uids = [inst.uid for inst in self.instances]
        if len(set(uids)) != len(uids):
            raise ValueError("task instance uids must be unique")
        known = set(uids)
        paired: set[str] = set()
        for before, after in self.precedence:
            if before not in known or after not in known:
                raise ValueError(f"precedence pair ({before!r}, {after!r}) references unknown uid")
            for uid in (before, after):
                if uid in paired:
                    raise ValueError(f"{uid!r} appears more than once in the precedence pairs")
                paired.add(uid)
        for inst in self.instances:
            if not inst.eligible:
                raise InfeasibleDomain(f"task {inst.uid!r} has no eligible agent")

    @functools.cached_property
    def _position(self) -> dict[str, int]:
        return {inst.uid: i for i, inst in enumerate(self.instances)}

    @functools.cached_property
    def _uids(self) -> tuple[str, ...]:
        return tuple(inst.uid for inst in self.instances)

    @functools.cached_property
    def _eligible_by_value(self) -> tuple[tuple[AgentId, ...], ...]:
        return tuple(tuple(sorted(inst.eligible, key=lambda a: a.value)) for inst in self.instances)

    @functools.cached_property
    def _flexible_positions(self) -> tuple[int, ...]:
        """Domain positions of the instances that both agents may run."""
        return tuple(i for i, choices in enumerate(self._eligible_by_value) if len(choices) > 1)

    @functools.cached_property
    def _prereq_positions(self) -> tuple[int, ...]:
        """Domain position of each instance's prerequisite, -1 for none."""
        prereq = [-1] * len(self.instances)
        for before, after in self.precedence:
            prereq[self._position[after]] = self._position[before]
        return tuple(prereq)


@dataclass(frozen=True)
class CandidatePlan:
    """Agent assignment plus per-agent task orderings."""

    assignment: Mapping[str, AgentId]
    order: Mapping[AgentId, tuple[str, ...]]
    predicted_makespan: float | None = None


def validate_plan(domain: PlanningDomain, plan: CandidatePlan) -> None:
    """Raise InvalidProgram unless the plan is well formed.

    This is the check every prediction and ``simulator.program_from_plan``
    run first: each instance is assigned to an eligible agent and listed
    once, in that agent's ordering; the assignment names no other task; and
    the orderings do not deadlock, which also rejects a same-lane ordering
    that puts a task before its prerequisite.
    """
    _dispatch_order(domain, plan)


def _random_linearization(domain: PlanningDomain, rng: np.random.Generator) -> list[str]:
    """Uniformly random topological order of the domain's instances.

    The precedence pairs are disjoint, so a uniform permutation with each
    inverted pair swapped in place is exactly uniform over valid
    linearizations.
    """
    uids = domain._uids
    order = [uids[i] for i in rng.permutation(len(uids)).tolist()]
    position = {uid: i for i, uid in enumerate(order)}
    for before, after in domain.precedence:
        i, j = position[before], position[after]
        if i > j:
            order[i], order[j] = order[j], order[i]
            position[before], position[after] = j, i
    return order


def random_plan(domain: PlanningDomain, seed) -> CandidatePlan:
    """Sample a valid plan: eligible agent per task, random interleaving.

    Deterministic per seed.  The m tasks that both agents may run take their
    agents from one ``rng.integers(2, size=m)`` call, in domain order; a
    single-agent task takes no draw.  A bounded draw of this size takes one
    32-bit word of the stream whether it comes alone or in an array, so the
    stream, and with it every plan, is the one that m scalar draws give.
    """
    eligible = domain._eligible_by_value
    rng = np.random.default_rng(seed)
    agents = [choices[0] for choices in eligible]
    flexible = domain._flexible_positions
    if flexible:  # an empty draw leaves the stream as it is but costs a numpy call
        for pos, draw in zip(flexible, rng.integers(2, size=len(flexible)).tolist()):
            agents[pos] = eligible[pos][draw]
    assignment = dict(zip(domain._uids, agents))
    human: list[str] = []
    robot: list[str] = []
    for uid in _random_linearization(domain, rng):
        (human if assignment[uid] is AgentId.HUMAN else robot).append(uid)
    return CandidatePlan(
        assignment=assignment, order={AgentId.HUMAN: tuple(human), AgentId.ROBOT: tuple(robot)}
    )


def _dispatch_order(
    domain: PlanningDomain, plan: CandidatePlan
) -> tuple[list[int], list[int], int, list[tuple[int, int, int]]]:
    """Lane-major task slots of a plan and the order they dispatch in.

    Slot k < n_human is the human lane's k-th task; the robot lane follows.
    Returns (domain position of each slot, slot of each domain position,
    n_human, dispatch steps).  Each step is (slot, slot of the previous task
    in its lane, slot of its prerequisite), either of the last two the
    sentinel len(slots) when there is none; the order depends only on the
    lanes and the precedence.  Raises InvalidProgram for any plan that
    validate_plan rejects.
    """
    position = domain._position
    lanes = (plan.order.get(AgentId.HUMAN, ()), plan.order.get(AgentId.ROBOT, ()))
    n = len(domain.instances)
    slot_of = [-1] * n
    at: list[int] = []
    for agent, lane in zip((AgentId.HUMAN, AgentId.ROBOT), lanes):
        for uid in lane:
            pos = position.get(uid)
            if pos is None:
                raise InvalidProgram(f"{uid!r} in the {agent.value} ordering is not a domain task")
            if slot_of[pos] >= 0:
                raise InvalidProgram(f"{uid!r} appears more than once in the orderings")
            if plan.assignment.get(uid) is not agent:
                raise InvalidProgram(f"{uid!r} ordered under {agent.value} but assigned elsewhere")
            if agent not in domain.instances[pos].eligible:
                raise InvalidProgram(f"{uid!r} assigned to ineligible agent {agent.value}")
            slot_of[pos] = len(at)
            at.append(pos)
    if len(at) != n:
        missing = next(inst.uid for inst, slot in zip(domain.instances, slot_of) if slot < 0)
        raise InvalidProgram(f"{missing!r} appears in no ordering")
    # Every instance is assigned to the agent of its lane by now, so any
    # further key names a task outside the domain.
    if len(plan.assignment) != n:
        raise InvalidProgram("assignment does not cover the domain's instances exactly")

    n_human = len(lanes[0])
    prereq = domain._prereq_positions
    deps = [n if prereq[pos] < 0 else slot_of[prereq[pos]] for pos in at]
    done = [False] * n + [True]  # done[n]: the sentinel of a task with no prerequisite
    lane_start, lane_end = (0, n_human), (n_human, n)
    cursor = list(lane_start)
    steps: list[tuple[int, int, int]] = []
    while len(steps) < n:
        dispatched = len(steps)
        for li in (0, 1):
            k = cursor[li]
            while k < lane_end[li] and done[deps[k]]:
                steps.append((k, k - 1 if k > lane_start[li] else n, deps[k]))
                done[k] = True
                k += 1
            cursor[li] = k
        if len(steps) == dispatched:
            raise InvalidProgram("cross-agent precedence deadlock in plan orderings")
    return at, slot_of, n_human, steps


def _replay(
    steps: list[tuple[int, int, int]],
    durations: list[float],
    starts: list[float],
    ends: list[float],
    n_human: int,
) -> float:
    """One serial dispatch of the steps under the durations; returns its makespan.

    Fills starts and ends per slot; ends[len(durations)] is the sentinel, 0.0,
    and stays so.  The makespan is the later of the two lanes' last ends,
    since ends grow along a lane; an empty lane reads the sentinel's.
    """
    for k, prev, dep in steps:
        start = ends[prev]
        if ends[dep] > start:
            start = ends[dep]
        starts[k] = start
        ends[k] = start + durations[k]
    makespan = ends[n_human - 1]
    last = ends[len(durations) - 1]
    return last if last > makespan else makespan


def predict_makespan(
    domain: PlanningDomain,
    plan: CandidatePlan,
    stats: StatsMap,
    synergy: SynergyMatrix,
    cutoff: float = math.inf,
) -> float:
    """Predicted plan cost: the slower agent's finish time at the fixed point.

    Durations start at each task's expected value; the serial dispatch they
    induce determines overlap fractions, which rescale the durations, until
    the makespan moves by less than MAKESPAN_TOL between rounds.  The
    dispatch order is found once and every round replays it.  The empty
    plan costs 0.0.  Means are looked up in domain order, so MissingDuration
    names the first domain instance that lacks statistics, and the
    coefficient rows are built only for a plan that reaches the fixed point.

    A plan that provably costs more than ``cutoff`` returns math.inf
    unpriced: when the first round's makespan exceeds the cutoff, the steps
    are replayed once more with each mean times its task's
    ``synergy.lower_factors`` entry.  No round's duration falls below that
    and the replay is monotone, so this lower bound is at most every
    round's makespan; when it is strictly above the cutoff, every outcome
    of the fixed point is too.  Any other plan returns what it returns
    without a cutoff.  Raises InvalidProgram for a plan that validate_plan
    rejects, MissingDuration for a task on an agent without duration
    statistics, and NonConvergence after MAX_FIXED_POINT_ITERATIONS rounds;
    a bounded plan never raises NonConvergence.
    """
    at, slot_of, n_human, steps = _dispatch_order(domain, plan)
    n = len(at)
    if not n:
        return 0.0

    means = [0.0] * n
    for pos, inst in enumerate(domain.instances):
        agent = plan.assignment[inst.uid]
        key = (inst.spec_id, agent)
        if key not in stats:
            raise MissingDuration(inst.spec_id, agent)
        means[slot_of[pos]] = stats[key].mean

    specs = [domain.instances[pos].spec_id for pos in at]
    starts = [0.0] * n
    ends = [0.0] * (n + 1)
    makespan = _replay(steps, means, starts, ends, n_human)
    if makespan > cutoff:
        factors = synergy.lower_factors
        human = factors.get(AgentId.HUMAN, {})
        robot = factors.get(AgentId.ROBOT, {})
        floors = [mean * human.get(spec, 1.0) for mean, spec in zip(means[:n_human], specs)]
        floors += [
            mean * robot.get(spec, 1.0) for mean, spec in zip(means[n_human:], specs[n_human:])
        ]
        if _replay(steps, floors, [0.0] * n, [0.0] * (n + 1), n_human) > cutoff:
            return math.inf

    # Coefficient rows against the counterpart lane, one per own spec.
    rows: list[list[float]] = []
    for agent, own, other in (
        (AgentId.HUMAN, specs[:n_human], specs[n_human:]),
        (AgentId.ROBOT, specs[n_human:], specs[:n_human]),
    ):
        entries = synergy.entries.get(agent, {})
        by_spec: dict[str, list[float]] = {}
        for spec in own:
            if spec not in by_spec:
                by_spec[spec] = [entries.get((spec, o), NEUTRAL_SYNERGY).coefficient for o in other]
            rows.append(by_spec[spec])
    for _ in range(MAX_FIXED_POINT_ITERATIONS - 1):
        previous = makespan
        durations = coupled_lane_durations(means, rows, starts, ends, n_human)
        makespan = _replay(steps, durations, starts, ends, n_human)
        if abs(makespan - previous) < MAKESPAN_TOL:
            return makespan
    raise NonConvergence(
        f"makespan did not settle within {MAX_FIXED_POINT_ITERATIONS} iterations"
    )


def _all_linearizations(domain: PlanningDomain) -> Iterator[tuple[str, ...]]:
    prereq = {after: before for before, after in domain.precedence}
    uids = sorted(domain._uids)

    def extend(done: set[str | None], acc: list[str]) -> Iterator[tuple[str, ...]]:
        if len(acc) == len(uids):
            yield tuple(acc)
            return
        for u in uids:
            if u not in done and prereq.get(u) in done:
                acc.append(u)
                done.add(u)
                yield from extend(done, acc)
                done.remove(u)
                acc.pop()

    yield from extend({None}, [])  # None: the prerequisite of a task without one


def _enumerate_plans(domain: PlanningDomain) -> Iterator[CandidatePlan]:
    """Each distinct plan once: the interleavings' lane pairs, deduplicated per assignment."""
    linears = list(_all_linearizations(domain))
    for combo in itertools.product(*domain._eligible_by_value):
        assignment = dict(zip(domain._uids, combo))
        human = {u for u, agent in assignment.items() if agent is AgentId.HUMAN}
        lanes = dict.fromkeys(
            (tuple([u for u in linear if u in human]), tuple([u for u in linear if u not in human]))
            for linear in linears
        )
        for pair in lanes:
            yield CandidatePlan(assignment=assignment, order=dict(zip(AgentId, pair)))


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

    prod |eligible| assignments times n! / 2^p interleavings, for n
    instances and p disjoint precedence pairs, bound the plan space; when
    the bound fits within the budget each distinct plan (interleavings that
    differ only across lanes are one) is evaluated once, otherwise `budget`
    seeded random plans are.  Ties break on the lexicographic assignment
    vector, then the orderings, so the result is independent of evaluation
    order.  Each candidate is priced with the best cost so far as its
    cutoff, so a plan that provably costs more comes back as math.inf
    without its fixed point; only a plan that could win or tie is priced in
    full, and the result is the one a search without cutoffs finds.
    Candidates whose fixed point fails to converge, or that put a task on an
    agent without duration statistics, are skipped with one logged warning
    that counts both among the evaluated plans and names how many more were
    bounded out: non-convergence is counted only among the plans priced in
    full.  MissingDuration is raised only when no candidate could be
    evaluated and one lacked them.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")

    bound = math.prod(len(inst.eligible) for inst in domain.instances) * (
        math.factorial(len(domain.instances)) >> len(domain.precedence)
    )
    candidates: Iterator[CandidatePlan]
    if bound <= budget:
        candidates = _enumerate_plans(domain)
    else:
        candidates = (random_plan(domain, seed=[seed, i]) for i in range(budget))

    best: CandidatePlan | None = None
    best_cost = math.inf
    best_key: tuple | None = None
    evaluated = 0
    non_converged = 0
    lacking = 0
    bounded = 0
    missing: MissingDuration | None = None
    for plan in candidates:
        evaluated += 1
        try:
            cost = predict_makespan(domain, plan, stats, synergy, best_cost)
        except NonConvergence:
            non_converged += 1
            continue
        except MissingDuration as exc:
            lacking += 1
            missing = missing or exc
            continue
        if cost == math.inf:
            bounded += 1
        elif cost < best_cost:
            best, best_cost, best_key = plan, cost, None
        elif cost == best_cost:
            # A tie: compare keys, the best plan's computed once per best.
            if best_key is None:
                best_key = _plan_key(domain, best)
            key = _plan_key(domain, plan)
            if key < best_key:
                best, best_key = plan, key
    skipped = non_converged + lacking
    if skipped:
        logger.warning(
            "skipped %d of %d candidates: %d did not converge, %d lack duration statistics; "
            "%d more were bounded out unpriced",
            skipped, evaluated, non_converged, lacking, bounded,
        )
    if best is None:
        if missing is not None:
            raise missing
        raise NonConvergence(
            f"all {skipped} evaluated candidates failed to converge; "
            "check the synergy estimates for pathological values"
        )
    return replace(best, predicted_makespan=best_cost)
