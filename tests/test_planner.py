"""Random plan sampling, makespan prediction, and plan optimization."""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import math
import random
from pathlib import Path

import numpy as np
import pytest

import tandem.planner as planner_mod
from tandem import cli
from tandem.config import build_domain, load_world_config, make_world_config
from tandem.errors import (
    InfeasibleDomain,
    InvalidProgram,
    MissingDuration,
    NonConvergence,
)
from tandem.model import (
    COEFFICIENT_FLOOR,
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    stats_table,
)
from tandem.planner import (
    CandidatePlan,
    PlanningDomain,
    TaskInstance,
    optimize_plan,
    predict_makespan,
    random_plan,
    validate_plan,
)
from tandem.simulator import program_from_plan
from tandem.store import Store

H, R = AgentId.HUMAN, AgentId.ROBOT
BOTH = frozenset({H, R})


def _pair_domain(n_pairs=2, eligible=BOTH):
    instances = []
    precedence = []
    for k in range(n_pairs):
        instances.append(TaskInstance(f"pick{k}", f"pick{k}", eligible))
        instances.append(TaskInstance(f"place{k}", f"place{k}", eligible))
        precedence.append((f"pick{k}", f"place{k}"))
    return PlanningDomain(tuple(instances), tuple(precedence))


def _uniform_stats(domain, mean=10.0):
    out = {}
    for inst in domain.instances:
        for agent in inst.eligible:
            out[(inst.spec_id, agent)] = DurationStats(inst.spec_id, agent, mean, 0.0, 5)
    return out


class TestDomain:
    def test_rejects_duplicate_uids(self):
        with pytest.raises(ValueError):
            PlanningDomain(
                (TaskInstance("a", "t", BOTH), TaskInstance("a", "t", BOTH)), ()
            )

    def test_rejects_unknown_precedence(self):
        with pytest.raises(ValueError):
            PlanningDomain((TaskInstance("a", "t", BOTH),), (("a", "ghost"),))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="^'b' appears more than once in the precedence pairs$"):
            PlanningDomain(
                (TaskInstance("a", "t", BOTH), TaskInstance("b", "t", BOTH)),
                (("a", "b"), ("b", "a")),
            )

    # Precedence pairs are disjoint: a uid in two pairs, or twice in one, is rejected.
    @pytest.mark.parametrize(
        "precedence, uid",
        [
            ((("a", "b"), ("b", "c")), "b"),
            ((("a", "b"), ("a", "c")), "a"),
            ((("a", "a"),), "a"),
        ],
        ids=["chain", "shared_prerequisite", "self_pair"],
    )
    def test_rejects_a_uid_in_more_than_one_pair(self, precedence, uid):
        instances = tuple(TaskInstance(u, "t", BOTH) for u in "abc")
        with pytest.raises(ValueError, match=f"^'{uid}' appears more than once in the precedence pairs$"):
            PlanningDomain(instances, precedence)


class TestRandomPlan:
    def test_forced_assignment(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset({R})),), ())
        for seed in range(20):
            assert random_plan(domain, seed).assignment["a"] is R

    def test_assignment_is_roughly_uniform(self):
        domain = PlanningDomain((TaskInstance("a", "t", BOTH),), ())
        humans = sum(random_plan(domain, seed).assignment["a"] is H for seed in range(1000))
        assert 450 <= humans <= 550

    def test_pick_always_precedes_place(self):
        domain = _pair_domain(3)
        for seed in range(100):
            plan = random_plan(domain, seed)
            validate_plan(domain, plan)
            linear = {
                uid: (agent, i)
                for agent in AgentId
                for i, uid in enumerate(plan.order[agent])
            }
            for k in range(3):
                pick_agent, pick_pos = linear[f"pick{k}"]
                place_agent, place_pos = linear[f"place{k}"]
                if pick_agent is place_agent:
                    assert pick_pos < place_pos

    def test_every_plan_is_well_formed(self):
        domain = _pair_domain(4)
        for seed in range(50):
            plan = random_plan(domain, seed)
            # Independent checks: exactly-one assignment, eligibility, coverage.
            assert set(plan.assignment) == {inst.uid for inst in domain.instances}
            for inst in domain.instances:
                assert plan.assignment[inst.uid] in inst.eligible
            ordered = sorted(uid for agent in AgentId for uid in plan.order[agent])
            assert ordered == sorted(plan.assignment)

    def test_infeasible_domain(self):
        with pytest.raises(InfeasibleDomain):
            PlanningDomain((TaskInstance("a", "t", frozenset()),), ())

    def test_infeasible_domain_names_the_first_such_task(self):
        with pytest.raises(InfeasibleDomain, match="^task 'b' has no eligible agent$"):
            PlanningDomain(
                tuple(TaskInstance(uid, "t", eligible) for uid, eligible in
                      (("a", BOTH), ("b", frozenset()), ("c", frozenset()))),
                (),
            )

    def test_single_agent_tasks_take_no_draw(self):
        flexible = make_world_config({"tasks": {t: {"agent": ["human", "robot"]} for t in _BLUE_TASKS}})
        for domain in (build_domain(load_world_config()), build_domain(flexible)):
            for seed in range(1000):
                assert random_plan(domain, seed) == _drawing_random_plan(domain, seed)
        rng = np.random.default_rng(7)
        for seed in range(1000):
            domain, _, _ = _random_problem(rng)
            assert random_plan(domain, seed) == _drawing_random_plan(domain, seed)


_BLUE_TASKS = ("pick_blue_h", "place_blue_h", "pick_blue_r", "place_blue_r")


def _drawing_random_plan(domain, seed):
    """random_plan with one draw per task, one eligible agent or more."""
    rng = np.random.default_rng(seed)
    assignment = {
        inst.uid: choices[int(rng.integers(len(choices)))]
        for inst, choices in zip(domain.instances, domain._eligible_by_value)
    }
    linear = planner_mod._random_linearization(domain, rng)
    order = {agent: tuple(u for u in linear if assignment[u] is agent) for agent in AgentId}
    return CandidatePlan(assignment=assignment, order=order)


# validate_plan, the prediction and the simulator's program run the same plan check.
_PLAN_CHECKS = (
    predict_makespan,
    lambda domain, plan, *_: validate_plan(domain, plan),
    lambda domain, plan, *_: program_from_plan(domain, plan),
)


class TestPredictMakespan:
    def test_neutral_synergy_equals_max_of_nominal_sums(self, default_config):
        domain = build_domain(default_config)
        stats = {}
        for inst in domain.instances:
            agent = next(iter(inst.eligible))
            stats[(inst.spec_id, agent)] = DurationStats(
                inst.spec_id, agent, default_config.tasks[inst.spec_id].base_duration, 0.0, 5
            )
        spec_of = {inst.uid: inst.spec_id for inst in domain.instances}
        for seed in range(20):
            plan = random_plan(domain, seed)
            sums = {
                agent: math.fsum(
                    stats[(spec_of[uid], agent)].mean
                    for uid in plan.order[agent]
                )
                for agent in AgentId
            }
            predicted = predict_makespan(domain, plan, stats, SynergyMatrix())
            assert predicted == pytest.approx(max(sums.values()), abs=1e-9)

    def test_coupled_task_reaches_fixed_point(self):
        # Robot task r (10 s) fully under a longer human task with s=2 stretches
        # to 20 s, so the neutral 10 s robot task after it ends at 30 s, past
        # the human's 25 s.
        domain = PlanningDomain(
            (
                TaskInstance("r", "r_task", frozenset({R})),
                TaskInstance("r2", "r2_task", frozenset({R})),
                TaskInstance("h", "h_task", frozenset({H})),
            ),
            (),
        )
        stats = stats_table(
            [
                DurationStats("r_task", R, 10.0, 0.0, 5),
                DurationStats("r2_task", R, 10.0, 0.0, 5),
                DurationStats("h_task", H, 25.0, 0.0, 5),
            ]
        )
        synergy = SynergyMatrix({R: {("r_task", "h_task"): SynergyEntry(2.0, 0.0, 5)}})
        plan = CandidatePlan(
            assignment={"r": R, "r2": R, "h": H}, order={H: ("h",), R: ("r", "r2")}
        )
        assert predict_makespan(domain, plan, stats, synergy) == pytest.approx(30.0, abs=1e-6)

    def test_empty_plan(self):
        domain = PlanningDomain((), ())
        plan = CandidatePlan(assignment={}, order={H: (), R: ()})
        assert predict_makespan(domain, plan, {}, SynergyMatrix()) == 0.0

    def test_missing_duration(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset({R})),), ())
        plan = CandidatePlan(assignment={"a": R}, order={H: (), R: ("a",)})
        with pytest.raises(MissingDuration):
            predict_makespan(domain, plan, {}, SynergyMatrix())

    def test_missing_duration_names_the_agent_value(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset({R})),), ())
        plan = CandidatePlan(assignment={"a": R}, order={H: (), R: ("a",)})
        with pytest.raises(MissingDuration) as err:
            predict_makespan(domain, plan, {}, SynergyMatrix())
        assert str(err.value) == "no duration statistics for task 't' for agent robot"

    def test_missing_duration_names_the_first_domain_instance(self):
        # The human lane's slots come first, yet the error follows domain order.
        domain = PlanningDomain(
            (TaskInstance("a", "r_task", frozenset({R})), TaskInstance("b", "h_task", frozenset({H})))
        )
        plan = CandidatePlan(assignment={"a": R, "b": H}, order={H: ("b",), R: ("a",)})
        with pytest.raises(MissingDuration, match="^no duration statistics for task 'r_task'"):
            predict_makespan(domain, plan, {}, SynergyMatrix())

    def test_cross_agent_precedence_adds_wait(self):
        domain = PlanningDomain(
            (
                TaskInstance("pick", "t", frozenset({R})),
                TaskInstance("place", "t", frozenset({H})),
            ),
            (("pick", "place"),),
        )
        stats = {
            ("t", R): DurationStats("t", R, 10.0, 0.0, 5),
            ("t", H): DurationStats("t", H, 4.0, 0.0, 5),
        }
        plan = CandidatePlan(
            assignment={"pick": R, "place": H}, order={H: ("place",), R: ("pick",)}
        )
        assert predict_makespan(domain, plan, stats, SynergyMatrix()) == pytest.approx(14.0)

    @pytest.mark.parametrize("agent", [H, R], ids=["human", "robot"])
    def test_one_agent_plan_costs_its_lane_sum(self, agent):
        # With the other lane empty nothing overlaps, so synergy leaves every
        # mean as it is, and the makespan is the lane's last end while the
        # empty lane reads the 0.0 of the end sentinel.
        domain = _pair_domain(3)
        stats = {
            (inst.spec_id, a): DurationStats(inst.spec_id, a, 1.7 + 0.9 * k + (a is R), 0.0, 5)
            for k, inst in enumerate(domain.instances)
            for a in (H, R)
        }
        specs = [inst.spec_id for inst in domain.instances]
        synergy = SynergyMatrix({
            a: {(own, other): SynergyEntry(2.5) for own in specs for other in specs} for a in (H, R)
        })
        lane = ("pick2", "pick0", "place0", "pick1", "place2", "place1")
        plan = CandidatePlan(
            assignment={uid: agent for uid in lane}, order={agent: lane, agent.counterpart: ()}
        )
        total = 0.0
        for uid in lane:
            total += stats[(uid, agent)].mean
        assert predict_makespan(domain, plan, stats, synergy) == total

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "MAX_FIXED_POINT_ITERATIONS", 1)
        domain = _pair_domain(1, eligible=frozenset({R}))
        stats = _uniform_stats(domain)
        plan = random_plan(domain, 0)
        with pytest.raises(NonConvergence):
            predict_makespan(domain, plan, stats, SynergyMatrix())

    @pytest.mark.parametrize(
        "robot_lane, human_lane, message",
        [
            (("a",), (), "'b' appears in no ordering"),
            (("a", "b", "a"), (), "'a' appears more than once"),
            (("a", "b"), ("b",), "'b' ordered under human but assigned elsewhere"),
            (("a", "b", "c"), (), "'c' in the robot ordering is not a domain task"),
            (("a", "b"), (), "assignment does not cover the domain's instances exactly"),
        ],
        ids=["left_out", "listed_twice", "in_the_other_lane", "unknown", "assigns_unknown"],
    )
    def test_rejects_malformed_orderings(self, robot_lane, human_lane, message):
        domain = PlanningDomain(
            (TaskInstance("a", "t", BOTH), TaskInstance("b", "t", BOTH)), ()
        )
        stats = _uniform_stats(domain, mean=10.0)
        plan = CandidatePlan(
            assignment={"a": R, "b": R, "c": R}, order={H: human_lane, R: robot_lane}
        )
        for check in _PLAN_CHECKS:
            with pytest.raises(InvalidProgram, match=message):
                check(domain, plan, stats, SynergyMatrix())

    def test_rejects_ineligible_agent(self):
        domain = PlanningDomain(
            (TaskInstance("a", "t", frozenset({H})), TaskInstance("b", "t", BOTH)), ()
        )
        stats = _uniform_stats(domain, mean=10.0)
        plan = CandidatePlan(assignment={"a": R, "b": R}, order={H: (), R: ("a", "b")})
        for check in _PLAN_CHECKS:
            with pytest.raises(InvalidProgram, match="'a' assigned to ineligible agent robot"):
                check(domain, plan, stats, SynergyMatrix())

    def test_rejects_same_lane_precedence_violation(self):
        domain = _pair_domain(1)
        plan = CandidatePlan(
            assignment={"pick0": R, "place0": R}, order={H: (), R: ("place0", "pick0")}
        )
        for check in _PLAN_CHECKS:
            with pytest.raises(InvalidProgram, match="deadlock"):
                check(domain, plan, _uniform_stats(domain), SynergyMatrix())

    def test_relabeling_tasks_does_not_change_the_cost(self):
        def build(prefix):
            instances = (
                TaskInstance(f"{prefix}a", "spec_x", frozenset({R})),
                TaskInstance(f"{prefix}b", "spec_y", frozenset({H})),
                TaskInstance(f"{prefix}c", "spec_x", frozenset({R})),
            )
            domain = PlanningDomain(instances, ((f"{prefix}a", f"{prefix}c"),))
            plan = CandidatePlan(
                assignment={f"{prefix}a": R, f"{prefix}b": H, f"{prefix}c": R},
                order={H: (f"{prefix}b",), R: (f"{prefix}a", f"{prefix}c")},
            )
            return domain, plan

        stats = stats_table(
            [DurationStats("spec_x", R, 9.0, 0.0, 3), DurationStats("spec_y", H, 21.0, 0.0, 3)]
        )
        synergy = SynergyMatrix({R: {("spec_x", "spec_y"): SynergyEntry(1.7, 0.0, 4)}})
        costs = [
            predict_makespan(*build(prefix), stats, synergy) for prefix in ("", "zz_", "m")
        ]
        assert costs[0] == costs[1] == costs[2]


def _prerequisite_sets(domain):
    """Each uid's prerequisite uids, from the precedence pairs."""
    prereq = {inst.uid: set() for inst in domain.instances}
    for before, after in domain.precedence:
        prereq[after].add(before)
    return prereq


def _serial_schedule(lanes, prereq, durations):
    """Reference dispatch: rediscovers the order in every round."""
    index = [0, 0]
    free_at = [0.0, 0.0]
    intervals = {}
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


def _coupled_durations(means, intervals, coeff):
    """Reference coupled cost: every task against every counterpart task."""
    durations = {}
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


def _reference_makespan(domain, plan, stats, synergy):
    """The all-pairs O(n_h * n_r) fixed point that predict_makespan must equal bit for bit."""
    spec_of = {inst.uid: inst.spec_id for inst in domain.instances}
    means = {
        inst.uid: stats[(inst.spec_id, plan.assignment[inst.uid])].mean
        for inst in domain.instances
    }
    lanes = (plan.order.get(H, ()), plan.order.get(R, ()))
    prereq = _prerequisite_sets(domain)
    coeff = {}
    for agent, own_lane, other_lane in ((H, lanes[0], lanes[1]), (R, lanes[1], lanes[0])):
        for uid in own_lane:
            coeff[uid] = [
                (other, synergy.get(agent, spec_of[uid], spec_of[other]).coefficient)
                for other in other_lane
            ]
    durations = dict(means)
    previous = None
    for _ in range(planner_mod.MAX_FIXED_POINT_ITERATIONS):
        intervals = _serial_schedule(lanes, prereq, durations)
        makespan = max(end for _, end in intervals.values())
        if previous is not None and abs(makespan - previous) < planner_mod.MAKESPAN_TOL:
            finish = [0.0, 0.0]
            for li, lane in enumerate(lanes):
                for uid in lane:
                    finish[li] = max(finish[li], intervals[uid][1])
            return max(finish)
        previous = makespan
        durations = _coupled_durations(means, intervals, coeff)
    raise NonConvergence("reference did not settle")


def _random_problem(rng, coefficients=(0.3, 3.0)):
    """Pick/place pairs and free tasks over a few specs, eligible to one or both agents.

    Half the specs get whole-second means, so many intervals touch end to start.
    """
    n_specs = int(rng.integers(1, 6))
    eligibility = (frozenset({H}), frozenset({R}), BOTH)

    def instance(uid):
        spec = f"s{int(rng.integers(n_specs))}"
        return TaskInstance(uid, spec, eligibility[int(rng.integers(3))])

    instances, precedence = [], []
    for k in range(int(rng.integers(1, 7))):
        instances += [instance(f"pick{k}"), instance(f"place{k}")]
        precedence.append((f"pick{k}", f"place{k}"))
    instances += [instance(f"free{k}") for k in range(int(rng.integers(0, 4)))]
    stats = {}
    for k in range(n_specs):
        for agent in AgentId:
            mean = float(rng.integers(1, 6)) if k % 2 else float(rng.uniform(0.5, 20.0))
            stats[(f"s{k}", agent)] = DurationStats(f"s{k}", agent, mean, 0.0, 3)
    low, high = coefficients
    entries = {
        agent: {
            (f"s{i}", f"s{j}"): SynergyEntry(float(np.exp(rng.uniform(np.log(low), np.log(high)))))
            for i in range(n_specs)
            for j in range(n_specs)
            if rng.random() < 0.7
        }
        for agent in AgentId
    }
    return PlanningDomain(tuple(instances), tuple(precedence)), stats, SynergyMatrix(entries)


def _outcome(predict, *args):
    try:
        return predict(*args)
    except NonConvergence:
        return "NonConvergence"


class TestKernelMatchesReference:
    def test_bit_identical_to_all_pairs_fixed_point(self, monkeypatch):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for i in range(400):
            domain, stats, synergy = _random_problem(rng)
            plan = random_plan(domain, seed=i)
            # A low round cap on every fourth plan makes NonConvergence
            # common, and both must stop after the same round.
            cap = int(rng.integers(2, 12)) if i % 4 == 0 else 100
            monkeypatch.setattr(planner_mod, "MAX_FIXED_POINT_ITERATIONS", cap)
            args = (domain, plan, stats, synergy)
            want = _outcome(_reference_makespan, *args)
            assert _outcome(predict_makespan, *args) == want
            outcomes.add(type(want))
        assert outcomes == {float, str}  # both converged and non-convergent plans were checked

    def test_every_round_stays_positive_at_the_coefficient_floor(self, monkeypatch):
        # Coefficients down to the floor shrink covered tasks the most, yet
        # every round's durations stay positive, so the merge's lanes stay
        # start-sorted, and each round equals the all-pairs scan.
        sweep = planner_mod.coupled_lane_durations
        smallest = [1.0]  # the smallest duration seen, as a fraction of its mean

        def checked(means, rows, starts, ends, n_human):
            slots = range(len(means))
            human, robot = slots[:n_human], slots[n_human:]
            intervals = {k: (starts[k], ends[k]) for k in slots}
            coeff = {k: list(zip(robot if k in human else human, rows[k])) for k in slots}
            want = _coupled_durations(dict(zip(slots, means)), intervals, coeff)
            got = sweep(means, rows, starts, ends, n_human)
            assert got == [want[k] for k in slots]
            assert min(got, default=1.0) > 0.0
            smallest[0] = min([smallest[0], *(d / m for d, m in zip(got, means))])
            return got

        monkeypatch.setattr(planner_mod, "coupled_lane_durations", checked)
        rng = np.random.default_rng(2025)
        for i in range(400):
            domain, stats, synergy = _random_problem(rng, coefficients=(COEFFICIENT_FLOOR, 3.0))
            plan = random_plan(domain, seed=i)
            args = (domain, plan, stats, synergy)
            assert _outcome(predict_makespan, *args) == _outcome(_reference_makespan, *args)
        assert smallest[0] < 1e-5  # some round priced a task close to the floor


# Coefficient levels for the cutoff tests: the floor, below 1, neutral,
# above 1 and large.
COEFFICIENT_LEVELS = (COEFFICIENT_FLOOR, 0.05, 0.4, 0.9, 1.0, 1.3, 3.0, 50.0)


def _leveled_synergy(rng, specs):
    """A matrix whose coefficients come from a random subset of COEFFICIENT_LEVELS.

    Some subsets hold no level below 1, so both kinds of lower factor occur.
    """
    levels = rng.choice(COEFFICIENT_LEVELS, size=int(rng.integers(1, 4)), replace=False)
    return SynergyMatrix({
        agent: {
            (own, other): SynergyEntry(float(rng.choice(levels)))
            for own in specs
            for other in specs
            if rng.random() < 0.7
        }
        for agent in AgentId
    })


class TestCutoff:
    def test_bounds_only_plans_that_cost_strictly_more(self, monkeypatch):
        """Against the uncut outcome of each plan, for cutoffs at, just below and under its cost.

        Bounds are counted apart for matrices whose lower factors are all
        1.0 and for those with one below 1.
        """
        rng = np.random.default_rng(7)
        bounded = {"exact": 0, "below one": 0}
        for i in range(150):
            domain, stats, _ = _random_problem(rng)
            synergy = _leveled_synergy(rng, sorted({inst.spec_id for inst in domain.instances}))
            # A low round cap on every fourth problem makes NonConvergence common.
            cap = int(rng.integers(2, 8)) if i % 4 == 0 else 100
            monkeypatch.setattr(planner_mod, "MAX_FIXED_POINT_ITERATIONS", cap)
            plans = [random_plan(domain, seed=[i, k]) for k in range(4)]
            uncut = [_outcome(predict_makespan, domain, plan, stats, synergy) for plan in plans]
            costs = [cost for cost in uncut if cost != "NonConvergence"]
            for plan, cost in zip(plans, uncut):
                cutoffs = [math.inf, *costs]
                if cost != "NonConvergence":
                    cutoffs += [math.nextafter(cost, -math.inf), cost / 2]
                for cutoff in cutoffs:
                    got = _outcome(predict_makespan, domain, plan, stats, synergy, cutoff)
                    if got != math.inf:
                        assert got == cost
                        assert got == "NonConvergence" or got.hex() == cost.hex()
                        continue
                    # Only a plan that costs strictly more, or that would not
                    # converge, is bounded out; cutoff == cost never is.
                    assert cost == "NonConvergence" or cost > cutoff
                    factors = [f for table in synergy.lower_factors.values() for f in table.values()]
                    bounded["below one" if min(factors, default=1.0) < 1.0 else "exact"] += 1
        assert min(bounded.values()) > 20


def _brute_force_plans(domain):
    """Independent exhaustive enumeration of assignments and interleavings."""
    uids = [inst.uid for inst in domain.instances]
    prereq = _prerequisite_sets(domain)

    def linearizations(done, acc):
        if len(acc) == len(uids):
            yield tuple(acc)
            return
        for uid in uids:
            if uid not in done and prereq[uid] <= done:
                yield from linearizations(done | {uid}, acc + [uid])

    eligible = [sorted(inst.eligible, key=lambda a: a.value) for inst in domain.instances]
    for combo in itertools.product(*eligible):
        assignment = dict(zip(uids, combo))
        for linear in linearizations(set(), []):
            order = {
                agent: tuple(u for u in linear if assignment[u] is agent)
                for agent in AgentId
            }
            yield CandidatePlan(assignment=assignment, order=order)


def _record_predictions(monkeypatch):
    """The plans that planner.predict_makespan is called with, in call order."""
    predict = planner_mod.predict_makespan
    evaluated = []

    def recording(domain, plan, *args):
        evaluated.append(plan)
        return predict(domain, plan, *args)

    monkeypatch.setattr(planner_mod, "predict_makespan", recording)
    return evaluated


def _brute_force_optimum(domain, stats, synergy):
    return min(predict_makespan(domain, plan, stats, synergy) for plan in _brute_force_plans(domain))


class TestOptimizePlan:
    def test_single_feasible_plan(self):
        domain = PlanningDomain(
            (
                TaskInstance("a", "ta", frozenset({R})),
                TaskInstance("b", "tb", frozenset({H})),
            ),
            (("a", "b"),),
        )
        stats = _uniform_stats(domain)
        plan = optimize_plan(domain, stats, SynergyMatrix(), budget=10)
        assert plan.assignment == {"a": R, "b": H}

    def test_exhaustive_matches_brute_force(self):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        synergy = SynergyMatrix(
            {
                R: {("pick0", "pick1"): SynergyEntry(3.0, 0.0, 5)},
                H: {("pick1", "pick0"): SynergyEntry(3.0, 0.0, 5)},
            }
        )
        best = optimize_plan(domain, stats, synergy, budget=50_000)
        oracle = _brute_force_optimum(domain, stats, synergy)
        assert best.predicted_makespan == pytest.approx(oracle, abs=1e-9)

    def test_budget_one_returns_a_valid_plan(self):
        domain = _pair_domain(3)
        stats = _uniform_stats(domain)
        plan = optimize_plan(domain, stats, SynergyMatrix(), budget=1)
        validate_plan(domain, plan)
        assert plan.predicted_makespan is not None

    def test_never_worse_than_its_own_candidates(self):
        domain = _pair_domain(3)
        stats = _uniform_stats(domain)
        synergy = SynergyMatrix(
            {R: {("pick0", "pick2"): SynergyEntry(2.5, 0.0, 5)}}
        )
        budget, seed = 40, 11
        best = optimize_plan(domain, stats, synergy, budget=budget, seed=seed)
        for i in range(budget):
            candidate = random_plan(domain, seed=[seed, i])
            cost = predict_makespan(domain, candidate, stats, synergy)
            assert best.predicted_makespan <= cost + 1e-12

    def test_beats_separate_random_search(self):
        # A bad coupling that one assignment avoids entirely: the optimizer
        # must do at least as well as a 1000-sample random search.
        domain = PlanningDomain(
            (
                TaskInstance("x", "tx", BOTH),
                TaskInstance("y", "ty", BOTH),
            ),
            (),
        )
        stats = _uniform_stats(domain)
        synergy = SynergyMatrix(
            {
                R: {("tx", "ty"): SynergyEntry(4.0, 0.0, 9)},
                H: {("ty", "tx"): SynergyEntry(4.0, 0.0, 9)},
            }
        )
        best = optimize_plan(domain, stats, synergy, budget=10_000, seed=0)
        oracle = min(
            predict_makespan(domain, random_plan(domain, seed=[99, i]), stats, synergy)
            for i in range(1000)
        )
        assert best.predicted_makespan <= oracle + 1e-12

    @pytest.mark.parametrize("budget", [1000, 30], ids=["exhaustive", "sampled"])
    def test_ties_break_on_the_smallest_key(self, budget):
        # Neutral synergy and one mean for every task: many candidates tie.
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        seed = 4
        if budget >= 96:  # 16 assignments x 6 interleavings
            candidates = list(_brute_force_plans(domain))
        else:
            candidates = [random_plan(domain, seed=[seed, i]) for i in range(budget)]
        costs = [predict_makespan(domain, plan, stats, SynergyMatrix()) for plan in candidates]
        tied = [plan for plan, cost in zip(candidates, costs) if cost == min(costs)]
        assert len({str(plan) for plan in tied}) > 1

        def key(plan):
            assignment = tuple(plan.assignment[inst.uid].value for inst in domain.instances)
            return assignment, tuple(plan.order[agent] for agent in AgentId)

        expected = min(tied, key=key)
        best = optimize_plan(domain, stats, SynergyMatrix(), budget=budget, seed=seed)
        assert (best.assignment, best.order) == (expected.assignment, expected.order)
        assert best.predicted_makespan == min(costs)

    @pytest.mark.parametrize("budget", [96, 95], ids=["enumerates", "samples"])
    def test_exhaustive_at_exactly_the_plan_count(self, monkeypatch, budget):
        # 16 assignments x 4!/2^2 interleavings = 96 bound the plan space.
        domain = _pair_domain(2)
        evaluated = _record_predictions(monkeypatch)
        optimize_plan(domain, _uniform_stats(domain), SynergyMatrix(), budget=budget, seed=2)
        if budget == 96:
            # The 96 interleaved orders are 52 distinct plans, each evaluated once.
            key = functools.partial(planner_mod._plan_key, domain)
            distinct = set(map(key, _brute_force_plans(domain)))
            assert len(distinct) == 52
            assert sorted(map(key, evaluated)) == sorted(distinct)
        else:
            assert evaluated == [random_plan(domain, seed=[2, i]) for i in range(95)]

    def test_exhaustive_is_the_brute_force_minimum(self):
        # Random small domains: up to two pairs and two single tasks.
        rng = random.Random(31)
        eligible = (frozenset({H}), frozenset({R}), BOTH)
        specs = ("t0", "t1", "t2")
        converged = 0
        for _ in range(30):
            instances, precedence = [], []
            for k in range(rng.randint(0, 2)):
                for uid in (f"pick{k}", f"place{k}"):
                    instances.append(TaskInstance(uid, rng.choice(specs), rng.choice(eligible)))
                precedence.append((f"pick{k}", f"place{k}"))
            for k in range(rng.randint(0, 2)):
                instances.append(TaskInstance(f"single{k}", rng.choice(specs), rng.choice(eligible)))
            rng.shuffle(instances)
            domain = PlanningDomain(tuple(instances), tuple(precedence))
            stats = {
                (spec, agent): DurationStats(spec, agent, rng.uniform(2.0, 12.0), 0.0, 5)
                for spec in specs
                for agent in AgentId
            }
            synergy = SynergyMatrix({
                agent: {
                    (own, other): SynergyEntry(rng.choice([COEFFICIENT_FLOOR, rng.uniform(0.2, 3.0)]))
                    for own in specs
                    for other in specs
                }
                for agent in AgentId
            })
            priced = [
                (_outcome(predict_makespan, domain, plan, stats, synergy), planner_mod._plan_key(domain, plan))
                for plan in _brute_force_plans(domain)
            ]
            priced = [outcome for outcome in priced if outcome[0] != "NonConvergence"]
            if not priced:
                with pytest.raises(NonConvergence):
                    optimize_plan(domain, stats, synergy, budget=100_000)
                continue
            converged += 1
            best = optimize_plan(domain, stats, synergy, budget=100_000)
            assert (best.predicted_makespan, planner_mod._plan_key(domain, best)) == min(priced)
        assert converged > 20

    def test_three_pair_workcell_prices_15_distinct_plans(self, monkeypatch):
        # pick_blue_h eligible to both agents: 2 x 6!/2^3 = 180 interleaved orders.
        config = make_world_config({
            "tasks": {"pick_blue_h": {"agent": ["human", "robot"]}},
            "process": [
                {"pick": f"pick_{color}", "place": f"place_{color}", "count": 1, "color": color}
                for color in ("orange", "white")
            ] + [{"pick": "pick_blue_h", "place": "place_blue_h", "count": 1, "color": "blue"}],
        })
        domain = build_domain(config)
        assert len(list(_brute_force_plans(domain))) == 180
        evaluated = _record_predictions(monkeypatch)
        optimize_plan(domain, _uniform_stats(domain), SynergyMatrix(), budget=300)
        key = functools.partial(planner_mod._plan_key, domain)
        assert len(evaluated) == len(set(map(key, evaluated))) == 15

    def test_deterministic_result(self):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        first = optimize_plan(domain, stats, SynergyMatrix(), budget=100, seed=5)
        second = optimize_plan(domain, stats, SynergyMatrix(), budget=100, seed=5)
        assert first == second

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            optimize_plan(_pair_domain(1), {}, SynergyMatrix(), budget=0)

    def test_infeasible_domain(self):
        with pytest.raises(InfeasibleDomain):
            PlanningDomain((TaskInstance("a", "t", frozenset()),), ())

    def test_skips_candidates_without_durations(self):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        del stats[("pick1", R)]
        for budget in (4, 50_000):  # random search, then exhaustive
            plan = optimize_plan(domain, stats, SynergyMatrix(), budget=budget, seed=3)
            assert plan.assignment["pick1"] is H
            assert plan.predicted_makespan is not None

    def test_missing_duration_when_no_candidate_has_durations(self):
        domain = _pair_domain(1, eligible=frozenset({R}))
        stats = _uniform_stats(domain)
        del stats[("place0", R)]
        with pytest.raises(MissingDuration, match="'place0' for agent robot"):
            optimize_plan(domain, stats, SynergyMatrix(), budget=5)

    def test_empty_domain(self):
        plan = optimize_plan(PlanningDomain((), ()), {}, SynergyMatrix(), budget=1)
        assert plan == CandidatePlan(assignment={}, order={H: (), R: ()}, predicted_makespan=0.0)

    def test_warns_once_with_skip_counts(self, monkeypatch, caplog):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        del stats[("pick1", R)]
        predict = planner_mod.predict_makespan
        calls = []
        bounded = []

        def every_third_fails(*args):
            # The cutoff comes positionally, after the four arguments.
            assert len(args) == 5
            calls.append(1)
            if len(calls) % 3 == 0:
                raise NonConvergence("forced")
            cost = predict(*args)
            if cost == math.inf:
                bounded.append(1)
            return cost

        monkeypatch.setattr(planner_mod, "predict_makespan", every_third_fails)
        with caplog.at_level(logging.WARNING, logger="tandem.planner"):
            optimize_plan(domain, stats, SynergyMatrix(), budget=30, seed=3)
        lacking = sum(
            random_plan(domain, seed=[3, i]).assignment["pick1"] is R
            for i in range(30)
            if (i + 1) % 3
        )
        assert lacking > 0 and bounded
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"skipped {10 + lacking} of 30 candidates: "
            f"10 did not converge, {lacking} lack duration statistics; "
            f"{len(bounded)} more were bounded out unpriced"
        )

    def test_no_warning_when_nothing_is_skipped(self, caplog):
        domain = _pair_domain(2)
        with caplog.at_level(logging.WARNING, logger="tandem.planner"):
            optimize_plan(domain, _uniform_stats(domain), SynergyMatrix(), budget=30)
        assert caplog.records == []


FLEXIBLE_WORKCELL = Path(__file__).resolve().parents[1] / "perfbench" / "flexible.yaml"

# SHA-256 of the 400 outcomes below, recorded while the sweep restarted its
# robot-lane scan for every human task.
GOLDEN_PREDICTIONS_SHA256 = "146f2e8f8dfd286b2c72b1ef7629f000aa57f98b548357984cb14b09e3431081"


def _stdlib_candidate(domain, rng):
    """A valid plan drawn with random.Random: an eligible agent each, then a ready task at a time."""
    assignment = {
        inst.uid: rng.choice(sorted(inst.eligible, key=lambda a: a.value))
        for inst in domain.instances
    }
    prereq = _prerequisite_sets(domain)
    remaining, done, linear = sorted(prereq), set(), []
    while remaining:
        pick = rng.choice([uid for uid in remaining if prereq[uid] <= done])
        remaining.remove(pick)
        done.add(pick)
        linear.append(pick)
    order = {agent: tuple(uid for uid in linear if assignment[uid] is agent) for agent in AgentId}
    return CandidatePlan(assignment=assignment, order=order)


def test_predictions_match_the_recorded_golden_hash():
    """200 random candidates per workcell, priced under synthetic estimates from random.Random.

    The hash covers float.hex of every converged makespan and "NC" for each
    candidate that did not converge, so any change of a single bit shows.
    """
    rng = random.Random(20240917)
    digest = hashlib.sha256()
    outcomes = []
    for config in (load_world_config(), load_world_config(FLEXIBLE_WORKCELL)):
        domain = build_domain(config)
        specs = sorted({inst.spec_id for inst in domain.instances})
        stats = {
            (spec, agent): DurationStats(spec, agent, rng.uniform(2.0, 15.0), 0.0, 5)
            for spec in specs
            for agent in AgentId
        }
        synergy = SynergyMatrix({
            agent: {
                (own, other): SynergyEntry(rng.uniform(0.2, 3.0))
                for own in specs
                for other in specs
                if rng.random() < 0.8
            }
            for agent in AgentId
        })
        for _ in range(200):
            outcome = _outcome(predict_makespan, domain, _stdlib_candidate(domain, rng), stats, synergy)
            outcomes.append(outcome)
            digest.update(("NC" if outcome == "NonConvergence" else outcome.hex()).encode() + b"\n")
    assert "NonConvergence" in outcomes and len(set(outcomes)) > 300
    assert digest.hexdigest() == GOLDEN_PREDICTIONS_SHA256


# SHA-256 of the 2,000 plans below, recorded while random_plan drew one
# scalar per task that both agents may run.
GOLDEN_SAMPLES_SHA256 = "e2dccfb40bd26702267d911bcee092c8400d7b56539eaebbb1b3156c3c1be5e9"


def test_sampled_plans_match_the_recorded_golden_hash():
    """random_plan(domain, seed=[s, i]) for s < 5 and i < 200 on both workcells.

    The sampled search draws its candidates with seeds of this form, and
    simulate its plans with random_plan too, so any change to the sampling
    stream shows here.  Each plan hashes as its agents in domain order,
    then the human and robot lanes.
    """
    digest = hashlib.sha256()
    for config in (load_world_config(), load_world_config(FLEXIBLE_WORKCELL)):
        domain = build_domain(config)
        for s in range(5):
            for i in range(200):
                plan = random_plan(domain, seed=[s, i])
                fields = [
                    " ".join(plan.assignment[inst.uid].value for inst in domain.instances),
                    *(" ".join(plan.order[agent]) for agent in AgentId),
                ]
                digest.update(("|".join(fields) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_SAMPLES_SHA256


THREE_PAIRS_WORKCELL = """\
tasks:
  pick_blue_h: {agent: [human, robot]}
process:
  - {pick: pick_orange, place: place_orange, count: 1, color: orange}
  - {pick: pick_white, place: place_white, count: 1, color: white}
  - {pick: pick_blue_h, place: place_blue_h, count: 1, color: blue}
"""


@pytest.mark.parametrize(
    "workcell, budget",
    [("default", 500), ("flexible", 500), ("three_pairs", 300)],
)
def test_search_with_cutoffs_chooses_the_plan_of_a_search_without_them(
    tmp_path, monkeypatch, capsys, workcell, budget
):
    """Estimates from a real campaign; the bounded search against a cutoff-free loop.

    The loop prices the candidates optimize_plan saw, skips those it cannot
    price, and keeps the smallest (cost, plan key): the same tie rule.
    """
    config = {
        "default": None,
        "flexible": FLEXIBLE_WORKCELL,
        "three_pairs": tmp_path / "three_pairs.yaml",
    }[workcell]
    if workcell == "three_pairs":
        config.write_text(THREE_PAIRS_WORKCELL)
    config_args = [] if config is None else ["--config", str(config)]
    store = tmp_path / "store"
    seed = 7000001
    common = ["--store", str(store), "--seed", str(seed), *config_args]
    assert cli.main(["simulate", "--plans", "30", *common]) == 0
    assert cli.main(["estimate", "--store", str(store)]) == 0
    capsys.readouterr()
    stats, synergy = cli._load_estimates(Store(store))
    domain = build_domain(load_world_config(config))

    predict = planner_mod.predict_makespan
    seen, returns = [], []

    def recording(*args):
        seen.append(args[1])
        returns.append(predict(*args))
        return returns[-1]

    monkeypatch.setattr(planner_mod, "predict_makespan", recording)
    best = optimize_plan(domain, stats, synergy, budget=budget, seed=seed)
    monkeypatch.undo()

    if workcell == "three_pairs":
        assert len(seen) == 15  # the exhaustive path
    else:
        assert seen == [random_plan(domain, seed=[seed, i]) for i in range(budget)]
    if workcell == "flexible":
        assert math.inf in returns  # the bound skipped some fixed points
    priced = []
    for plan in seen:
        try:
            cost = predict_makespan(domain, plan, stats, synergy)
        except (NonConvergence, MissingDuration):
            continue
        priced.append((cost, planner_mod._plan_key(domain, plan)))
    cost, key = min(priced)
    assert best.predicted_makespan.hex() == cost.hex()
    assert planner_mod._plan_key(domain, best) == key
