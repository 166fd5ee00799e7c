"""Random plan sampling, makespan prediction, and plan optimization."""

from __future__ import annotations

import itertools
import math

import pytest

import tandem.planner as planner_mod
from tandem.config import build_domain
from tandem.errors import InfeasibleDomain, MissingDuration, NonConvergence
from tandem.model import (
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
    predicted_schedule,
    random_plan,
    validate_plan,
)

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
        with pytest.raises(ValueError):
            PlanningDomain(
                (TaskInstance("a", "t", BOTH), TaskInstance("b", "t", BOTH)),
                (("a", "b"), ("b", "a")),
            )


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
        domain = PlanningDomain((TaskInstance("a", "t", frozenset()),), ())
        with pytest.raises(InfeasibleDomain):
            random_plan(domain, 0)


class TestPredictMakespan:
    def test_neutral_synergy_equals_max_of_nominal_sums(self, default_config):
        domain = build_domain(default_config)
        stats = {}
        for inst in domain.instances:
            agent = next(iter(inst.eligible))
            stats[(inst.spec_id, agent)] = DurationStats(
                inst.spec_id, agent, default_config.tasks[inst.spec_id].base_duration, 0.0, 5
            )
        for seed in range(20):
            plan = random_plan(domain, seed)
            sums = {
                agent: math.fsum(
                    stats[(domain.instance(uid).spec_id, agent)].mean
                    for uid in plan.order[agent]
                )
                for agent in AgentId
            }
            predicted = predict_makespan(domain, plan, stats, SynergyMatrix.neutral())
            assert predicted == pytest.approx(max(sums.values()), abs=1e-9)

    def test_coupled_task_reaches_fixed_point(self):
        # Robot task (10 s) fully under a longer human task with s=2:
        # the robot lane stretches to 20 s while the human still finishes last.
        domain = PlanningDomain(
            (
                TaskInstance("r", "r_task", frozenset({R})),
                TaskInstance("h", "h_task", frozenset({H})),
            ),
            (),
        )
        stats = stats_table(
            [
                DurationStats("r_task", R, 10.0, 0.0, 5),
                DurationStats("h_task", H, 25.0, 0.0, 5),
            ]
        )
        synergy = SynergyMatrix({R: {("r_task", "h_task"): SynergyEntry(2.0, 0.0, 5)}})
        plan = CandidatePlan(assignment={"r": R, "h": H}, order={H: ("h",), R: ("r",)})
        schedule, makespan = predicted_schedule(domain, plan, stats, synergy)
        (robot_task,) = schedule.robot
        assert robot_task.interval.end == pytest.approx(20.0, abs=1e-6)
        assert makespan == pytest.approx(25.0, abs=1e-9)

    def test_empty_plan(self):
        domain = PlanningDomain((), ())
        plan = CandidatePlan(assignment={}, order={H: (), R: ()})
        assert predict_makespan(domain, plan, {}, SynergyMatrix.neutral()) == 0.0

    def test_missing_duration(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset({R})),), ())
        plan = CandidatePlan(assignment={"a": R}, order={H: (), R: ("a",)})
        with pytest.raises(MissingDuration):
            predict_makespan(domain, plan, {}, SynergyMatrix.neutral())

    def test_missing_duration_names_the_agent_value(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset({R})),), ())
        plan = CandidatePlan(assignment={"a": R}, order={H: (), R: ("a",)})
        with pytest.raises(MissingDuration) as err:
            predict_makespan(domain, plan, {}, SynergyMatrix.neutral())
        assert str(err.value) == "no duration statistics for task 't' for agent robot"

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
        assert predict_makespan(domain, plan, stats, SynergyMatrix.neutral()) == pytest.approx(14.0)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "MAX_FIXED_POINT_ITERATIONS", 1)
        domain = _pair_domain(1, eligible=frozenset({R}))
        stats = _uniform_stats(domain)
        plan = random_plan(domain, 0)
        with pytest.raises(NonConvergence):
            predict_makespan(domain, plan, stats, SynergyMatrix.neutral())

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


def _brute_force_optimum(domain, stats, synergy):
    """Independent exhaustive enumeration of assignments and interleavings."""
    uids = [inst.uid for inst in domain.instances]
    prereq = {uid: set() for uid in uids}
    for before, after in domain.precedence:
        prereq[after].add(before)

    def linearizations(done, acc):
        if len(acc) == len(uids):
            yield tuple(acc)
            return
        for uid in uids:
            if uid not in done and prereq[uid] <= done:
                yield from linearizations(done | {uid}, acc + [uid])

    best = math.inf
    eligible = [sorted(inst.eligible, key=lambda a: a.value) for inst in domain.instances]
    for combo in itertools.product(*eligible):
        assignment = dict(zip(uids, combo))
        for linear in linearizations(set(), []):
            order = {
                agent: tuple(u for u in linear if assignment[u] is agent)
                for agent in AgentId
            }
            plan = CandidatePlan(assignment=assignment, order=order)
            best = min(best, predict_makespan(domain, plan, stats, synergy))
    return best


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
        plan = optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=10)
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
        plan = optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=1)
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

    def test_deterministic_result(self):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        first = optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=100, seed=5)
        second = optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=100, seed=5)
        assert first == second

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            optimize_plan(_pair_domain(1), {}, SynergyMatrix.neutral(), budget=0)

    def test_infeasible_domain(self):
        domain = PlanningDomain((TaskInstance("a", "t", frozenset()),), ())
        with pytest.raises(InfeasibleDomain):
            optimize_plan(domain, {}, SynergyMatrix.neutral(), budget=5)

    def test_skips_candidates_without_durations(self):
        domain = _pair_domain(2)
        stats = _uniform_stats(domain)
        del stats[("pick1", R)]
        for budget in (4, 50_000):  # random search, then exhaustive
            plan = optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=budget, seed=3)
            assert plan.assignment["pick1"] is H
            assert plan.predicted_makespan is not None

    def test_missing_duration_when_no_candidate_has_durations(self):
        domain = _pair_domain(1, eligible=frozenset({R}))
        stats = _uniform_stats(domain)
        del stats[("place0", R)]
        with pytest.raises(MissingDuration, match="'place0' for agent robot"):
            optimize_plan(domain, stats, SynergyMatrix.neutral(), budget=5)

    def test_empty_domain(self):
        plan = optimize_plan(PlanningDomain((), ()), {}, SynergyMatrix.neutral(), budget=5)
        assert plan.predicted_makespan == 0.0
