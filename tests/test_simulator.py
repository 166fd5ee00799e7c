"""Workcell simulation: zone scaling, noise, determinism, work conservation."""

from __future__ import annotations

import contextlib
import hashlib
import math
import signal
from pathlib import Path

import numpy as np
import pytest

from tandem.config import (
    DEFAULT_CONFIG,
    ZoneExposureProfile,
    build_domain,
    load_world_config,
    make_world_config,
)
from tandem.errors import InvalidProgram
from tandem.estimator import ExecutionRecord, ExecutionTrace
from tandem.model import AgentId, TimeInterval
from tandem.planner import CandidatePlan, PlanningDomain, TaskInstance, random_plan
from tandem.simulator import (
    AgentProgram,
    program_from_plan,
    sample_task_duration,
    simulate_plan,
)

H, R = AgentId.HUMAN, AgentId.ROBOT


def _workbench(human_region_profile=None, human_base=5.0, robot_base=10.0, cv=0.0):
    """Tiny catalog: one robot job and one human job with a chosen exposure."""
    profile = human_region_profile or {"red": 0.0, "orange": 0.0, "free": 1.0}
    return make_world_config(
        {
            "regions": {"test_zone": profile},
            "tasks": {
                "r_job": {
                    "agent": "robot",
                    "action": "goto",
                    "region": "robot_table",
                    "base_duration": robot_base,
                    "cv": cv,
                },
                "h_job": {
                    "agent": "human",
                    "action": "goto",
                    "region": "test_zone",
                    "base_duration": human_base,
                    "cv": cv,
                },
            },
        }
    )


def _inst(uid, spec_id, agent):
    return TaskInstance(uid, spec_id, frozenset({agent}))


def _lanes_program(sequences, precedence=()):
    """Program of the plan that runs `sequences`; each listed instance is a domain task."""
    instances = {inst.uid: inst for lane in sequences.values() for inst in lane}
    plan = CandidatePlan(
        assignment={inst.uid: agent for agent, lane in sequences.items() for inst in lane},
        order={agent: tuple(inst.uid for inst in lane) for agent, lane in sequences.items()},
    )
    return program_from_plan(PlanningDomain(tuple(instances.values()), tuple(precedence)), plan)


def _program(human_specs=(), robot_specs=(), precedence=()):
    return _lanes_program(
        {
            H: tuple(_inst(f"h{i}", s, H) for i, s in enumerate(human_specs)),
            R: tuple(_inst(f"r{i}", s, R) for i, s in enumerate(robot_specs)),
        },
        precedence,
    )


def _by_agent(trace, agent):
    return [r for r in trace.records if r.agent is agent]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError inside the block after `seconds`, so a loop that stalls fails."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSpeedFactor:
    def test_red_stops_the_robot(self, default_config):
        assert default_config.speed_factors["red"] == 0.0

    def test_orange_halves_speed(self, default_config):
        assert default_config.speed_factors["orange"] == 0.5

    def test_free_is_nominal(self, default_config):
        assert default_config.speed_factors["free"] == 1.0


class TestSampleDuration:
    def test_deterministic_when_cv_zero(self):
        rng = np.random.default_rng(0)
        assert sample_task_duration(10.0, 0.0, rng) == 10.0

    def test_truncated_below(self):
        rng = np.random.default_rng(0)
        draws = [sample_task_duration(10.0, 0.1, rng) for _ in range(1000)]
        assert all(d >= 2.0 for d in draws)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(123)
        draws = [sample_task_duration(10.0, 0.1, rng) for _ in range(10000)]
        assert abs(np.mean(draws) - 10.0) <= 0.1


class TestSimulatePlan:
    def test_robot_alone_takes_base_duration(self):
        cfg = _workbench()
        trace = simulate_plan(_program(robot_specs=["r_job"]), cfg, seed=0)
        (rec,) = trace.records
        assert rec.interval == TimeInterval(0.0, 10.0)

    def test_robot_at_half_speed_doubles(self):
        # Human task 40 s fully in orange; robot's 10 work-seconds take 20 s.
        cfg = _workbench({"red": 0.0, "orange": 1.0, "free": 0.0}, human_base=40.0)
        trace = simulate_plan(
            _program(human_specs=["h_job"], robot_specs=["r_job"]), cfg, seed=0
        )
        (robot_rec,) = _by_agent(trace, R)
        assert robot_rec.interval.end == pytest.approx(20.0, abs=1e-9)

    def test_red_phase_stalls_then_finishes(self):
        # Human in red for the first 5 s, then idle: robot needs 5 + 10 s.
        cfg = _workbench({"red": 1.0, "orange": 0.0, "free": 0.0}, human_base=5.0)
        trace = simulate_plan(
            _program(human_specs=["h_job"], robot_specs=["r_job"]), cfg, seed=0
        )
        (robot_rec,) = _by_agent(trace, R)
        assert robot_rec.interval.end == pytest.approx(15.0, abs=1e-9)

    def test_same_seed_same_trace(self, default_config):
        from tandem.config import build_domain
        from tandem.planner import random_plan

        domain = build_domain(default_config)
        plan = random_plan(domain, seed=9)
        program = program_from_plan(domain, plan)
        first = simulate_plan(program, default_config, seed=77, plan_id="p")
        second = simulate_plan(program, default_config, seed=77, plan_id="p")
        assert first == second
        different = simulate_plan(program, default_config, seed=78, plan_id="p")
        assert different != first

    def test_lanes_keep_program_order_and_do_not_overlap(self, default_config):
        from tandem.config import build_domain
        from tandem.planner import random_plan

        domain = build_domain(default_config)
        spec_of = {inst.uid: inst.spec_id for inst in domain.instances}
        for seed in range(5):
            plan = random_plan(domain, seed=seed)
            program = program_from_plan(domain, plan)
            trace = simulate_plan(program, default_config, seed=seed)
            for agent in (H, R):
                lane = _by_agent(trace, agent)
                expected = [spec_of[uid] for uid in plan.order[agent]]
                assert [r.task_id for r in lane] == expected
                for prev, cur in zip(lane, lane[1:]):
                    assert cur.interval.start >= prev.interval.end - 1e-9

    def test_free_world_keeps_robot_at_base(self, quiet_config):
        from tandem.config import DEFAULT_CONFIG, build_domain, make_world_config
        from tandem.planner import random_plan

        free = {"red": 0.0, "orange": 0.0, "free": 1.0}
        cfg = make_world_config(
            {
                "tasks": {tid: {"cv": 0.0} for tid in quiet_config.tasks},
                "regions": {name: dict(free) for name in DEFAULT_CONFIG["regions"]},
            }
        )
        domain = build_domain(cfg)
        plan = random_plan(domain, seed=3)
        trace = simulate_plan(program_from_plan(domain, plan), cfg, seed=3)
        for rec in _by_agent(trace, R):
            base = cfg.tasks[rec.task_id].base_duration
            assert rec.interval.end - rec.interval.start == pytest.approx(base, abs=1e-9)

    def test_raising_red_exposure_never_speeds_up_the_robot(self):
        def robot_total(red_frac):
            cfg = _workbench(
                {"red": red_frac, "orange": 0.0, "free": 1.0 - red_frac},
                human_base=6.0,
            )
            program = _program(human_specs=["h_job", "h_job"], robot_specs=["r_job"])
            trace = simulate_plan(program, cfg, seed=5)
            (rec,) = _by_agent(trace, R)
            return rec.interval.end - rec.interval.start

        durations = [robot_total(f) for f in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(durations, durations[1:]))

    def test_cross_agent_wait_inserts_idle(self):
        # The human's only task must wait for the robot's 10 s job.
        cfg = _workbench()
        program = _lanes_program(
            {
                H: (_inst("h0", "h_job", H),),
                R: (_inst("r0", "r_job", R),),
            },
            precedence=(("r0", "h0"),),
        )
        trace = simulate_plan(program, cfg, seed=0)
        (human_rec,) = _by_agent(trace, H)
        assert human_rec.interval.start == pytest.approx(10.0, abs=1e-9)

    def test_bound_one_step_before_a_completion_never_moves_the_clock_back(self):
        # The human stays in orange at factor 0.37.  Its first task ends one
        # float step before the robot's second task would complete, and at
        # that bound 3.3 - 0.37 * (bound - start) is a hair below 0.
        r_a, r_b = 2.1, 3.3
        bound = math.nextafter(r_a / 0.37 + r_b / 0.37, 0.0)
        assert r_b - 0.37 * (bound - r_a / 0.37) < 0.0
        robot = {"agent": "robot", "action": "goto", "region": "robot_table"}
        human = {"agent": "human", "action": "goto", "region": "test_zone"}
        cfg = make_world_config(
            {
                "zones": {"speed_factors": {"orange": 0.37}},
                "regions": {"test_zone": {"red": 0.0, "orange": 1.0, "free": 0.0}},
                "tasks": {
                    "r_a": {**robot, "base_duration": r_a},
                    "r_b": {**robot, "base_duration": r_b},
                    "h_job": {**human, "base_duration": bound, "cv": 0.0},
                },
            }
        )
        program = _program(human_specs=["h_job", "h_job"], robot_specs=["r_a", "r_b"])
        trace = simulate_plan(program, cfg, seed=0)
        ends = [rec.interval.end for rec in trace.records]
        assert ends == sorted(ends)
        assert [rec.interval.end for rec in _by_agent(trace, R)] == [r_a / 0.37, bound]

    def test_robot_lane_past_two_to_the_fourteen_seconds_finishes(self):
        # Past 2^14 s one clock step exceeds 1e-12, so a completion cannot
        # hinge on the residual work falling below such a tolerance.
        cfg = make_world_config(
            {
                "tasks": {
                    "pick_blue_r": {"base_duration": 16400.7},
                    "pick_orange": {"base_duration": 6.3},
                    "place_orange": {"base_duration": 5.1},
                },
                "process": [
                    {"pick": "pick_blue_r", "place": "place_blue_r", "count": 1, "color": "blue"},
                    {"pick": "pick_orange", "place": "place_orange", "count": 6, "color": "orange"},
                ],
            }
        )
        domain = build_domain(cfg)
        for seed in (1, 2, 3):
            program = program_from_plan(domain, random_plan(domain, seed=[seed, 0]))
            with _deadline(20):
                trace = simulate_plan(program, cfg, seed=[seed, 1])
            assert len(trace.records) == 14
            assert max(r.interval.end for r in trace.records) == pytest.approx(16475.1, abs=1e-6)

    def test_human_task_shorter_than_one_clock_step_ends_where_it_starts(self):
        # Each white box's pick takes about 1e7 s, where one clock step is
        # about 2e-9 s; its place takes about 1e-12 s.
        cfg = make_world_config(
            {
                "tasks": {
                    "pick_white": {"base_duration": 1e7},
                    "place_white": {"base_duration": 1e-12},
                }
            }
        )
        domain = build_domain(cfg)
        program = program_from_plan(domain, random_plan(domain, seed=[1, 0]))
        with _deadline(20):
            trace = simulate_plan(program, cfg, seed=[1, 1])
        places = [r for r in trace.records if r.task_id == "place_white"]
        assert len(places) == 4
        assert all(r.interval.start == r.interval.end for r in places)


class TestProgramValidation:
    # The domain lets the agent run the task; only the workcell's catalog forbids it.
    def test_ineligible_agent(self):
        cfg = _workbench()
        program = _lanes_program({H: (_inst("x", "r_job", H),), R: ()})
        with pytest.raises(InvalidProgram, match="'x' \\(r_job\\) is not executable by human"):
            simulate_plan(program, cfg, seed=0)

    def test_unknown_task_type(self):
        cfg = _workbench()
        program = _lanes_program({H: (), R: (_inst("x", "mystery", R),)})
        with pytest.raises(InvalidProgram, match="'mystery' is not in the catalog"):
            simulate_plan(program, cfg, seed=0)

    def test_duplicate_uid(self):
        with pytest.raises(InvalidProgram, match="'x' appears more than once"):
            _lanes_program({H: (), R: (_inst("x", "r_job", R), _inst("x", "r_job", R))})

    def test_same_agent_pair_out_of_order(self):
        with pytest.raises(InvalidProgram, match="deadlock"):
            _lanes_program(
                {H: (), R: (_inst("b", "r_job", R), _inst("a", "r_job", R))},
                precedence=(("a", "b"),),
            )

    # A domain cannot name a uid it lacks, so the unscheduled prerequisite is a
    # domain task left out of every lane.
    def test_precedence_on_unscheduled_task(self):
        domain = PlanningDomain(
            (_inst("ghost", "r_job", R), _inst("a", "r_job", R)), (("ghost", "a"),)
        )
        plan = CandidatePlan(assignment={"a": R}, order={H: (), R: ("a",)})
        with pytest.raises(InvalidProgram, match="'ghost' appears in no ordering"):
            program_from_plan(domain, plan)

    def test_cross_agent_deadlock_detected(self):
        with pytest.raises(InvalidProgram, match="deadlock"):
            _lanes_program(
                {
                    H: (_inst("h0", "h_job", H), _inst("h1", "h_job", H)),
                    R: (_inst("r0", "r_job", R), _inst("r1", "r_job", R)),
                },
                # h0 waits on r1, r0 waits on h1: neither lane can start.
                precedence=(("r1", "h0"), ("h1", "r0")),
            )

    def test_hand_built_program_deadlock_is_caught_by_the_event_loop(self):
        # Slot 0 (human) waits on slot 1 (robot) and the reverse.
        program = AgentProgram(
            tasks=(_inst("h0", "h_job", H), _inst("r0", "r_job", R)),
            n_human=1,
            prereq=(1, 0),
        )
        with pytest.raises(InvalidProgram, match="simulation deadlocked"):
            simulate_plan(program, _workbench(), seed=0)


# -- reference event loop ------------------------------------------------------
#
# The loop simulate_plan ran before it kept its state in locals: one object per
# running task and a zone lookup at every event, with each task ending at its
# own event.  simulate_plan must give the same trace, record for record and bit
# for bit.


class _HumanTask:
    """A running human task with its precomputed phase boundaries."""

    __slots__ = ("instance", "start", "red_end", "orange_end", "end")

    def __init__(self, instance: TaskInstance, start: float, duration: float,
                 profile: ZoneExposureProfile):
        self.instance = instance
        self.start = start
        self.red_end = start + profile.red * duration
        self.orange_end = start + (profile.red + profile.orange) * duration
        self.end = start + duration

    def zone_at(self, t: float) -> str:
        if t < self.red_end:
            return "red"
        if t < self.orange_end:
            return "orange"
        return "free"


class _RobotTask:
    """A running robot task consuming work at the ambient speed factor."""

    __slots__ = ("instance", "start", "work_left")

    def __init__(self, instance: TaskInstance, start: float, work: float):
        self.instance = instance
        self.start = start
        self.work_left = work


def _reference_simulate(program, config, seed, plan_id="plan"):
    tasks, n_human, prereq = program.tasks, program.n_human, program.prereq
    n = len(tasks)
    rng = np.random.default_rng(seed)

    done = [False] * n + [True]  # done[n]: no prerequisite
    cursor = {H: 0, R: n_human}
    lane_end = {H: n_human, R: n}

    human = None
    robot = None
    completed = []
    t = 0.0

    def ready(agent):
        k = cursor[agent]
        if k < lane_end[agent] and done[prereq[k]]:
            return tasks[k]
        return None

    while len(completed) < n:
        if human is None:
            nxt = ready(H)
            if nxt is not None:
                task_cfg = config.tasks[nxt.spec_id]
                duration = sample_task_duration(task_cfg.base_duration, task_cfg.cv, rng)
                human = _HumanTask(nxt, t, duration, task_cfg.profile)
        if robot is None:
            nxt = ready(R)
            if nxt is not None:
                robot = _RobotTask(nxt, t, config.tasks[nxt.spec_id].base_duration)

        # An idle human leaves the robot at nominal speed.
        factor = config.speed_factors[human.zone_at(t)] if human else 1.0
        events = []
        if human is not None:
            events.extend(b for b in (human.red_end, human.orange_end) if b > t)
            events.append(human.end)
        robot_end = None
        if robot is not None and factor > 0.0:
            robot_end = t + robot.work_left / factor
            events.append(robot_end)
        if not events:
            raise InvalidProgram("simulation deadlocked: agents are waiting on each other's tasks")
        t_next = min(events)

        if robot is not None and t_next != robot_end:
            robot.work_left = max(0.0, robot.work_left - factor * (t_next - t))
        t = t_next

        if robot is not None and t == robot_end:
            completed.append((robot.instance, R, robot.start, t))
            done[cursor[R]] = True
            cursor[R] += 1
            robot = None
        if human is not None and t >= human.end:
            completed.append((human.instance, H, human.start, t))
            done[cursor[H]] = True
            cursor[H] += 1
            human = None

    records = tuple(
        ExecutionRecord(inst.spec_id, agent, TimeInterval(start, end))
        for inst, agent, start, end in completed
    )
    return ExecutionTrace(plan_id=plan_id, records=records)


_WORKCELLS = {
    "default": lambda: load_world_config(),
    "flexible": lambda: load_world_config(
        Path(__file__).resolve().parents[1] / "perfbench" / "flexible.yaml"
    ),
    # The shared region all orange and no human noise: the robot runs at half
    # speed beside every blue human task.
    "all_orange": lambda: make_world_config(
        {
            "regions": {"shared": {"red": 0.0, "orange": 1.0, "free": 0.0}},
            "tasks": {
                t: {"cv": 0.0}
                for t, c in load_world_config().tasks.items()
                if H in c.eligible_agents
            },
        }
    ),
    # Red and orange sum past 1 within the profile's 1e-9 tolerance, so the
    # orange phase bound lies after the task's end.
    "orange_past_the_end": lambda: make_world_config(
        {"regions": {"shared": {"red": 0.3, "orange": 0.7000000005, "free": 0.0}}}
    ),
    # Every duration 211.7 times the default and a non-dyadic orange factor:
    # each plan's clock passes 2^14 s, where one clock step exceeds 1e-12.
    "long_clock": lambda: make_world_config(
        {
            "zones": {"speed_factors": {"orange": 0.37}},
            "tasks": {
                t: {"base_duration": c["base_duration"] * 211.7}
                for t, c in DEFAULT_CONFIG["tasks"].items()
            },
        }
    ),
}


class TestEventLoopMatchesReference:
    @pytest.mark.parametrize("workcell", _WORKCELLS)
    def test_equal_traces_on_random_plans(self, workcell):
        config = _WORKCELLS[workcell]()
        domain = build_domain(config)
        with _deadline(30):
            for i in range(300):
                program = program_from_plan(domain, random_plan(domain, seed=[i, 0]))
                seed = [i, 1]
                assert simulate_plan(program, config, seed, "p") == _reference_simulate(
                    program, config, seed, "p"
                )

    def test_equal_deadlock_on_a_hand_built_program(self):
        program = AgentProgram(
            tasks=(_inst("h0", "h_job", H), _inst("r0", "r_job", R)),
            n_human=1,
            prereq=(1, 0),
        )
        for simulate in (simulate_plan, _reference_simulate):
            with pytest.raises(InvalidProgram, match="simulation deadlocked"):
                simulate(program, _workbench(), 0)


# SHA-256 of the traces below, recorded while a robot task ended once its
# residual work fell below a tolerance.
GOLDEN_TRACES_SHA256 = "f372c0a36da5c490bb6f1252c93224cef9d0df308e7e4259c13f4959a80f2b60"


def test_simulated_traces_match_the_recorded_golden_hash():
    """simulate_plan on 300 random plans per workcell: plan seed [i, 0], simulation seed [i, 1].

    Each record hashes as its task, its agent and float.hex of its start and
    end, so any change of a single bit in any trace shows.
    """
    digest = hashlib.sha256()
    for workcell in ("default", "flexible", "all_orange", "orange_past_the_end"):
        config = _WORKCELLS[workcell]()
        domain = build_domain(config)
        for i in range(300):
            program = program_from_plan(domain, random_plan(domain, seed=[i, 0]))
            for rec in simulate_plan(program, config, [i, 1]).records:
                start, end = rec.interval.start.hex(), rec.interval.end.hex()
                digest.update(f"{rec.task_id} {rec.agent.value} {start} {end}\n".encode())
            digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_TRACES_SHA256
