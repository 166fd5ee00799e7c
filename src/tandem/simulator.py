"""Event-driven simulation of the collaborative workcell.

Both agents run their task lists sequentially from t=0, waiting only for
unmet pick-before-place prerequisites.  A human task draws its realized
duration once at start and traverses its zone exposure in red, orange, free
order.  A robot task is a fixed amount of work (its base duration in
work-seconds) consumed at the current speed factor: stopped while the human
is in the red zone, half speed in orange, nominal otherwise.  Identical
(program, config, seed) triples produce bit-identical traces.

``program_from_plan`` runs the planner's plan check (``planner._dispatch_order``)
and builds the program from what it returns, so the simulator executes exactly
the plans the planner prices; ``simulate_plan`` checks only the world config's
catalog: each task type is in it and its lane's agent may execute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import WorldConfig, ZoneExposureProfile
from .errors import InvalidProgram
from .estimator import ExecutionRecord, ExecutionTrace
from .model import AgentId, TimeInterval
from .planner import CandidatePlan, PlanningDomain, TaskInstance, _dispatch_order

# Residual work below this threshold counts as task completion (seconds of work).
WORK_EPS = 1e-12

# Lower truncation of noisy task durations, as a fraction of the base duration.
MIN_DURATION_FRACTION = 0.2


@dataclass(frozen=True)
class AgentProgram:
    """A checked plan as lane-major task slots: the human lane, then the robot lane.

    Slot k < n_human is the human's k-th task; ``prereqs[k]`` holds the slots
    that must finish before slot k starts.
    """

    tasks: tuple[TaskInstance, ...]
    n_human: int
    prereqs: tuple[tuple[int, ...], ...]


def program_from_plan(domain: PlanningDomain, plan: CandidatePlan) -> AgentProgram:
    """The executable program of a plan, after the planner's plan check.

    Raises InvalidProgram for any plan that ``planner.validate_plan`` rejects.
    """
    at, _, n_human, steps = _dispatch_order(domain, plan)
    prereqs: list[tuple[int, ...]] = [()] * len(at)
    for k, _, dep in steps:
        prereqs[k] = (dep,) if dep < len(at) else ()
    return AgentProgram(tuple(domain.instances[pos] for pos in at), n_human, tuple(prereqs))


def robot_speed_factor(human_zone: str | None, config: WorldConfig) -> float:
    """Speed scale applied to the robot for the human's current zone.

    ``None`` means the human is idle, which leaves the robot at nominal speed.
    """
    if human_zone is None:
        return 1.0
    return config.speed_factors[human_zone]


def sample_task_duration(base: float, cv: float, rng: np.random.Generator) -> float:
    """Draw a realized duration: normal around `base`, truncated at 0.2 * base."""
    if base <= 0.0:
        raise ValueError(f"base duration must be positive, got {base}")
    if cv < 0.0:
        raise ValueError(f"coefficient of variation must be non-negative, got {cv}")
    if cv == 0.0:
        return base
    draw = float(rng.normal(base, cv * base))
    return max(draw, MIN_DURATION_FRACTION * base)


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


def simulate_plan(
    program: AgentProgram,
    config: WorldConfig,
    seed,
    plan_id: str = "plan",
) -> ExecutionTrace:
    """Execute both agents' task lists and return the measured trace.

    Human durations are noise draws (one per task, at task start); robot tasks
    always consume exactly their base duration in work-seconds, so all robot
    variability comes from the safety-zone couplings.
    """
    tasks, n_human, prereqs = program.tasks, program.n_human, program.prereqs
    n = len(tasks)
    # program_from_plan ran the plan check; what is left needs the catalog.
    for agent, lane in ((AgentId.HUMAN, tasks[:n_human]), (AgentId.ROBOT, tasks[n_human:])):
        for inst in lane:
            task_cfg = config.tasks.get(inst.spec_id)
            if task_cfg is None:
                raise InvalidProgram(f"task type {inst.spec_id!r} is not in the catalog")
            if agent not in task_cfg.spec.eligible_agents:
                raise InvalidProgram(
                    f"task {inst.uid!r} ({inst.spec_id}) is not executable by {agent.value}"
                )
    rng = np.random.default_rng(seed)

    done = [False] * n
    cursor = {AgentId.HUMAN: 0, AgentId.ROBOT: n_human}
    lane_end = {AgentId.HUMAN: n_human, AgentId.ROBOT: n}

    human: _HumanTask | None = None
    robot: _RobotTask | None = None
    completed: list[tuple[TaskInstance, AgentId, float, float]] = []
    t = 0.0

    def ready(agent: AgentId) -> TaskInstance | None:
        k = cursor[agent]
        if k < lane_end[agent] and all(done[d] for d in prereqs[k]):
            return tasks[k]
        return None

    while len(completed) < n:
        if human is None:
            nxt = ready(AgentId.HUMAN)
            if nxt is not None:
                task_cfg = config.tasks[nxt.spec_id]
                duration = sample_task_duration(task_cfg.base_duration, task_cfg.cv, rng)
                human = _HumanTask(nxt, t, duration, config.profile(nxt.spec_id))
        if robot is None:
            nxt = ready(AgentId.ROBOT)
            if nxt is not None:
                robot = _RobotTask(nxt, t, config.tasks[nxt.spec_id].base_duration)

        factor = robot_speed_factor(human.zone_at(t) if human else None, config)
        events = []
        if human is not None:
            events.extend(b for b in (human.red_end, human.orange_end, human.end) if b > t)
        if robot is not None and factor > 0.0:
            events.append(t + robot.work_left / factor)
        if not events:
            raise InvalidProgram(
                "simulation deadlocked: agents are waiting on each other's tasks"
            )
        t_next = min(events)

        if robot is not None:
            robot.work_left = max(0.0, robot.work_left - factor * (t_next - t))
        t = t_next

        if robot is not None and robot.work_left <= WORK_EPS:
            completed.append((robot.instance, AgentId.ROBOT, robot.start, t))
            done[cursor[AgentId.ROBOT]] = True
            cursor[AgentId.ROBOT] += 1
            robot = None
        if human is not None and t >= human.end:
            completed.append((human.instance, AgentId.HUMAN, human.start, t))
            done[cursor[AgentId.HUMAN]] = True
            cursor[AgentId.HUMAN] += 1
            human = None

    records = tuple(
        ExecutionRecord(
            plan_id=plan_id,
            task_id=inst.spec_id,
            agent=agent,
            interval=TimeInterval(start, end),
            success=True,
        )
        for inst, agent, start, end in completed
    )
    return ExecutionTrace(plan_id=plan_id, records=records)
