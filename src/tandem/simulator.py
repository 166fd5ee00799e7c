"""Event-driven simulation of the collaborative workcell.

Both agents run their task lists sequentially from t=0, waiting only for
unmet pick-before-place prerequisites.  A human task draws its realized
duration once at start and traverses its catalog entry's zone exposure
profile in red, orange, free order.  A robot task is a fixed amount of work
(its base duration in work-seconds) consumed at the config's speed factor for
the human's zone: stopped while the human is in the red zone, half speed in
orange, nominal in free and while the human is idle.  Identical
(program, config, seed) triples produce bit-identical traces.

The event loop keeps its state in locals: one cursor per lane, the running
human task's start and phase bounds, and the running robot task's start and
remaining work.  Each event advances to the earlier of the human's next phase
bound and the running robot task's completion event, ``t + work / factor`` at
the speed factor of the human's zone.  Each task ends at its own event, with
no tolerance on residual work, so no task stalls however far the clock has
run, and each completed task becomes its record at once.  A task shorter than
one step of the clock where it runs ends where it starts; ``tandem estimate``
skips such a zero-length record with its warning.

``program_from_plan`` runs the planner's plan check (``planner._dispatch_order``)
and builds the program from what it returns, so the simulator executes exactly
the plans the planner prices; ``simulate_plan`` checks only the world config's
catalog: each task type is in it and its lane's agent may execute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ZONES, WorldConfig
from .errors import InvalidProgram
from .estimator import ExecutionRecord, ExecutionTrace
from .model import AgentId, TimeInterval
from .planner import CandidatePlan, PlanningDomain, TaskInstance, _dispatch_order

# Lower truncation of noisy task durations, as a fraction of the base duration.
MIN_DURATION_FRACTION = 0.2


@dataclass(frozen=True)
class AgentProgram:
    """A checked plan as lane-major task slots: the human lane, then the robot lane.

    Slot k < n_human is the human's k-th task; ``prereq[k]`` is the one slot
    that must finish before slot k starts, or ``len(tasks)`` when there is none.
    """

    tasks: tuple[TaskInstance, ...]
    n_human: int
    prereq: tuple[int, ...]


def program_from_plan(domain: PlanningDomain, plan: CandidatePlan) -> AgentProgram:
    """The executable program of a plan, after the planner's plan check.

    Raises InvalidProgram for any plan that ``planner.validate_plan`` rejects.
    """
    at, _, n_human, steps = _dispatch_order(domain, plan)
    prereq = tuple(dep for _, _, dep in sorted(steps))  # one step per slot
    return AgentProgram(tuple(domain.instances[pos] for pos in at), n_human, prereq)


def sample_task_duration(base: float, cv: float, rng: np.random.Generator) -> float:
    """Draw a realized duration: normal around `base`, truncated at 0.2 * base.

    The config load (`config._parse_task`) checked that `base` > 0 and `cv` >= 0, both finite.
    """
    if cv == 0.0:
        return base
    draw = float(rng.normal(base, cv * base))
    return max(draw, MIN_DURATION_FRACTION * base)


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
    tasks, n_human, prereq = program.tasks, program.n_human, program.prereq
    n = len(tasks)
    # program_from_plan ran the plan check; what is left needs the catalog.
    for agent, lane in ((AgentId.HUMAN, tasks[:n_human]), (AgentId.ROBOT, tasks[n_human:])):
        for inst in lane:
            task_cfg = config.tasks.get(inst.spec_id)
            if task_cfg is None:
                raise InvalidProgram(f"task type {inst.spec_id!r} is not in the catalog")
            if agent not in task_cfg.eligible_agents:
                raise InvalidProgram(
                    f"task {inst.uid!r} ({inst.spec_id}) is not executable by {agent.value}"
                )
    rng = np.random.default_rng(seed)
    catalog = config.tasks
    # An idle human is in no zone, so the robot keeps its nominal speed.
    idle = 1.0
    in_red, in_orange, in_free = (config.speed_factors[zone] for zone in ZONES)

    done = [False] * n + [True]  # done[n]: the sentinel of a task with no prerequisite
    records: list[ExecutionRecord] = []
    t = 0.0
    # Lane cursors: the slot each agent runs or waits to start.
    hk, rk = 0, n_human
    # The running human task: its start and phase bounds; h_end is None while
    # the human is idle.
    h_start = h_red = h_orange = 0.0
    h_end: float | None = None
    # The running robot task: its start and the work it has left; work is None
    # while the robot is idle.
    r_start = 0.0
    work: float | None = None

    while hk < n_human or rk < n:
        if h_end is None and hk < n_human and done[prereq[hk]]:
            task_cfg = catalog[tasks[hk].spec_id]
            duration = sample_task_duration(task_cfg.base_duration, task_cfg.cv, rng)
            profile = task_cfg.profile
            h_start = t
            h_end = t + duration
            # Zone fractions sum to 1 only within 1e-9, so a phase bound may
            # pass the end; clamped to it, it gives the same zones and events.
            h_red = min(t + profile.red * duration, h_end)
            h_orange = min(t + (profile.red + profile.orange) * duration, h_end)
        if work is None and rk < n and done[prereq[rk]]:
            r_start = t
            work = catalog[tasks[rk].spec_id].base_duration

        # The human's zone sets the robot's speed, and its next phase bound
        # is the human's next event.
        if h_end is None:
            factor, h_next = idle, None
        elif t < h_red:
            factor, h_next = in_red, h_red
        elif t < h_orange:
            factor, h_next = in_orange, h_orange
        else:
            factor, h_next = in_free, h_end
        # A running robot that is not stopped ends at its own completion event.
        r_end = t + work / factor if work is not None and factor > 0.0 else None
        if r_end is not None and (h_next is None or r_end <= h_next):
            t_next = r_end
        elif h_next is not None:
            t_next = h_next
        else:
            raise InvalidProgram("simulation deadlocked: agents are waiting on each other's tasks")

        if t_next == r_end:
            records.append(
                ExecutionRecord(tasks[rk].spec_id, AgentId.ROBOT, TimeInterval(r_start, t_next))
            )
            done[rk] = True
            rk += 1
            work = None
        elif work is not None:
            # A human bound within rounding of the completion may leave the
            # work a hair below 0; the floor keeps the clock from moving back.
            work -= factor * (t_next - t)
            if work < 0.0:
                work = 0.0
        t = t_next
        if h_end is not None and t >= h_end:
            records.append(
                ExecutionRecord(tasks[hk].spec_id, AgentId.HUMAN, TimeInterval(h_start, t))
            )
            done[hk] = True
            hk += 1
            h_end = None

    return ExecutionTrace(plan_id=plan_id, records=tuple(records))
