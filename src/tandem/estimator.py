"""Estimation of task duration statistics and synergy coefficients from traces.

An execution record is a task type, an agent, its measured interval and a
success flag; the trace that holds it names the plan.  One scan over the
traces groups the successful executions by (task type, agent), each as its
measured duration and its overlap pairs, and the caller filters each group's
outliers once; the kept executions feed both the duration statistics and the
regressions.  Each group's statistics come from the same groups, so every
group has them; a group without them raises `MissingDuration`.  For every
task type executed by an agent, the measured durations of its kept
executions form the samples of a least-squares regression: the regressors
are the overlap fractions in the same run against each task type the other
agent executed (scaled by the task's expected duration) and the response is
the measured duration minus the idle term, i.e. the part of the task window
with no concurrent counterpart work valued at the nominal rate.  Solving the
normal equations per task yields one row of the synergy matrix; a
coefficient above 1 marks a pair of tasks that slow each other down when run
concurrently.

The overlap fractions come from the grouping scan: it runs one sweep per
trace and direction (`model.overlap_pairs`) over the trace's two start-sorted
lanes, whose starts and ends each trace keeps, and pairs each execution with
its (counterpart task, fraction) list;
each regression row then adds those pairs into the columns.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyProblem, MissingDuration, OverlappingRecords
from .model import (
    COEFFICIENT_FLOOR,
    SIDES,
    AgentId,
    StatsMap,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    TIME_EPS,
    overlap_pairs,
)

logger = logging.getLogger(__name__)

# Condition-number threshold above which the normal equations are damped.
ILL_CONDITIONED = 1e10


@dataclass(frozen=True)
class ExecutionRecord:
    """One measured execution of a task within a plan run; its trace names the plan."""

    task_id: str
    agent: AgentId
    interval: TimeInterval
    success: bool = True


@dataclass(frozen=True)
class ExecutionTrace:
    """All execution records of one plan run, both agents.

    Records of the same agent must not overlap.  Each agent's lane, the
    positions of its successful records sorted by (start, end) with their
    starts and ends in that order, is computed once per trace and kept on it.
    """

    plan_id: str
    records: tuple[ExecutionRecord, ...]

    def __post_init__(self) -> None:
        for agent, (positions, starts, ends) in self._lanes.items():
            for i in range(1, len(positions)):
                if starts[i] < ends[i - 1] - TIME_EPS:
                    prev, cur = self.records[positions[i - 1]], self.records[positions[i]]
                    raise OverlappingRecords(
                        f"records of {agent.value} overlap in plan {self.plan_id!r}: "
                        f"{prev.task_id!r} and {cur.task_id!r}",
                        positions[i],
                    )

    @cached_property
    def _lanes(self) -> dict[AgentId, tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]]:
        """Per agent, (positions, starts, ends) of its successful records in lane order."""
        entries: dict[AgentId, list[tuple[float, float, int]]] = {agent: [] for agent in AgentId}
        for k, rec in enumerate(self.records):
            if rec.success:
                interval = rec.interval
                entries[rec.agent].append((interval.start, interval.end, k))
        lanes = {}
        for agent, lane in entries.items():
            # Finite bounds and distinct positions: the order of a stable
            # sort on (start, end).
            lane.sort()
            starts, ends, positions = zip(*lane) if lane else ((), (), ())
            lanes[agent] = (positions, starts, ends)
        return lanes


# Successful executions of one (task type, agent), each as its measured
# duration and the (counterpart task id, overlap fraction) pairs of its run,
# in start order.  A collections.abc alias: typing's would keep this module
# alive after a re-import.
Execution = tuple[float, list[tuple[str, float]]]
Executions = Sequence[Execution]


@dataclass(frozen=True)
class RegressionProblem:
    """Per-task regression: response and design matrix over counterpart types.

    Row k corresponds to the k-th given execution of the own task.  Column j
    corresponds to the j-th counterpart type given to ``build_regression``;
    its entries are the expected own duration times the overlap fraction
    against all instances of that counterpart type in the execution's run.
    """

    response: np.ndarray
    design: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.design.shape[0]


@dataclass(frozen=True)
class SynergyFit:
    """Solution of one per-task regression."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    sample_counts: tuple[int, ...]
    damped_columns: tuple[int, ...] = ()


def expected_duration(samples: Sequence[float]) -> tuple[float, float, int]:
    """Mean, sample standard deviation (n-1 denominator), and count.

    A single sample has std 0 by convention.  The samples are durations that
    ``group_executions`` kept, so each is positive.
    """
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return mean, 0.0, 1
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var), n


def filter_outliers(samples: Sequence[float], strategy: str = "iqr") -> tuple[int, ...]:
    """Indices of the samples kept under the named strategy, in order.

    The default "iqr" strategy drops samples outside the Tukey fences
    [Q1 - 1.5 IQR, Q3 + 1.5 IQR]; "none" keeps everything.  Which values are
    kept depends only on the multiset of values, not their order.
    """
    name = strategy.lower()
    if name == "none":
        return tuple(range(len(samples)))
    if name != "iqr":
        raise ValueError(f"unknown outlier strategy {strategy!r}")
    q1, q3 = np.percentile(np.asarray(samples, dtype=float), [25.0, 75.0])
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return tuple(i for i, x in enumerate(samples) if not (x < lo or x > hi))


def group_executions(
    traces: Sequence[ExecutionTrace],
) -> dict[tuple[str, AgentId], list[Execution]]:
    """Successful executions by (task type, agent), in one scan of the traces.

    Each execution is (duration, pairs): the record's measured duration and
    the (counterpart task id, overlap fraction) of every counterpart record
    that overlaps it, in start order, from one `model.overlap_pairs` sweep per
    trace and direction over the starts and ends that the trace's lanes keep;
    only the counterpart task ids are read from the records.  Groups come in
    order of first appearance; a group keeps trace then record order.  A record of non-positive duration can be
    neither a duration sample nor a regression row: it is skipped, and one
    warning counts the skips.
    """
    groups: dict[tuple[str, AgentId], list[Execution]] = {}
    skipped = 0
    for trace in traces:
        records = trace.records
        lanes = trace._lanes
        # Each successful record's execution, by its position in the trace.
        executions: list[Execution | None] = [None] * len(records)
        for agent, (positions, starts, ends) in lanes.items():
            other_positions, other_starts, other_ends = lanes[agent.counterpart]
            other_ids = [records[j].task_id for j in other_positions]
            for k, start, end, pairs in zip(
                positions, starts, ends, overlap_pairs(starts, ends, other_starts, other_ends)
            ):
                executions[k] = (end - start, [(other_ids[j], delta) for j, delta in pairs])
        for rec, execution in zip(records, executions):
            if execution is None:
                continue
            if execution[0] <= 0.0:
                skipped += 1
                continue
            key = (rec.task_id, rec.agent)
            group = groups.get(key)
            if group is None:
                groups[key] = [execution]
            else:
                group.append(execution)
    if skipped:
        logger.warning("skipped %d successful records of non-positive duration", skipped)
    return groups


def build_regression(
    executions: Executions, d_hat: float, counterpart_tasks: Sequence[str]
) -> RegressionProblem:
    """Assemble the regression problem for one own task against counterpart types.

    ``d_hat`` is the own task's expected duration, the mean of the duration
    statistics built from the same group of executions.  One row per given
    execution of the own task, in the given order; no executions give a
    problem of zero rows, which ``solve_synergy`` rejects.  Design entry
    (k, j) is the expected own duration times the overlap fraction of
    execution k against every instance of counterpart type j in execution k's
    own run; multiple instances of one type sum into the same column, in
    start order.  The fractions are the pairs each execution carries (see
    ``group_executions``).  The response is the measured duration minus the
    idle term: the uncovered fraction of the task valued at the expected rate.
    """
    columns = {task_id: j for j, task_id in enumerate(counterpart_tasks)}
    m = len(counterpart_tasks)

    rows: list[list[float]] = []
    response: list[float] = []
    for duration, pairs in executions:
        deltas = [0.0] * m
        for task_id, delta in pairs:
            j = columns.get(task_id)
            if j is not None:
                deltas[j] += delta
        rows.append(deltas)
        response.append(duration - d_hat * (1.0 - math.fsum(deltas)))

    return RegressionProblem(
        response=np.asarray(response, dtype=float),
        # One scale of the whole matrix: the same multiply per entry as row by row.
        design=d_hat * np.asarray(rows, dtype=float).reshape(len(rows), m),
    )


def solve_synergy(problem: RegressionProblem) -> SynergyFit:
    """Solve the per-task normal equations for the synergy coefficients.

    Columns whose design entries are all zero (the task pair was never
    observed running concurrently) get coefficient 1.0 with sample count 0.
    When the active normal matrix is singular or has condition estimate above
    1e10, a small ridge term (1e-8 * trace / m) is added and the affected
    columns are reported in ``damped_columns``.  Standard errors come from
    the classical sigma^2 * inv(X^T X) diagonal with
    sigma^2 = RSS / max(n - m, 1).
    """
    X = problem.design
    y = problem.response
    n, m = X.shape
    if n == 0:
        raise EmptyProblem("a regression with no rows cannot be solved")

    sample_counts = tuple(int(np.count_nonzero(X[:, j])) for j in range(m))
    coefficients = np.ones(m, dtype=float)
    std_errors = np.zeros(m, dtype=float)
    active = [j for j in range(m) if sample_counts[j] > 0]
    if not active:
        return SynergyFit(coefficients, std_errors, sample_counts)

    Xa = X[:, active]
    xtx = Xa.T @ Xa
    xty = Xa.T @ y
    cond = np.linalg.cond(xtx)
    damped: tuple[int, ...] = ()
    if not np.isfinite(cond) or cond > ILL_CONDITIONED:
        lam = 1e-8 * np.trace(xtx) / len(active)
        xtx = xtx + lam * np.eye(len(active))
        damped = tuple(active)
    solution = np.linalg.solve(xtx, xty)

    residual = y - Xa @ solution
    rss = float(residual @ residual)
    sigma2 = rss / max(n - len(active), 1)
    covariance_diag = sigma2 * np.diag(np.linalg.inv(xtx))
    errors = np.sqrt(np.clip(covariance_diag, 0.0, None))

    for idx, j in enumerate(active):
        coefficients[j] = solution[idx]
        std_errors[j] = errors[idx]
    return SynergyFit(coefficients, std_errors, sample_counts, damped)


def estimate_synergy_matrix(
    executions: Mapping[tuple[str, AgentId], Executions],
    stats: StatsMap,
) -> SynergyMatrix:
    """Estimate both agents' synergy matrices from grouped executions.

    ``executions`` maps (task type, agent) to the executions that survived
    outlier filtering (see ``group_executions``), none of them empty, and
    ``stats`` holds the duration statistics of those same groups.  The keys
    of ``executions`` are the task lists: each agent's own tasks are its
    keys, in key order, and the columns of every own row are the other
    agent's.  Per own task the executions form the regression rows, and the
    solved coefficients fill one matrix row.  A group without statistics
    raises ``MissingDuration`` naming its task and agent.
    """
    task_ids: dict[AgentId, list[str]] = {a: [] for a in SIDES}
    for task_id, agent in executions:
        task_ids[agent].append(task_id)
    entries: dict[AgentId, dict[tuple[str, str], SynergyEntry]] = {a: {} for a in SIDES}
    for own_agent in SIDES:
        counterpart_ids = task_ids[own_agent.counterpart]
        for own_id in task_ids[own_agent]:
            key = (own_id, own_agent)
            if key not in stats:
                raise MissingDuration(own_id, own_agent)
            fit = solve_synergy(build_regression(executions[key], stats[key].mean, counterpart_ids))
            if fit.damped_columns:
                logger.warning(
                    "ill-conditioned regression for %s/%s; damped columns: %s",
                    own_id,
                    own_agent.value,
                    ", ".join(counterpart_ids[j] for j in fit.damped_columns),
                )
            # A column never observed keeps coefficient 1.0 and std error 0.0: the neutral entry.
            for j, counterpart_id in enumerate(counterpart_ids):
                entries[own_agent][(own_id, counterpart_id)] = SynergyEntry(
                    coefficient=max(float(fit.coefficients[j]), COEFFICIENT_FLOOR),
                    std_error=float(fit.std_errors[j]),
                    sample_count=fit.sample_counts[j],
                )
    return SynergyMatrix(entries)
