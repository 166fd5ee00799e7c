"""Duration statistics, outlier filtering, and synergy regression."""

from __future__ import annotations

import copy
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from tandem import cli
from tandem.config import build_domain, load_world_config
from tandem.errors import EmptyProblem, MissingDuration, OverlappingRecords
from tandem.estimator import (
    ExecutionRecord,
    ExecutionTrace,
    RegressionProblem,
    build_regression,
    estimate_synergy_matrix,
    expected_duration,
    filter_outliers,
    group_executions,
    solve_synergy,
)
from tandem.model import (
    COEFFICIENT_FLOOR,
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    stats_table,
)
from tandem.planner import random_plan
from tandem.simulator import program_from_plan, simulate_plan

from interval_algebra import overlap_ratio

H, R = AgentId.HUMAN, AgentId.ROBOT

FLEXIBLE_WORKCELL = Path(__file__).resolve().parents[1] / "perfbench" / "flexible.yaml"


class TestExpectedDuration:
    def test_constant_samples(self):
        assert expected_duration([10.0, 10.0, 10.0]) == (10.0, 0.0, 3)

    def test_two_samples(self):
        mean, std, count = expected_duration([8.0, 12.0])
        assert mean == 10.0
        # sqrt(((8-10)^2 + (12-10)^2) / 1) = sqrt(8)
        assert std == pytest.approx(math.sqrt(8.0), abs=1e-12)
        assert count == 2

    def test_singleton_convention(self):
        assert expected_duration([5.0]) == (5.0, 0.0, 1)


def _removed(samples):
    """Indices the IQR fence drops: those it does not keep."""
    return sorted(set(range(len(samples))) - set(filter_outliers(samples, "iqr")))


class TestFilterOutliers:
    def test_iqr_removes_far_value(self):
        # sorted: [9, 10, 10, 11, 100]; Q1=10, Q3=11, fences [8.5, 12.5]
        assert filter_outliers([10.0, 11.0, 9.0, 10.0, 100.0], "iqr") == (0, 1, 2, 3)
        # Q1=10 and Q3=11 again: values on a fence stay, values past it go.
        kept = filter_outliers([10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 8.5, 12.5, 8.4, 12.6], "iqr")
        assert kept == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_no_spread_removes_nothing(self):
        assert filter_outliers([10.0, 10.0, 10.0], "iqr") == (0, 1, 2)

    def test_none_strategy_passes_through(self):
        assert filter_outliers([1.0, 500.0, 2.0], "none") == (0, 1, 2)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            filter_outliers([1.0], "isolation_forest")

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        samples = list(rng.normal(20, 2, 40)) + [90.0, -5.0]
        removed_values = sorted(samples[i] for i in _removed(samples))
        for _ in range(5):
            perm = list(rng.permutation(len(samples)))
            shuffled = [samples[i] for i in perm]
            assert sorted(shuffled[i] for i in _removed(shuffled)) == removed_values


def _trace(plan_id, *records):
    return ExecutionTrace(plan_id, tuple(records))


def _rec(task_id, agent, start, end, success=True):
    return ExecutionRecord(task_id, agent, TimeInterval(start, end), success)


def _rows(traces, task_id, agent):
    """Successful executions of one task type, as `tandem estimate` groups them."""
    return group_executions(traces).get((task_id, agent), [])


class TestTraceTypes:
    def test_same_agent_overlap_rejected(self):
        with pytest.raises(ValueError):
            _trace("p", _rec("a", R, 0, 6), _rec("b", R, 5, 9))

    def test_overlaps_in_start_order(self):
        records = (
            _rec("h2", H, 6, 12),
            _rec("r1", R, 0, 10),
            _rec("h1", H, 10, 14, success=False),
            _rec("h0", H, 0, 2),
            _rec("h4", H, 12, 13),
            _rec("h3", H, 2, 2),
        )
        groups = group_executions([_trace("p", *records)])
        # Groups in first appearance; the zero-length h3 and the failed h1 are no executions.
        assert list(groups) == [("h2", H), ("r1", R), ("h0", H), ("h4", H)]
        assert groups[("r1", R)] == [(10.0, [("h0", 0.2), ("h2", 0.4)])]
        assert groups[("h2", H)] == [(6.0, [("r1", 4.0 / 6.0)])]
        assert groups[("h0", H)] == [(2.0, [("r1", 1.0)])]
        assert groups[("h4", H)] == [(1.0, [])]

    def test_lanes_and_overlaps_with_ties(self):
        # Equal starts, two zero-length robot records at one instant, and
        # records stored out of start order.
        records = (
            _rec("r2", R, 5, 9),
            _rec("h1", H, 0, 3),
            _rec("r0", R, 5, 5),
            _rec("r1", R, 0, 5),
            _rec("r0", R, 5, 5),
            _rec("h2", H, 3, 7),
            _rec("h0", H, 0, 0),
            _rec("h3", H, 7, 12, success=False),
            _rec("r3", R, 9, 12),
        )
        trace = _trace("p", *records)
        for agent in AgentId:
            mine = [k for k, rec in enumerate(records) if rec.agent is agent and rec.success]
            order = sorted(mine, key=lambda k: (records[k].interval.start, records[k].interval.end))
            positions, starts, ends = trace._lanes[agent]
            assert list(positions) == order
            assert list(starts) == [records[k].interval.start for k in order]
            assert list(ends) == [records[k].interval.end for k in order]
        assert trace._lanes[R][0] == (3, 2, 4, 0, 8)
        assert trace._lanes[H][0] == (6, 1, 5)
        # The same groups recomputed from each record's interval, pairwise.
        want = {}
        for rec in records:
            duration = rec.interval.end - rec.interval.start
            if not rec.success or duration <= 0.0:
                continue
            others = [o for o in records if o.agent is rec.agent.counterpart and o.success]
            others.sort(key=lambda o: (o.interval.start, o.interval.end))
            ratios = [(o.task_id, overlap_ratio(rec.interval, o.interval)) for o in others]
            pairs = [(task_id, delta) for task_id, delta in ratios if delta > 0.0]
            want.setdefault((rec.task_id, rec.agent), []).append((duration, pairs))
        assert group_executions([trace]) == want
        assert list(group_executions([trace])) == list(want)

    @pytest.mark.parametrize(
        "records, index, names",
        [
            # Stored out of start order: the later one in the lane is stored first.
            ((_rec("b", R, 2, 6), _rec("a", R, 0, 4)), 0, "'a' and 'b'"),
            # Equal starts, a zero-length record first in the lane.
            ((_rec("a", R, 3, 3), _rec("b", R, 3, 8), _rec("c", R, 3, 5)), 1, "'c' and 'b'"),
            # A zero-length record inside another.
            ((_rec("h", H, 0, 1), _rec("a", R, 0, 4), _rec("z", R, 2, 2)), 2, "'a' and 'z'"),
        ],
        ids=["out_of_order", "equal_starts", "zero_length_inside"],
    )
    def test_overlap_names_the_later_record(self, records, index, names):
        with pytest.raises(OverlappingRecords) as err:
            _trace("p", *records)
        assert err.value.index == index
        assert str(err.value) == f"records of robot overlap in plan 'p': {names}"

    def test_group_keeps_trace_then_record_order(self):
        # Records of one type stored last-first keep their stored order.
        first = _trace("a", _rec("r1", R, 5, 9), _rec("r1", R, 0, 4), _rec("h1", H, 3, 7))
        second = _trace("b", _rec("r1", R, 0, 2))
        rows = _rows([first, second], "r1", R)
        assert [duration for duration, _ in rows] == [4.0, 4.0, 2.0]
        assert [pairs for _, pairs in rows] == [[("h1", 0.5)], [("h1", 0.25)], []]

    def test_copy_rebuilds_the_overlaps(self):
        traces = _synthetic_traces([1.3, 0.7], n_rows=5, seed=2)
        want = build_regression(_rows(traces, "r1", R), 10.0, ["h0", "h1"])
        copied = copy.deepcopy(traces)
        assert copied == traces
        got = build_regression(_rows(copied, "r1", R), 10.0, ["h0", "h1"])
        assert np.array_equal(got.design, want.design)
        assert np.array_equal(got.response, want.response)


class TestBuildRegression:
    def test_single_trace_row(self):
        # own robot task measured [0, 14]; human task h1 covers [0, 8].
        trace = _trace("p", _rec("r1", R, 0, 14), _rec("h1", H, 0, 8))
        problem = build_regression(_rows([trace], "r1", R), 10.0, ["h1"])
        delta = 8.0 / 14.0
        assert problem.design.shape == (1, 1)
        assert problem.design[0, 0] == pytest.approx(10.0 * delta, rel=1e-12)
        assert problem.response[0] == pytest.approx(14.0 - 10.0 * (1.0 - delta), rel=1e-12)

    def test_row_without_overlap(self):
        trace = _trace("p", _rec("r1", R, 0, 9), _rec("h1", H, 20, 25))
        problem = build_regression(_rows([trace], "r1", R), 10.0, ["h1"])
        assert problem.design[0, 0] == 0.0
        assert problem.response[0] == pytest.approx(9.0 - 10.0)

    def test_repeated_counterpart_type_sums_into_one_column(self):
        trace = _trace(
            "p",
            _rec("r1", R, 0, 10),
            _rec("h1", H, 0, 3),
            _rec("h1", H, 5, 9),
        )
        problem = build_regression(_rows([trace], "r1", R), 10.0, ["h1"])
        assert problem.design[0, 0] == pytest.approx(10.0 * (0.3 + 0.4), rel=1e-12)

    def test_failed_records_are_skipped(self):
        trace = _trace(
            "p",
            _rec("r1", R, 0, 10),
            _rec("r1", R, 12, 20, success=False),
            _rec("h1", H, 0, 10),
        )
        problem = build_regression(_rows([trace], "r1", R), 10.0, ["h1"])
        assert problem.n_samples == 1

    def test_design_rows_are_bounded_by_expected_duration(self):
        traces = _synthetic_traces([1.3, 0.7, 1.9], d_hat=12.0, n_rows=20, seed=17)
        problem = build_regression(_rows(traces, "r1", R), 12.0, ["h0", "h1", "h2"])
        assert np.all(problem.design >= 0.0)
        assert np.all(problem.design.sum(axis=1) <= 12.0 + 1e-9)

    def test_records_out_of_start_order(self):
        # Three h1 instances stored last-first.  The reference sums a column in
        # stored order, the sweep in start order: ((c + b) + a) against
        # ((a + b) + c), which differ in the last bit here, so the two agree to
        # rtol 1e-12, not bit for bit.  Stores written by `tandem simulate`
        # keep each lane in start order, where they agree exactly.
        spans = [(0.9, 1.8), (3.1, 3.5), (5.3, 5.9)]
        trace = _trace(
            "p",
            _rec("r1", R, 0, 7),
            *(_rec("h1", H, s, e) for s, e in reversed(spans)),
        )
        problem = build_regression(_rows([trace], "r1", R), 10.0, ["h1"])
        reference = _reference_build_regression([trace], "r1", R, 10.0, ["h1"])
        in_start_order = 0.0
        for s, e in spans:
            in_start_order += (e - s) / 7.0
        assert problem.design[0, 0] == 10.0 * in_start_order
        assert problem.design[0, 0] != reference.design[0, 0]
        np.testing.assert_allclose(problem.design, reference.design, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(problem.response, reference.response, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("config_path", [None, FLEXIBLE_WORKCELL], ids=["default", "flexible"])
    def test_matches_reference_on_simulated_campaigns(self, config_path):
        cfg = load_world_config(config_path)
        human = [t for t, task in cfg.tasks.items() if H in task.eligible_agents]
        robot = [t for t, task in cfg.tasks.items() if R in task.eligible_agents]
        for seed in (3, 11):
            traces = _campaign(cfg, seed, 30)
            kept, stats = cli._kept_executions(traces, "none")
            table = stats_table(stats)
            for (task_id, agent), executions in kept.items():
                counterpart = human if agent is R else robot
                d_hat = table[(task_id, agent)].mean
                got = build_regression(executions, d_hat, counterpart)
                want = _reference_build_regression(traces, task_id, agent, d_hat, counterpart)
                assert got.n_samples == want.n_samples > 0
                assert np.array_equal(got.design, want.design)
                assert np.array_equal(got.response, want.response)


def _problem(X, y):
    return RegressionProblem(np.asarray(y, dtype=float), np.asarray(X, dtype=float))


class TestSolveSynergy:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.5, 4.0, size=(6, 2))
        s_true = np.array([1.5, 0.8])
        fit = solve_synergy(_problem(X, X @ s_true))
        assert np.allclose(fit.coefficients, s_true, atol=1e-9)

    def test_zero_column_convention(self):
        X = np.array([[2.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        y = np.array([4.0, 6.0, 2.0])
        fit = solve_synergy(_problem(X, y))
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert fit.coefficients[1] == 1.0
        assert fit.sample_counts == (3, 0)
        assert fit.std_errors[1] == 0.0

    def test_single_observation(self):
        fit = solve_synergy(_problem([[5.0]], [7.5]))
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-12)
        assert fit.std_errors[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_problem(self):
        with pytest.raises(EmptyProblem):
            solve_synergy(_problem(np.empty((0, 2)), []))

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.1, 3.0, size=(12, 3))
        y = rng.uniform(0.0, 20.0, size=12)
        fit = solve_synergy(_problem(X, y))
        lhs = X.T @ X @ fit.coefficients
        rhs = X.T @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0.1, 3.0, size=(15, 4))
        y = rng.uniform(0.0, 20.0, size=15)
        fit = solve_synergy(_problem(X, y))
        residual = y - X @ fit.coefficients
        for j in range(X.shape[1]):
            bound = 1e-8 * np.linalg.norm(X[:, j]) * np.linalg.norm(y)
            assert abs(residual @ X[:, j]) <= bound

    def test_collinear_columns_are_damped(self):
        col = np.array([1.0, 2.0, 3.0])
        X = np.column_stack([col, 2.0 * col])
        fit = solve_synergy(_problem(X, 3.0 * col))
        assert fit.damped_columns == (0, 1)
        assert np.all(np.isfinite(fit.coefficients))


def _synthetic_traces(s_true, d_hat=10.0, n_rows=24, seed=0):
    """Traces satisfying the overlap model exactly with planted coefficients."""
    rng = np.random.default_rng(seed)
    m = len(s_true)
    traces = []
    for k in range(n_rows):
        weights = rng.uniform(0.05, 1.0, size=m)
        deltas = weights / weights.sum() * rng.uniform(0.3, 0.95)
        duration = d_hat * (1.0 + float(np.dot(np.asarray(s_true) - 1.0, deltas)))
        records = [_rec("r1", R, 0.0, duration)]
        offset = 0.0
        for j, delta in enumerate(deltas):
            length = float(delta) * duration
            records.append(_rec(f"h{j}", H, offset, offset + length))
            offset += length
        traces.append(_trace(f"p{k}", *records))
    return traces


def _stats(traces, *planted):
    """Statistics of every group as `tandem estimate` builds them, the planted ones in place."""
    _, stats = cli._kept_executions(traces, "none")
    return stats_table([*stats, *planted])


class TestEstimateSynergyMatrix:
    def test_recovers_planted_coefficients(self):
        s_true = [2.0, 0.5, 1.0]
        traces = _synthetic_traces(s_true)
        stats = _stats(traces, DurationStats("r1", R, 10.0, 0.0, len(traces)))
        matrix = estimate_synergy_matrix(group_executions(traces), stats)
        for j, expected in enumerate(s_true):
            entry = matrix.get(R, "r1", f"h{j}")
            assert entry.coefficient == pytest.approx(expected, abs=1e-9)
            assert entry.sample_count > 0

    def test_zero_concurrency_gives_neutral_matrix(self):
        traces = [
            _trace("p", _rec("r1", R, 0, 10), _rec("h1", H, 10, 18)),
        ]
        stats = stats_table(
            [DurationStats("r1", R, 10.0, 0.0, 1), DurationStats("h1", H, 8.0, 0.0, 1)]
        )
        matrix = estimate_synergy_matrix(group_executions(traces), stats)
        for agent, own, other in ((R, "r1", "h1"), (H, "h1", "r1")):
            entry = matrix.get(agent, own, other)
            assert entry.coefficient == 1.0
            assert entry.sample_count == 0

    def test_single_overlapping_pair_bookkeeping(self):
        traces = [
            _trace("p", _rec("r1", R, 0, 10), _rec("h1", H, 2, 6)),
        ]
        stats = stats_table(
            [DurationStats("r1", R, 10.0, 0.0, 1), DurationStats("h1", H, 4.0, 0.0, 1)]
        )
        matrix = estimate_synergy_matrix(group_executions(traces), stats)
        assert matrix.get(R, "r1", "h1").sample_count == 1
        assert matrix.get(H, "h1", "r1").sample_count == 1

    def test_missing_side_defaults_without_aborting(self):
        traces = [_trace("p", _rec("r1", R, 0, 10))]
        stats = stats_table([DurationStats("r1", R, 10.0, 0.0, 1)])
        matrix = estimate_synergy_matrix(group_executions(traces), stats)
        # The human executed nothing: no row has a column, and every pair is neutral.
        assert matrix.entries == {R: {}, H: {}}
        assert matrix.get(H, "h1", "r1").sample_count == 0

    def test_missing_stats(self):
        # Statistics for r1 only: the h1 group has none.
        traces = [_trace("p", _rec("r1", R, 0, 10), _rec("h1", H, 2, 6))]
        stats = stats_table([DurationStats("r1", R, 10.0, 0.0, 1)])
        with pytest.raises(MissingDuration) as err:
            estimate_synergy_matrix(group_executions(traces), stats)
        assert (err.value.task_id, err.value.agent) == ("h1", H)
        assert str(err.value) == "no duration statistics for task 'h1' for agent human"

    def test_deterministic(self):
        traces = _synthetic_traces([1.4, 0.9], seed=7)
        stats = _stats(traces, DurationStats("r1", R, 10.0, 0.0, len(traces)))
        first = estimate_synergy_matrix(group_executions(traces), stats)
        second = estimate_synergy_matrix(group_executions(traces), stats)
        assert first == second

    def test_damped_regression_is_logged(self, caplog):
        # h0 and h1 always cover equal fractions of r1: collinear columns.
        traces = []
        for k, (cover, length) in enumerate([(2.0, 9.0), (3.0, 10.0), (1.5, 12.0), (4.0, 11.0)]):
            traces.append(
                _trace(
                    f"p{k}",
                    _rec("r1", R, 0.0, length),
                    _rec("h0", H, 0.0, cover),
                    _rec("h1", H, cover, 2.0 * cover),
                )
            )
        well_posed = _synthetic_traces([1.4, 0.9], seed=7)
        r1 = DurationStats("r1", R, 10.0, 0.0, 4)
        with caplog.at_level(logging.WARNING, logger="tandem.estimator"):
            estimate_synergy_matrix(group_executions(well_posed), _stats(well_posed, r1))
            assert not [m for m in caplog.messages if "damped" in m]
            estimate_synergy_matrix(group_executions(traces), _stats(traces, r1))
        damped = [m for m in caplog.messages if "damped" in m]
        assert damped == ["ill-conditioned regression for r1/robot; damped columns: h0, h1"]

    def test_iqr_strategy_drops_planted_outlier_rows(self):
        traces = _synthetic_traces([1.0, 1.0], d_hat=10.0, n_rows=30, seed=1)
        # One corrupted run: duration far outside anything the model produces.
        traces.append(_trace("bad", _rec("r1", R, 0.0, 500.0)))
        kept, stats = cli._kept_executions(traces, "iqr")
        stats.append(DurationStats("r1", R, 10.0, 0.0, 31))
        clean = estimate_synergy_matrix(kept, stats_table(stats))
        for j in range(2):
            assert clean.get(R, "r1", f"h{j}").coefficient == pytest.approx(1.0, abs=1e-6)


# The filter-twice estimate path that the single group-and-filter pass
# replaced: durations filtered per task type for the statistics, then again
# for each regression, with the dropped executions marked failed in rebuilt
# traces that the regression rescans.  Kept as the reference the single pass
# must equal.


def _reference_duration_stats(traces, strategy):
    samples = {}
    for trace in traces:
        for rec in trace.records:
            if not rec.success:
                continue
            samples.setdefault((rec.task_id, rec.agent), []).append(
                rec.interval.end - rec.interval.start
            )
    stats = []
    for (task_id, agent), values in samples.items():
        kept = [values[i] for i in filter_outliers(values, strategy)]
        mean, std, count = expected_duration(kept)
        stats.append(DurationStats(task_id=task_id, agent=agent, mean=mean, std=std, count=count))
    return stats


def _reference_own_executions(traces, task_id, agent):
    return [
        (trace, rec)
        for trace in traces
        for rec in trace.records
        if rec.task_id == task_id and rec.agent is agent and rec.success
    ]


def _reference_build_regression(traces, own_task_id, own_agent, d_hat, counterpart_tasks):
    columns = {task_id: j for j, task_id in enumerate(counterpart_tasks)}
    m = len(counterpart_tasks)
    rows, response = [], []
    for trace, rec in _reference_own_executions(traces, own_task_id, own_agent):
        deltas = [0.0] * m
        for other in trace.records:
            if other.agent is not own_agent.counterpart or not other.success:
                continue
            j = columns.get(other.task_id)
            if j is not None:
                deltas[j] += overlap_ratio(rec.interval, other.interval)
        covered = math.fsum(deltas)
        rows.append([d_hat * d for d in deltas])
        response.append(rec.interval.end - rec.interval.start - d_hat * (1.0 - covered))
    return RegressionProblem(
        np.asarray(response, dtype=float), np.asarray(rows, dtype=float).reshape(len(rows), m)
    )


def _reference_drop_executions(traces, executions, kept):
    dropped = {id(rec) for k, (_, rec) in enumerate(executions) if k not in kept}
    rebuilt = []
    for trace in traces:
        records = tuple(
            rec
            if id(rec) not in dropped
            else ExecutionRecord(rec.task_id, rec.agent, rec.interval, success=False)
            for rec in trace.records
        )
        rebuilt.append(ExecutionTrace(trace.plan_id, records))
    return rebuilt


def _reference_synergy_matrix(traces, stats, human_ids, robot_ids, strategy):
    entries = {H: {}, R: {}}
    for own_agent, own_ids, counterpart_ids in ((R, robot_ids, human_ids), (H, human_ids, robot_ids)):
        for own_id in own_ids:
            row = [SynergyEntry() for _ in counterpart_ids]
            executions = _reference_own_executions(traces, own_id, own_agent)
            if executions and (own_id, own_agent) in stats:
                durations = [rec.interval.end - rec.interval.start for _, rec in executions]
                kept = set(filter_outliers(durations, strategy))
                filtered = _reference_drop_executions(traces, executions, kept)
                d_hat = stats[(own_id, own_agent)].mean
                fit = solve_synergy(
                    _reference_build_regression(filtered, own_id, own_agent, d_hat, counterpart_ids)
                )
                for j, count in enumerate(fit.sample_counts):
                    if count:
                        coefficient = max(float(fit.coefficients[j]), COEFFICIENT_FLOOR)
                        row[j] = SynergyEntry(coefficient, float(fit.std_errors[j]), count)
            entries[own_agent].update(zip(((own_id, c) for c in counterpart_ids), row))
    return SynergyMatrix(entries)


def _campaign(cfg, seed, n_plans):
    domain = build_domain(cfg)
    traces = []
    for k in range(n_plans):
        program = program_from_plan(domain, random_plan(domain, seed=[seed, k, 0]))
        traces.append(simulate_plan(program, cfg, seed=[seed, k, 1], plan_id=f"plan-{k:04d}"))
    return traces


class TestSinglePassMatchesFilterTwice:
    @pytest.mark.parametrize("config_path", [None, FLEXIBLE_WORKCELL], ids=["default", "flexible"])
    def test_same_stats_and_matrix(self, config_path):
        cfg = load_world_config(config_path)
        for seed in (3, 11):
            traces = _campaign(cfg, seed, 40)
            # The task lists in order of first execution.
            human, robot = (
                list(dict.fromkeys(rec.task_id for t in traces for rec in t.records if rec.agent is a))
                for a in (H, R)
            )
            # One corrupted run: far outside anything the simulator produces.
            traces.append(_trace("bad", _rec(robot[0], R, 0.0, 500.0)))
            counts = {}
            for strategy in ("none", "iqr"):
                kept, stats = cli._kept_executions(traces, strategy)
                want = _reference_duration_stats(traces, strategy)
                assert stats == want
                assert estimate_synergy_matrix(kept, stats_table(stats)) == _reference_synergy_matrix(
                    traces, stats_table(want), human, robot, strategy
                )
                counts[strategy] = {(s.task_id, s.agent): s.count for s in stats}
            # The fence drops the planted run and the strategies differ.
            assert 500.0 not in [duration for duration, _ in kept[(robot[0], R)]]
            assert counts["iqr"] != counts["none"]


class TestKeptExecutions:
    """The estimator's contract: each group's statistics come from the same groups."""

    @pytest.mark.parametrize("strategy", ["none", "iqr"])
    @pytest.mark.parametrize("config_path", [None, FLEXIBLE_WORKCELL], ids=["default", "flexible"])
    def test_stats_match_the_kept_groups(self, config_path, strategy):
        traces = _campaign(load_world_config(config_path), 3, 30)
        kept, stats = cli._kept_executions(traces, strategy)
        assert [(s.task_id, s.agent) for s in stats] == list(kept)
        assert [s.count for s in stats] == [len(group) for group in kept.values()]
