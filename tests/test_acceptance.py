"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line once its assertions hold, so `pytest -v -s
tests/test_acceptance.py` reads as a checklist.  The campaign fixture runs the
real CLI (`simulate --plans 50 --seed 1`, then `estimate`) once per session.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np
import pytest

from tandem import cli
from tandem.config import load_world_config
from tandem.estimator import (
    ExecutionRecord,
    ExecutionTrace,
    RegressionProblem,
    build_regression,
    filter_outliers,
    group_executions,
    solve_synergy,
)
from tandem.model import (
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    coupled_lane_durations,
    overlap_pairs,
)
from tandem.planner import (
    CandidatePlan,
    PlanningDomain,
    TaskInstance,
    optimize_plan,
    predict_makespan,
)
from tandem.store import Store

from interval_algebra import interval_intersection, overlap_ratio

H, R = AgentId.HUMAN, AgentId.ROBOT

BLUE_COLUMNS = ("pick_blue_h", "place_blue_h")
WHITE_COLUMNS = ("pick_white", "place_white")
ROBOT_ROWS = ("pick_orange", "place_orange", "pick_blue_r", "place_blue_r")


def test_criterion_1_blue_box_penalty_is_learned(campaign):
    """Robot rows: s >= 1.10 against human blue tasks, <= 1.10 against white."""
    store_dir, elapsed = campaign
    store = Store(store_dir)
    coeff = {
        (doc["task_id"], doc["other_task_id"]): doc["coefficient"]
        for doc in store.query("task_synergy", {"agent": "robot"})
    }
    for own in ROBOT_ROWS:
        for other in BLUE_COLUMNS:
            assert coeff[(own, other)] >= 1.10, (own, other, coeff[(own, other)])
        for other in WHITE_COLUMNS:
            assert coeff[(own, other)] <= 1.10, (own, other, coeff[(own, other)])
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (blue-box penalty learned, {elapsed:.1f}s campaign): PASS")


def test_criterion_2_noise_free_synergy_recovery():
    """Planted coefficients 0.8 / 1.0 / 1.5 / 2.0 recovered within 1e-9."""
    s_true = np.array([0.8, 1.0, 1.5, 2.0])
    d_hat = 10.0
    rng = np.random.default_rng(2024)
    traces = []
    for k in range(40):
        weights = rng.uniform(0.05, 1.0, size=4)
        deltas = weights / weights.sum() * rng.uniform(0.3, 0.95)
        duration = d_hat * (1.0 + float((s_true - 1.0) @ deltas))
        records = [ExecutionRecord("own", R, TimeInterval(0.0, duration), True)]
        offset = 0.0
        for j, delta in enumerate(deltas):
            length = float(delta) * duration
            records.append(
                ExecutionRecord(f"h{j}", H, TimeInterval(offset, offset + length), True)
            )
            offset += length
        traces.append(ExecutionTrace(f"p{k}", tuple(records)))

    executions = group_executions(traces)[("own", R)]
    problem = build_regression(executions, d_hat, [f"h{j}" for j in range(4)])
    fit = solve_synergy(problem)
    assert np.all(np.abs(fit.coefficients - s_true) <= 1e-9), fit.coefficients
    print("\nACCEPTANCE 2 (noise-free recovery of 0.8/1.0/1.5/2.0 within 1e-9): PASS")


def test_criterion_3_ols_matches_pseudo_inverse_oracle():
    """100 random full-rank problems: 1e-6 vs pinv, residuals orthogonal."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(5, 21))
        m = int(rng.integers(1, 6))
        while True:
            X = rng.uniform(0.5, 2.0, size=(n, m))
            if np.linalg.cond(X.T @ X) < 1e8:
                break
        y = rng.uniform(0.0, 30.0, size=n)
        problem = RegressionProblem(y, X)
        fit = solve_synergy(problem)
        oracle = np.linalg.pinv(X) @ y
        assert np.all(np.abs(fit.coefficients - oracle) <= 1e-6)
        residual = y - X @ fit.coefficients
        for j in range(m):
            bound = 1e-8 * np.linalg.norm(X[:, j]) * np.linalg.norm(y)
            assert abs(residual @ X[:, j]) <= bound
    print("\nACCEPTANCE 3 (OLS pseudo-inverse oracle, 100 problems): PASS")


def test_criterion_4_cost_model_reduces_to_nominal_sums():
    """1000 randomized schedules with unit synergy match the nominal sums."""
    rng = np.random.default_rng(44)
    for _ in range(1000):
        lanes = []
        for _ in range(2):  # the human lane, then the robot lane
            means, starts, ends = [], [], []
            t = 0.0
            for _ in range(int(rng.integers(1, 7))):
                means.append(float(rng.uniform(0.5, 60.0)))
                t += float(rng.uniform(0.0, 5.0))
                end = t + float(rng.uniform(0.1, 20.0))
                starts.append(t)
                ends.append(end)
                t = end
            lanes.append((means, starts, ends))
        (h_means, h_starts, h_ends), (r_means, r_starts, r_ends) = lanes
        n_human = len(h_means)
        rows = [[1.0] * len(r_means)] * n_human + [[1.0] * n_human] * len(r_means)
        durations = coupled_lane_durations(
            h_means + r_means, rows, h_starts + r_starts, h_ends + r_ends, n_human
        )
        for lane, means in ((durations[:n_human], h_means), (durations[n_human:], r_means)):
            assert abs(sum(lane) - sum(means)) <= 1e-12
    print("\nACCEPTANCE 4 (unit-synergy reduction within 1e-12, 1000 schedules): PASS")


def test_criterion_5_interval_algebra_suite():
    """1000 randomized pairs: ratio range, commutativity, sequential sums.

    The interval algebra is the tests' oracle; each lane of counterpart
    intervals also checks `overlap_pairs` against it.
    """
    rng = np.random.default_rng(55)
    for _ in range(1000):
        a_start = float(rng.uniform(0, 100))
        a = TimeInterval(a_start, a_start + float(rng.uniform(0.001, 50)))
        b_start = float(rng.uniform(0, 100))
        b = TimeInterval(b_start, b_start + float(rng.uniform(0, 50)))
        assert interval_intersection(a, b) == interval_intersection(b, a)
        delta = overlap_ratio(a, b)
        assert 0.0 <= delta <= 1.0

        t = float(rng.uniform(0, 80))
        others = []
        for _ in range(int(rng.integers(1, 9))):
            t += float(rng.uniform(0.0, 4.0))
            end = t + float(rng.uniform(0.05, 12.0))
            others.append(TimeInterval(t, end))
            t = end
        ratios = [overlap_ratio(a, other) for other in others]
        assert math.fsum(ratios) <= 1.0 + 1e-12
        assert overlap_pairs(
            [a.start], [a.end], [o.start for o in others], [o.end for o in others]
        ) == [[(k, r) for k, r in enumerate(ratios) if r > 0.0]]
    print("\nACCEPTANCE 5 (interval suite, 1000 randomized pairs): PASS")


def _zone_breakpoints(human_records, config):
    """Human zone timeline as (time, factor-from-here) steps; test-local oracle."""
    steps = []
    for rec in human_records:
        profile = config.tasks[rec.task_id].profile
        duration = rec.interval.end - rec.interval.start
        red_end = rec.interval.start + profile.red * duration
        orange_end = red_end + profile.orange * duration
        steps.append((rec.interval.start, config.speed_factors["red"], red_end))
        steps.append((red_end, config.speed_factors["orange"], orange_end))
        steps.append((orange_end, config.speed_factors["free"], rec.interval.end))
    return steps


def _integrated_factor(interval, human_records, config):
    integral = interval.end - interval.start
    for start, factor, end in _zone_breakpoints(human_records, config):
        lo = max(interval.start, start)
        hi = min(interval.end, end)
        if hi > lo:
            integral -= (1.0 - factor) * (hi - lo)
    return integral


def test_criterion_6_work_conservation_and_determinism(campaign, tmp_path):
    """Robot work equals base within 1e-6; identical seeds, identical bytes."""
    store_dir, _ = campaign
    config = load_world_config()
    store = Store(store_dir)
    checked = 0
    for trace in store.export_traces():
        human_records = [r for r in trace.records if r.agent is H]
        for rec in trace.records:
            if rec.agent is not R:
                continue
            work = _integrated_factor(rec.interval, human_records, config)
            base = config.tasks[rec.task_id].base_duration
            assert abs(work - base) <= 1e-6, (trace.plan_id, rec.task_id, work, base)
            checked += 1
    assert checked == 50 * 12  # 12 robot tasks per plan

    rerun = tmp_path / "rerun"
    assert cli.main(["simulate", "--plans", "50", "--seed", "1", "--store", str(rerun)]) == 0
    assert (
        (rerun / "task_results.jsonl").read_bytes()
        == (store_dir / "task_results.jsonl").read_bytes()
    )
    print(f"\nACCEPTANCE 6 (work conservation on {checked} robot tasks, bit-equal rerun): PASS")


def _brute_force_optimum(domain, stats, synergy):
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

    eligible = [sorted(inst.eligible, key=lambda a: a.value) for inst in domain.instances]
    best = math.inf
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


def test_criterion_7_planner_sanity(campaign):
    """Exhaustive optimum on a 4-task domain; beats the campaign median."""
    both = frozenset({H, R})
    domain = PlanningDomain(
        (
            TaskInstance("pick0", "tp0", both),
            TaskInstance("place0", "tl0", both),
            TaskInstance("pick1", "tp1", both),
            TaskInstance("place1", "tl1", both),
        ),
        (("pick0", "place0"), ("pick1", "place1")),
    )
    stats = {}
    for inst, mean in zip(domain.instances, (8.0, 6.0, 8.0, 6.0)):
        for agent in (H, R):
            stats[(inst.spec_id, agent)] = DurationStats(inst.spec_id, agent, mean, 0.0, 5)
    synergy = SynergyMatrix(
        {
            R: {("tp0", "tp1"): SynergyEntry(3.0, 0.0, 9), ("tl0", "tl1"): SynergyEntry(2.0, 0.0, 9)},
            H: {("tp1", "tp0"): SynergyEntry(3.0, 0.0, 9), ("tl1", "tl0"): SynergyEntry(2.0, 0.0, 9)},
        }
    )
    _, cost = optimize_plan(domain, stats, synergy, budget=10_000)
    oracle = _brute_force_optimum(domain, stats, synergy)
    assert cost == pytest.approx(oracle, abs=1e-9)

    store_dir, _ = campaign
    assert cli.main(["plan", "--store", str(store_dir), "--budget", "2000", "--seed", "1"]) == 0
    store = Store(store_dir)
    optimized = store.get("plans", "optimized")
    simulated = [doc["makespan"] for doc in store.query("plans", {"kind": "simulated"})]
    median = statistics.median(simulated)
    assert optimized["makespan"] <= median, (optimized["makespan"], median)
    print(
        f"\nACCEPTANCE 7 (exhaustive optimum {oracle:.3f}; "
        f"optimized {optimized['makespan']:.3f} <= median {median:.3f}): PASS"
    )


def _random_documents(rng):
    agents = ("human", "robot")
    words = ("table", "shelf", "bin", "rack", "tray", "näve", "交接区")

    def word():
        return words[int(rng.integers(len(words)))]

    results, durations, synergies, plans = [], [], [], []
    for i in range(1000):
        start = float(rng.uniform(0, 500))
        results.append(
            {
                "id": f"p{i // 20:03d}:{i % 20:04d}",
                "plan_id": f"p{i // 20:03d}",
                # Non-ASCII text round-trips too.
                "task_id": f"{word()}-{int(rng.integers(100)):04d}",
                "agent": agents[int(rng.integers(2))],
                "start": start,
                "end": start + float(rng.uniform(0.1, 60)),
                "success": bool(rng.integers(0, 2)),
            }
        )
        durations.append(
            {
                "id": f"task-{i:04d}:{agents[i % 2]}",
                "task_id": f"task-{i:04d}",
                "agent": agents[i % 2],
                "mean": float(rng.uniform(0.5, 60)),
                "std": float(rng.uniform(0, 5)),
                "count": int(rng.integers(1, 400)),
            }
        )
        synergies.append(
            {
                "id": f"{agents[i % 2]}:own-{i:04d}:other-{i:04d}",
                "agent": agents[i % 2],
                "task_id": f"own-{i:04d}",
                "other_task_id": f"other-{i:04d}",
                "coefficient": float(rng.uniform(0.2, 4.0)),
                "std_error": float(rng.uniform(0, 0.5)),
                "sample_count": int(rng.integers(0, 300)),
            }
        )
        plans.append(
            {
                "id": f"plan-{i:04d}",
                "assignment": {f"t{j}": agents[int(rng.integers(2))] for j in range(4)},
                "order": {"human": [f"t{j}" for j in range(2)], "robot": [f"t{j}" for j in range(2, 4)]},
                "makespan": float(rng.uniform(10, 500)),
                "kind": "simulated",
            }
        )
    return {
        "task_results": results,
        "task_duration": durations,
        "task_synergy": synergies,
        "plans": plans,
    }


def test_criterion_8_store_round_trips(campaign, tmp_path):
    """1000 random documents per collection survive rewrite byte-identically."""
    rng = np.random.default_rng(88)
    documents = _random_documents(rng)
    first = Store(tmp_path / "first")
    for collection, docs in documents.items():
        first.upsert_many(collection, docs)
    snapshots = {
        collection: (tmp_path / "first" / f"{collection}.jsonl").read_bytes()
        for collection in documents
    }
    # write -> read -> rewrite into a fresh store
    copy = Store(tmp_path / "copy")
    for collection in documents:
        copy.upsert_many(collection, Store(tmp_path / "first").query(collection))
        assert (tmp_path / "copy" / f"{collection}.jsonl").read_bytes() == snapshots[collection]
    # rewriting the same documents in place changes nothing
    for collection, docs in documents.items():
        first.upsert_many(collection, docs)
        assert (tmp_path / "first" / f"{collection}.jsonl").read_bytes() == snapshots[collection]

    # export -> re-import of real campaign traces is lossless
    store_dir, _ = campaign
    source = Store(store_dir)
    reimported = Store(tmp_path / "reimport")
    reimported.record_traces(source.export_traces())
    assert (
        (tmp_path / "reimport" / "task_results.jsonl").read_bytes()
        == (store_dir / "task_results.jsonl").read_bytes()
    )
    print("\nACCEPTANCE 8 (store round trips, 4x1000 documents + trace reimport): PASS")


def test_criterion_9_outlier_fence():
    """All 5 far-out injections removed; at most 5 baseline casualties."""
    rng = np.random.default_rng(99)
    baseline = list(rng.normal(20.0, 2.0, size=100))
    q1, q3 = np.percentile(baseline, [25, 75])
    far = q3 + 5.0 * 1.5 * (q3 - q1)
    injected = [far * 2, far * 3, far * 2.5, far * 4, far * 5]
    samples = baseline + injected
    removed = set(range(len(samples))) - set(filter_outliers(samples, "iqr"))
    assert {100, 101, 102, 103, 104} <= removed
    assert len(removed - {100, 101, 102, 103, 104}) <= 5
    print("\nACCEPTANCE 9 (IQR fence removes 5/5 injected, few baseline): PASS")
