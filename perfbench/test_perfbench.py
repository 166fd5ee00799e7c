"""Self-checks of the benchmark: tracer arithmetic, wrapper coverage, gates,
and the metric names against BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

TINY = run.Workload("test-tiny", plans=20, budget=30, fixed=1, seeded=1)
TINY_FLEXIBLE = run.Workload("test-tiny-flexible", plans=12, budget=30, fixed=1, seeded=0,
                             config="flexible.yaml")


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def declared(section: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


def test_self_time_subtracts_only_direct_children():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("b.leaf", lambda: None)
    mid = tracer.wrap("b.mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("a.top", lambda: (mid(), leaf()))
    top()
    # Clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid end 6, leaf 7-8, top end 9.
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("a.top", 0, 9, -1), ("b.mid", 1, 6, 0), ("b.leaf", 2, 3, 1),
        ("b.leaf", 4, 5, 1), ("b.leaf", 7, 8, 0),
    ]
    assert self_times(tracer.spans) == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]


def test_failed_call_is_marked_and_propagates():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("a.boom", boom)()
    assert tracer.spans[0].info == {"failed": "KeyError"} and tracer.spans[0].end >= tracer.spans[0].start


def test_wrappers_cover_every_name_and_originals_come_back():
    modules, package = run.import_program()
    targets = run.layer_targets(modules)
    originals = {t.name: vars(t.owner)[t.attr] for t in targets}
    before = {(m.__name__, k): v for m in package for k, v in vars(m).items()}

    tracer = Tracer()
    tracer.install(package, targets)
    try:
        wrapped = {id(fn) for fn in originals.values()}
        leftover = [(m.__name__, k) for m in package for k, v in vars(m).items() if id(v) in wrapped]
        assert leftover == []
        # The names callers resolve: cli imports these by name; planner and
        # estimator call their own module globals; Store methods go through self.
        cli, planner, estimator = modules["cli"], modules["planner"], modules["estimator"]
        for owner, attr in [
            (cli, "simulate_plan"), (cli, "random_plan"), (cli, "optimize_plan"),
            (cli, "estimate_synergy_matrix"), (cli, "filter_outliers"),
            (planner, "predict_makespan"), (planner, "random_plan"),
            (estimator, "build_regression"), (estimator, "solve_synergy"),
            (estimator, "filter_outliers"), (modules["store"].Store, "upsert_many"),
        ]:
            assert id(getattr(owner, attr).__wrapped__) in wrapped, (owner, attr)
        assert {t.name for t in targets} == set(originals)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in package for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(vars(t.owner)[t.attr] is originals[t.name] for t in targets)


def test_traced_run_reaches_every_wrapper_and_prints_declared_layer_metrics():
    metrics = run.run_workload(TINY, seed=3, seconds=0, trace=True, tally=run.Tally())
    assert set(metrics.values) == declared("per_layer")
    values = {name: entry["value"] for name, entry in metrics.values.items()}
    for name in ("store.upsert_many", "store.export_traces", "simulator.simulate_plan",
                 "planner.predict_makespan", "planner.random_plan",
                 "estimator.build_regression", "estimator.filter_outliers"):
        assert values[f"{name}.calls"] > 0, name
    for name in ("estimator.estimate_synergy_matrix", "estimator.solve_synergy",
                 "report.write_report", "config.load_world_config", "config.build_domain",
                 "cli.simulate", "cli.estimate", "cli.plan", "cli.report"):
        assert values[f"{name}.busy_s"] > 0, name
    assert values["planner.predict_makespan.calls"] == TINY.budget
    assert values["simulator.simulate_plan.calls"] == TINY.plans
    # Every record is one row of its own task type's regression.
    assert values["estimator.build_regression.rows"] == run.RECORDS_PER_PLAN * TINY.plans
    assert values["store.write_amplification"] >= 1.0


def test_untraced_run_prints_declared_end_to_end_metrics():
    tally = run.Tally()
    metrics = run.run_workload(TINY_FLEXIBLE, seed=3, seconds=0, trace=False, tally=tally)
    assert set(metrics.values) == declared("end_to_end")
    values = {name: entry["value"] for name, entry in metrics.values.items()}
    # 30 candidates may all converge; the real workloads evaluate thousands.
    assert values.pop("candidates_failed_ratio") >= 0
    assert all(value > 0 for value in values.values())
    per_rep = TINY_FLEXIBLE.plans + TINY_FLEXIBLE.budget + len(run.VALIDATION_SEEDS)
    assert (tally.attempted, tally.failed) == (per_rep, 0)


def test_quality_metrics_repeat_exactly():
    first = run.run_workload(TINY, seed=5, seconds=0, trace=False, tally=run.Tally()).values
    second = run.run_workload(TINY, seed=5, seconds=0, trace=False, tally=run.Tally()).values
    other = run.run_workload(TINY, seed=6, seconds=0, trace=False, tally=run.Tally()).values
    for name in ("best_predicted_makespan_s", "best_realized_makespan_s",
                 "prediction_error_pct", "candidates_failed_ratio"):
        assert first[name] == second[name], name
    # The error and the failed ratio cover only the campaigns every seed plays.
    for name in ("prediction_error_pct", "candidates_failed_ratio"):
        assert first[name] == other[name], name
    assert first["best_predicted_makespan_s"] != other["best_predicted_makespan_s"]


def test_penalty_gate_fails_on_columns_that_do_not_slow_the_robot(monkeypatch):
    # Human white tasks leave the robot at full speed: coefficients below 1.
    monkeypatch.setattr(run, "HUMAN_BLUE_TASKS", ("pick_white", "place_white"))
    workload = run.Workload("test-gate", plans=20, budget=10, fixed=1, seeded=0)
    tally = run.Tally()
    with pytest.raises(run.GateError, match="human blue tasks not above 1"):
        run.run_workload(workload, seed=1, seconds=0, trace=False, tally=tally)
    assert tally.failed == len(run.VALIDATION_SEEDS)  # the commands themselves succeeded


def test_failing_command_counts_its_operations_as_failed(monkeypatch):
    tally = run.Tally()
    monkeypatch.setattr(run, "COMMANDS", ("simulate", "plan", "estimate", "report"))
    with pytest.raises(run.GateError, match="plan"):
        run.run_workload(TINY, seed=1, seconds=0, trace=False, tally=tally)
    assert tally.failed == TINY.budget + len(run.VALIDATION_SEEDS)


def test_digest_check_rejects_different_files():
    seen: dict[int, str] = {}
    rep = type("R", (), {"instance": 1000, "traced": False, "digest": "a"})()
    run.check_digest(seen, rep)
    run.check_digest(seen, rep)
    rep.digest, rep.traced = "b", True
    with pytest.raises(run.GateError, match="traced repetition"):
        run.check_digest(seen, rep)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
