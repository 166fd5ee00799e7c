"""The tandem benchmark: the real pipeline, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

Each repetition imports the package from ``src/``, then runs the ``tandem``
command functions in process, ``simulate -> estimate -> plan -> report``,
against a fresh store, and then validates the chosen plan by simulating it
over a fixed set of validation seeds.  The workload seed only chooses the
flags the program sees.  Output gates check every repetition; any violation
or failed command makes the run exit non-zero.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
repetition twice, untraced and then with every layer's public functions
wrapped (see ``tracer.py``), checks that both leave identical files, and
reports per-layer metrics plus the tracing overhead.  Times are reported in
nominal seconds (see ``Tally.time``).  The last line of standard output is
one JSON object; the lines before it are a readable table with sample counts
and wall-clock medians.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# One process, no extra threads: BLAS would start a pool of nproc threads for
# solves that are at most 8x8.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
from tracer import Span, Target, Tracer, self_times  # noqa: E402

LAYERS = ("config", "simulator", "store", "estimator", "planner", "report", "cli")
COMMANDS = ("simulate", "estimate", "plan", "report")
REPORT_FILES = {
    "durations.csv",
    "coefficients.csv",
    "synergy_human.csv",
    "synergy_human.svg",
    "synergy_robot.csv",
    "synergy_robot.svg",
}
HUMAN_BLUE_TASKS = ("pick_blue_h", "place_blue_h")

# 12 pick/place pairs in both workcells.
RECORDS_PER_PLAN = 24
# The chosen plan is simulated on these seeds whatever the workload seed is.
VALIDATION_SEEDS = tuple([900_001, v] for v in range(25))
# Campaign seeds of the instances that every run plays whatever its seed is.
FIXED_INSTANCE_BASE = 7_000_000
# Set-up is timed this many times before the first repetition, and once more
# before every repetition.
EXTRA_SETUPS = 21


@dataclass(frozen=True)
class Workload:
    name: str
    plans: int  # simulate --plans
    budget: int  # plan --budget
    fixed: int  # campaigns every run plays; the prediction error and failed ratio cover these
    seeded: int  # further campaigns chosen by --seed
    config: str | None = None  # world config under perfbench/, else the built-in one

    def config_path(self) -> str | None:
        return None if self.config is None else str(HERE / self.config)

    def instances(self, seed: int) -> list[int]:
        """Campaign seeds of a run: the fixed ones, then those of `seed`."""
        return [FIXED_INSTANCE_BASE + k for k in range(self.fixed)] + [
            seed * 1000 + k for k in range(self.seeded)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Store writes and reads dominate; the planner does little.
        Workload("campaign", plans=100, budget=100, fixed=20, seeded=2),
        # predict_makespan dominates and assignments are searched too, so the
        # chosen plan really is faster; the store and simulator do little.
        Workload("flexible", plans=30, budget=500, fixed=20, seeded=2, config="flexible.yaml"),
    )
}


class GateError(Exception):
    """An output gate failed or a command did not succeed."""


# -- the speed of the machine ---------------------------------------------------

# Duration of `reference_seconds` on the machine that timings are scaled to.
REFERENCE_NOMINAL_S = 0.005
# Before and after each timed step the reference work runs for about this
# share of the step's time, and at least twice.
REFERENCE_SHARE = 0.1


def reference_seconds() -> float:
    """Time a fixed piece of work that does not change with the program.

    Its mix follows the program's own: Python loops over dicts, tuples and
    floats, as in the planner and the simulator, and JSON encoding, as in
    the store.
    """
    t0 = time.perf_counter()
    lanes: dict[int, tuple[float, float]] = {}
    total = 0.0
    for i in range(6000):
        key = i % 97
        start, end = lanes.get(key, (0.0, 1.0))
        lanes[key] = (end, end + (i % 13) * 0.25)
        total += (end - start) / (1.0 + key)
    json.dumps([{"id": f"r-{k}", "start": a, "end": b, "w": total} for k, (a, b) in lanes.items()] * 8)
    return time.perf_counter() - t0


def reference_spell(seconds: float) -> list[float]:
    """Reference samples lasting about REFERENCE_SHARE of `seconds`, at least two."""
    count = max(2, round(REFERENCE_SHARE * seconds / REFERENCE_NOMINAL_S))
    return [reference_seconds() for _ in range(count)]


@dataclass
class Tally:
    """Operations attempted and failed (plans simulated, candidates
    evaluated, validation simulations), set-up times, reference samples."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    last_s: dict[str, float] = field(default_factory=dict)

    def time(self, step: str, fn, *args):
        """Run fn(*args) between two spells of reference work.

        Returns its wall time, that time scaled to nominal seconds, and its
        result.  A shared host's speed drifts by tens of percent within
        seconds and across minutes, so each step is scaled by how fast the
        reference work ran right before and right after it.  The spell before
        is sized by the step's previous duration.
        """
        samples = reference_spell(self.last_s.get(step, 0.0))
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        samples += reference_spell(elapsed)
        self.last_s[step] = elapsed
        self.reference_s.extend(samples)
        return elapsed, elapsed * REFERENCE_NOMINAL_S / statistics.median(samples), result


# -- the program under test ---------------------------------------------------


def _package_names() -> list[str]:
    return [n for n in sys.modules if n == "tandem" or n.startswith("tandem.")]


def import_program() -> tuple[dict[str, ModuleType], list[ModuleType]]:
    """Import the package from src/ afresh: named modules, all package modules."""
    for name in _package_names():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("tandem.cli")
    origin = Path(sys.modules["tandem"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"tandem was imported from {origin}, not from {SRC}")
    return (
        {name: sys.modules[f"tandem.{name}"] for name in (*LAYERS, "model")},
        [sys.modules[n] for n in _package_names()],
    )


def _observe_upsert(span: Span, args: tuple, kwargs: dict, result) -> None:
    store = args[0]
    collection = args[1] if len(args) > 1 else kwargs["collection"]
    span.info["bytes"] = store.path(collection).stat().st_size


def _observe_report(span: Span, args: tuple, kwargs: dict, written) -> None:
    span.info["bytes"] = sum(Path(p).stat().st_size for p in written)


def layer_targets(m: dict[str, ModuleType]) -> list[Target]:
    """The public function of each layer that the pipeline passes through."""
    store = m["store"].Store
    return [
        Target("config.load_world_config", m["config"], "load_world_config"),
        Target("config.build_domain", m["config"], "build_domain"),
        Target(
            "simulator.simulate_plan", m["simulator"], "simulate_plan",
            lambda span, a, k, trace: span.info.update(records=len(trace.records)),
        ),
        Target("store.upsert_many", store, "upsert_many", _observe_upsert),
        Target("store.export_traces", store, "export_traces"),
        Target("estimator.estimate_synergy_matrix", m["estimator"], "estimate_synergy_matrix"),
        Target(
            "estimator.build_regression", m["estimator"], "build_regression",
            lambda span, a, k, problem: span.info.update(rows=problem.n_samples),
        ),
        Target(
            "estimator.solve_synergy", m["estimator"], "solve_synergy",
            lambda span, a, k, fit: span.info.update(damped=len(fit.damped_columns)),
        ),
        Target("estimator.filter_outliers", m["estimator"], "filter_outliers"),
        Target("planner.optimize_plan", m["planner"], "optimize_plan"),
        Target("planner.predict_makespan", m["planner"], "predict_makespan"),
        Target("planner.random_plan", m["planner"], "random_plan"),
        Target("report.write_report", m["report"], "write_report", _observe_report),
        *(Target(f"cli.{c}", m["cli"], f"cmd_{c}") for c in COMMANDS),
    ]


def candidate_target(m: dict[str, ModuleType]) -> list[Target]:
    """What the untraced run wraps: only predict_makespan, to count candidates
    and the NonConvergence skips that the program does not report."""
    return [Target("planner.predict_makespan", m["planner"], "predict_makespan")]


# -- one repetition -----------------------------------------------------------


@dataclass
class Program:
    modules: dict[str, ModuleType]
    tracer: Tracer
    config: object
    domain: object
    store: Path


@dataclass
class Rep:
    instance: int
    traced: bool
    command_s: dict[str, float]  # nominal seconds
    command_raw_s: dict[str, float]  # wall seconds
    evaluated: int
    nonconverged: int
    predicted: float
    realized: float
    digest: str
    spans: list[Span]
    store_bytes: int

    @property
    def pipeline_s(self) -> float:
        return sum(self.command_s.values())

    @property
    def pipeline_raw_s(self) -> float:
        return sum(self.command_raw_s.values())


def setup(workload: Workload, traced: bool, store: Path, tally: Tally) -> Program:
    """Imports, config load, domain build and a fresh store directory, timed
    without the wrapper installation that sits between the import and the rest."""
    raw, nominal, (modules, package) = tally.time("import", import_program)
    tracer = Tracer()
    tracer.install(package, (layer_targets if traced else candidate_target)(modules))

    def load():
        config = modules["config"].load_world_config(workload.config_path())
        domain = modules["config"].build_domain(config)
        store.mkdir(parents=True)
        return config, domain

    try:
        raw_rest, nominal_rest, (config, domain) = tally.time("load", load)
    except BaseException:
        tracer.uninstall()
        raise
    tally.setup_raw_s.append(raw + raw_rest)
    tally.setup_s.append(nominal + nominal_rest)
    return Program(modules, tracer, config, domain, store)


def call_command(cli: ModuleType, argv: list[str]) -> str:
    """Run one tandem command in process; its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc()
    if code != 0:
        raise GateError(f"`tandem {' '.join(argv)}` exited with {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_pipeline(program: Program, workload: Workload, instance: int, ops: dict[str, int],
                 tally: Tally) -> tuple[dict, dict, dict]:
    """Run the four commands: nominal and wall seconds, and standard output.

    Each command that succeeds drops its entry from `ops`.
    """
    store, seed = str(program.store), str(instance)
    config = ["--config", workload.config_path()] if workload.config else []
    argvs = {
        "simulate": ["simulate", "--store", store, "--plans", str(workload.plans), "--seed", seed, *config],
        "estimate": ["estimate", "--store", store],
        "plan": ["plan", "--store", store, "--budget", str(workload.budget), "--seed", seed, *config],
        "report": ["report", "--store", store],
    }
    nominal, raw, outputs = {}, {}, {}
    for command in COMMANDS:
        # Each command normally starts in a fresh process: collect the garbage
        # the previous one left, outside the timed region.
        gc.collect()
        raw[command], nominal[command], outputs[command] = tally.time(
            command, call_command, program.modules["cli"], argvs[command]
        )
        ops.pop(command, None)
    return nominal, raw, outputs


def run_rep(workload: Workload, instance: int, traced: bool, tally: Tally) -> Rep:
    """One set-up, pipeline, output check and validation of an instance.

    A command that fails counts its operations, and those of every stage
    after it, as failed.
    """
    store = WORK / f"store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    ops = {"simulate": workload.plans, "plan": workload.budget, "validate": len(VALIDATION_SEEDS)}
    tally.attempted += sum(ops.values())
    try:
        program = setup(workload, traced, store, tally)
        try:
            nominal, raw, outputs = run_pipeline(program, workload, instance, ops, tally)
        finally:
            program.tracer.uninstall()
        check_outputs(program, workload, outputs)
        predicted, realized = validate(program)
        ops.pop("validate")
        candidates = [s for s in program.tracer.spans if s.name == "planner.predict_makespan"]
        return Rep(
            instance=instance,
            traced=traced,
            command_s=nominal,
            command_raw_s=raw,
            evaluated=len(candidates),
            nonconverged=sum(s.info.get("failed") == "NonConvergence" for s in candidates),
            predicted=predicted,
            realized=realized,
            digest=digest(store),
            spans=program.tracer.spans if traced else [],
            store_bytes=sum(p.stat().st_size for p in store.glob("*.jsonl")),
        )
    finally:
        tally.failed += sum(ops.values())
        shutil.rmtree(store, ignore_errors=True)


# -- output gates ---------------------------------------------------------------


def check_outputs(program: Program, workload: Workload, outputs: dict[str, str]) -> None:
    store = program.modules["store"].Store(program.store)
    if len(program.domain.instances) != RECORDS_PER_PLAN:
        raise GateError(f"domain has {len(program.domain.instances)} tasks, expected {RECORDS_PER_PLAN}")

    ends: dict[str, list[float]] = {}
    for doc in store.query("task_results"):
        if not doc["success"] or doc["end"] is None:
            raise GateError(f"simulated record {doc['id']} did not succeed")
        ends.setdefault(doc["plan_id"], []).append(doc["end"])
    printed = dict(re.findall(r"^(plan-\d+): makespan (\S+) s$", outputs["simulate"], re.M))
    plans = {doc["id"]: doc for doc in store.query("plans", {"kind": "simulated"})}
    if not (len(ends) == len(printed) == len(plans) == workload.plans):
        raise GateError(
            f"{workload.plans} plans requested; {len(ends)} traced, {len(printed)} printed, "
            f"{len(plans)} stored"
        )
    for plan_id, plan_ends in ends.items():
        makespan = max(plan_ends)
        if len(plan_ends) != RECORDS_PER_PLAN:
            raise GateError(f"{plan_id} has {len(plan_ends)} records, expected {RECORDS_PER_PLAN}")
        if printed.get(plan_id) != f"{makespan:.3f}" or plans.get(plan_id, {}).get("makespan") != makespan:
            raise GateError(f"{plan_id}: makespan does not match its latest record end {makespan}")

    synergy = store.query("task_synergy")
    if not store.query("task_duration") or not synergy:
        raise GateError("estimate wrote no durations or no synergy entries")
    if workload.config is None:  # blue tasks are human-only in the built-in workcell
        penalties = [
            doc for doc in synergy
            if doc["agent"] == "robot" and doc["other_task_id"] in HUMAN_BLUE_TASKS
        ]
        weak = [doc["id"] for doc in penalties if not doc["coefficient"] > 1.0]
        if not penalties or weak:
            raise GateError(f"robot coefficients against human blue tasks not above 1: {weak}")

    optimized = store.get("plans", "optimized")
    if optimized is None:
        raise GateError("plan stored no optimized plan")
    if f"predicted makespan {optimized['makespan']:.3f} s" not in outputs["plan"]:
        raise GateError("printed predicted makespan differs from the stored one")

    written = {Path(p).name for p in re.findall(r"^wrote (.+)$", outputs["report"], re.M)}
    on_disk = {p.name for p in (program.store / "report").iterdir()}
    if written != REPORT_FILES or on_disk != REPORT_FILES:
        raise GateError(f"report wrote {sorted(written)}, found {sorted(on_disk)}")


def validate(program: Program) -> tuple[float, float]:
    """Predicted makespan of the chosen plan and the median of its simulated ones."""
    m = program.modules
    agent = m["model"].AgentId
    doc = m["store"].Store(program.store).get("plans", "optimized")
    plan = m["planner"].CandidatePlan(
        assignment={uid: agent(a) for uid, a in doc["assignment"].items()},
        order={agent(a): tuple(uids) for a, uids in doc["order"].items()},
    )
    m["planner"].validate_plan(program.domain, plan)
    executable = m["simulator"].program_from_plan(program.domain, plan)
    makespans = []
    for seed in VALIDATION_SEEDS:
        trace = m["simulator"].simulate_plan(executable, program.config, seed=seed, plan_id="validate")
        if len(trace.records) != RECORDS_PER_PLAN or not all(r.success for r in trace.records):
            raise GateError(f"validation run {seed} gave {len(trace.records)} records")
        makespans.append(max(r.interval.end for r in trace.records))
    return doc["makespan"], statistics.median(makespans)


def digest(store: Path) -> str:
    """SHA-256 over every file under the store, by path relative to it."""
    h = hashlib.sha256()
    for path in sorted(p for p in store.rglob("*") if p.is_file()):
        h.update(path.relative_to(store).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(seen: dict[int, str], rep: Rep) -> None:
    """Every repetition of an instance in a run, traced or not, writes the
    same files; `seen` holds the first digest of each instance."""
    if seen.setdefault(rep.instance, rep.digest) != rep.digest:
        kind = "traced" if rep.traced else "untraced"
        raise GateError(f"{kind} repetition of instance {rep.instance} wrote different files")


# -- metrics --------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_note(values: list[float]) -> str:
    """Sample count, plus the highest percentile with at least 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return f"n={len(values)}, p{q:g} {percentile(values, q):.6g}"
    return f"n={len(values)}"


class Metrics:
    """Named values with units, plus a note on the samples behind each."""

    def __init__(self):
        self.values: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.values[name] = {"value": value, "unit": unit}
        self.notes[name] = note

    def median(self, name: str, samples: list[float], unit: str, raw: list[float] | None = None) -> None:
        """Median of nominal-time samples; `raw` are the same samples in wall time."""
        note = f"median, {tail_note(samples)}"
        if raw is not None:
            note += f"; wall-clock median {statistics.median(raw):.6g}"
        self.add(name, statistics.median(samples), unit, note)


def end_to_end_metrics(workload: Workload, reps: list[Rep], tally: Tally) -> Metrics:
    out = Metrics()
    out.median("setup_s", tally.setup_s, "s", tally.setup_raw_s)
    out.median("pipeline_s", [r.pipeline_s for r in reps], "s", [r.pipeline_raw_s for r in reps])

    out.median("simulate_plans_per_s", [workload.plans / r.command_s["simulate"] for r in reps], "plans/s",
               [workload.plans / r.command_raw_s["simulate"] for r in reps])
    out.median("estimate_s", [r.command_s["estimate"] for r in reps], "s",
               [r.command_raw_s["estimate"] for r in reps])
    out.median("plan_candidates_per_s", [r.evaluated / r.command_s["plan"] for r in reps], "candidates/s",
               [r.evaluated / r.command_raw_s["plan"] for r in reps])

    # Quality: exact per instance.  Repetitions cycle through the instances,
    # fixed ones first.  The makespans average over all of a run's instances;
    # the error and the failed ratio over the fixed ones only, so they are
    # the same for every seed and a small change in them is a real one.
    first = reps[: workload.fixed + workload.seeded]
    fixed = first[: workload.fixed]
    note = f"mean over {len(first)} campaigns"
    evaluated = sum(r.evaluated for r in fixed)
    out.add("best_predicted_makespan_s", statistics.fmean(r.predicted for r in first), "s", note)
    out.add("best_realized_makespan_s", statistics.fmean(r.realized for r in first), "s",
            f"{note}; median over {len(VALIDATION_SEEDS)} validation seeds each")
    out.add("prediction_error_pct",
            100.0 * statistics.fmean(abs(r.predicted - r.realized) / r.realized for r in fixed), "%",
            f"mean over the {len(fixed)} fixed campaigns")
    out.add("candidates_failed_ratio", sum(r.nonconverged for r in fixed) / evaluated, "ratio",
            f"over {evaluated} candidates of the {len(fixed)} fixed campaigns")
    out.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
            "whole process")
    return out


def layer_values(rep: Rep) -> dict[str, float]:
    """Per-layer totals of one traced repetition, times in nominal seconds."""
    scale = rep.pipeline_s / rep.pipeline_raw_s
    by_name: dict[str, list[tuple[Span, float]]] = {}
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(rep.spans, self_times(rep.spans)):
        by_name.setdefault(span.name, []).append((span, own))
        per_layer[span.layer] += own * scale

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return scale * sum(s.duration for s, _ in by_name.get(name, ()))

    def own(name):
        return scale * sum(o for _, o in by_name.get(name, ()))

    def info(name, key):
        return sum(s.info.get(key, 0) for s, _ in by_name.get(name, ()))

    rewritten = info("store.upsert_many", "bytes")
    values = {
        "store.upsert_many.calls": calls("store.upsert_many"),
        "store.upsert_many.busy_s": busy("store.upsert_many"),
        "store.bytes_rewritten": rewritten,
        "store.write_amplification": rewritten / rep.store_bytes,
        "store.export_traces.calls": calls("store.export_traces"),
        "store.export_traces.busy_s": busy("store.export_traces"),
        "simulator.simulate_plan.calls": calls("simulator.simulate_plan"),
        "simulator.simulate_plan.busy_s": busy("simulator.simulate_plan"),
        "simulator.records_per_s": info("simulator.simulate_plan", "records") / busy("simulator.simulate_plan"),
        "planner.predict_makespan.calls": calls("planner.predict_makespan"),
        "planner.predict_makespan.failed": sum(
            "failed" in s.info for s, _ in by_name.get("planner.predict_makespan", ())
        ),
        "planner.predict_makespan.busy_s": busy("planner.predict_makespan"),
        "planner.random_plan.calls": calls("planner.random_plan"),
        "planner.random_plan.busy_s": busy("planner.random_plan"),
        "planner.optimize_plan.self_s": own("planner.optimize_plan"),
        "estimator.estimate_synergy_matrix.busy_s": busy("estimator.estimate_synergy_matrix"),
        "estimator.build_regression.calls": calls("estimator.build_regression"),
        "estimator.build_regression.busy_s": busy("estimator.build_regression"),
        "estimator.build_regression.rows": info("estimator.build_regression", "rows"),
        "estimator.solve_synergy.busy_s": busy("estimator.solve_synergy"),
        "estimator.solve_synergy.damped_columns": info("estimator.solve_synergy", "damped"),
        "estimator.filter_outliers.calls": calls("estimator.filter_outliers"),
        "report.write_report.busy_s": busy("report.write_report"),
        "report.bytes_written": info("report.write_report", "bytes"),
        "config.load_world_config.busy_s": busy("config.load_world_config"),
        "config.build_domain.busy_s": busy("config.build_domain"),
    }
    for command in COMMANDS:
        values[f"cli.{command}.busy_s"] = busy(f"cli.{command}")
        values[f"cli.{command}.self_s"] = own(f"cli.{command}")
    for layer, seconds in per_layer.items():
        values[f"{layer}.self_s"] = seconds
    return values


LAYER_UNITS = {"calls": "count", "failed": "count", "rows": "count", "damped_columns": "count",
               "bytes_rewritten": "B", "bytes_written": "B", "write_amplification": "ratio",
               "records_per_s": "records/s"}


def per_layer_metrics(pairs: list[tuple[Rep, Rep]]) -> Metrics:
    """Medians over the traced repetitions; each pair is (untraced, traced)."""
    out = Metrics()
    traced = [t for _, t in pairs]
    per_rep = [layer_values(rep) for rep in traced]
    for name in per_rep[0]:
        out.median(name, [v[name] for v in per_rep], LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
    for name in ("store.upsert_many", "simulator.simulate_plan", "planner.predict_makespan"):
        ms = [
            s.duration * 1e3 * rep.pipeline_s / rep.pipeline_raw_s
            for rep in traced for s in rep.spans if s.name == name
        ]
        beyond = len(ms) * 0.01
        out.add(f"{name}.ms_p50", percentile(ms, 50.0), "ms", f"over {len(ms)} calls")
        out.add(f"{name}.ms_p99", percentile(ms, 99.0), "ms",
                f"over {len(ms)} calls, {beyond:.0f} beyond" + (" (fewer than 10)" if beyond < 10 else ""))
    out.median("tracing.overhead_s", [t.pipeline_s - u.pipeline_s for u, t in pairs], "s",
               [t.pipeline_raw_s - u.pipeline_raw_s for u, t in pairs])
    out.median("tracing.overhead_pct", [100.0 * (t.pipeline_s / u.pipeline_s - 1.0) for u, t in pairs], "%")
    return out


# -- the run --------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tally: Tally) -> Metrics:
    """Repeat the pipeline over the workload's instances until `seconds` pass.

    Untraced, repetitions run in whole passes over the instances, so that
    every run times the same mix of campaigns.  Traced, each repetition is a
    pair of an untraced and a traced run of the same instance.  Another pass
    or pair starts only if one as long as the last still ends before the
    deadline, and at least one always runs.
    """
    instances = workload.instances(seed)
    digests: dict[int, str] = {}
    store = WORK / f"store-{os.getpid()}"
    import_program()  # numpy and yaml load here, outside every timed set-up
    for _ in range(EXTRA_SETUPS):
        setup(workload, False, store, tally).tracer.uninstall()
        shutil.rmtree(store)

    reps: list[Rep] = []
    pairs: list[tuple[Rep, Rep]] = []
    step = 1 if trace else len(instances)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        started = time.perf_counter()
        for _ in range(step):
            instance = instances[k % len(instances)]
            # Traced pairs alternate which run goes first, so that the second
            # run of a pair being warmer does not bias the tracing overhead.
            order = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
            pair = {traced: run_rep(workload, instance, traced, tally) for traced in order}
            for rep in pair.values():
                check_digest(digests, rep)
            reps.append(pair[False])
            if trace:
                pairs.append((pair[False], pair[True]))
            k += 1
        now = time.perf_counter()
        if 2 * now - started > deadline:
            break
    return per_layer_metrics(pairs) if trace else end_to_end_metrics(workload, reps, tally)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    try:
        metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace), tally)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"perfbench: output gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted, "failed": tally.failed,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK / f"store-{os.getpid()}", ignore_errors=True)
    correct = tally.failed == 0
    print(f"# {workload.name} seed {args.seed} trace {args.trace}: {tally.attempted} operations "
          f"attempted, {tally.failed} failed; reference work median "
          f"{statistics.median(tally.reference_s) * 1e3:.3f} ms over {len(tally.reference_s)} "
          f"samples, nominal {REFERENCE_NOMINAL_S * 1e3:g} ms")
    for name, entry in metrics.values.items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']:<12} {metrics.notes[name]}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics.values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
