"""Command-line front end: simulate, estimate, plan, report.

A campaign run composes the whole pipeline against one store directory::

    tandem simulate --store runs/demo --plans 50 --seed 1
    tandem estimate --store runs/demo
    tandem plan     --store runs/demo --budget 2000
    tandem report   --store runs/demo --out runs/demo/report

``estimate`` reads the traces once, groups the successful executions by
(task type, agent) and filters each group's outliers once; the kept
executions give both the duration statistics and the synergy regressions.

Every command is deterministic given its flags, config, and seed.  The store
root defaults to the TANDEM_STORE environment variable, then ./tandem_store.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

from . import config as worldcfg
from . import report as reporting
from .errors import CorruptStore, EmptyStore, MissingEstimates, TandemError
from .estimator import (
    ExecutionTrace,
    Executions,
    estimate_synergy_matrix,
    expected_duration,
    filter_outliers,
    group_executions,
)
from .model import (
    AgentId,
    DurationStats,
    StatsMap,
    SynergyEntry,
    SynergyMatrix,
    interval_duration,
    stats_table,
)
from .planner import CandidatePlan, optimize_plan, random_plan
from .simulator import program_from_plan, simulate_plan
from .store import Store, _line_of

ENV_STORE = "TANDEM_STORE"
DEFAULT_STORE = "tandem_store"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _store_root(args: argparse.Namespace) -> Path:
    if args.store:
        return Path(args.store)
    return Path(os.environ.get(ENV_STORE, DEFAULT_STORE))


def _catalog_docs(cfg: worldcfg.WorldConfig) -> list[dict]:
    return [
        {
            "id": task.spec.id,
            "action": task.spec.action.value,
            "agents": sorted(a.value for a in task.spec.eligible_agents),
            "region": task.spec.region,
            "description": task.spec.description,
        }
        for task in cfg.tasks.values()
    ]


def _plan_doc(plan_id: str, plan: CandidatePlan, makespan: float, kind: str) -> dict:
    return {
        "id": plan_id,
        "assignment": {uid: agent.value for uid, agent in plan.assignment.items()},
        "order": {agent.value: list(plan.order[agent]) for agent in AgentId},
        "makespan": makespan,
        "kind": kind,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate `--plans` random plans and store their records and plan documents.

    The catalog, the campaign's task_results and its plans are each written
    with one upsert, in that order, after every plan has been simulated: a
    fresh store is appended to once per collection, and a rerun rewrites each
    file once.  The campaign is durable as a unit when the command returns,
    and a plan's line is printed only once it is on disk.  A run that dies
    part-way leaves no plan documents; the same seed reproduces it.
    """
    cfg = worldcfg.load_world_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if args.plans < 1:
        raise ValueError(f"plan count must be at least 1, got {args.plans}")
    domain = worldcfg.build_domain(cfg)
    store = Store(_store_root(args))
    store.upsert_many("task_properties", _catalog_docs(cfg))

    traces = []
    plan_docs = []
    for k in range(args.plans):
        plan = random_plan(domain, seed=[seed, k, 0])
        program = program_from_plan(domain, plan)
        plan_id = f"plan-{k:04d}"
        trace = simulate_plan(program, cfg, seed=[seed, k, 1], plan_id=plan_id)
        traces.append(trace)
        makespan = max(rec.interval.end for rec in trace.records)
        plan_docs.append(_plan_doc(plan_id, plan, makespan, "simulated"))
    store.record_traces(traces)
    store.upsert_many("plans", plan_docs)
    for doc in plan_docs:
        print(f"{doc['id']}: makespan {doc['makespan']:.3f} s")
    makespans = [doc["makespan"] for doc in plan_docs]
    print(
        f"simulated {args.plans} plans (seed {seed}) into {store.root}; "
        f"makespan min {min(makespans):.3f} / max {max(makespans):.3f} s"
    )
    return 0


def _kept_executions(
    traces: list[ExecutionTrace], strategy: str
) -> tuple[dict[tuple[str, AgentId], Executions], list[DurationStats]]:
    """Executions left after one outlier filter per (task type, agent), and their stats.

    The default strategy "none" keeps every execution: slow executions ARE
    the coupling signal, and on low-noise data a Tukey fence tends to sit
    right on the uncoupled mode and discard exactly the concurrent slowdowns.
    """
    kept: dict[tuple[str, AgentId], Executions] = {}
    stats = []
    for (task_id, agent), executions in group_executions(traces).items():
        values = [interval_duration(rec.interval) for rec, _ in executions]
        report = filter_outliers(values, strategy)
        kept[(task_id, agent)] = [executions[i] for i in report.kept]
        mean, std, count = expected_duration([values[i] for i in report.kept])
        stats.append(DurationStats(task_id=task_id, agent=agent, mean=mean, std=std, count=count))
    return kept, stats


def _catalog_entry(doc: dict) -> tuple[str, list]:
    return _field(doc, "id", str), _field(doc, "agents", list)


def _result_entry(doc: dict) -> tuple[str, list]:
    return _field(doc, "task_id", str), [_field(doc, "agent", str)]


def _task_lists(store: Store) -> tuple[list[str], list[str]]:
    """Human and robot task type lists, from the catalog or observed records.

    A document without the fields read, or with one of the wrong type, raises
    CorruptStore naming its file and line.
    """
    catalog = store.query("task_properties")
    if catalog:
        entries = _read_docs(store, "task_properties", catalog, _catalog_entry)
    else:
        entries = _read_docs(store, "task_results", store.query("task_results"), _result_entry)
    human = list(dict.fromkeys(t for t, agents in entries if AgentId.HUMAN.value in agents))
    robot = list(dict.fromkeys(t for t, agents in entries if AgentId.ROBOT.value in agents))
    return human, robot


def cmd_estimate(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    if store.count("task_results") == 0:
        raise EmptyStore(f"no task results in {store.root}; run `tandem simulate` first")
    human_ids, robot_ids = _task_lists(store)

    executions, stats = _kept_executions(store.export_traces(), args.outliers)
    store.upsert_many(
        "task_duration",
        [
            {
                "id": f"{s.task_id}:{s.agent.value}",
                "task_id": s.task_id,
                "agent": s.agent.value,
                "mean": s.mean,
                "std": s.std,
                "count": s.count,
            }
            for s in stats
        ],
    )

    matrix = estimate_synergy_matrix(executions, stats_table(stats), human_ids, robot_ids)
    synergy_docs = []
    for agent, own_ids, other_ids in (
        (AgentId.ROBOT, robot_ids, human_ids),
        (AgentId.HUMAN, human_ids, robot_ids),
    ):
        for own in own_ids:
            for other in other_ids:
                entry = matrix.get(agent, own, other)
                synergy_docs.append(
                    {
                        "id": f"{agent.value}:{own}:{other}",
                        "agent": agent.value,
                        "task_id": own,
                        "other_task_id": other,
                        "coefficient": entry.coefficient,
                        "std_error": entry.std_error,
                        "sample_count": entry.sample_count,
                    }
                )
    store.upsert_many("task_synergy", synergy_docs)

    print(f"estimated {len(stats)} task durations and {len(synergy_docs)} synergy entries")
    for s in sorted(stats, key=lambda s: (s.agent.value, s.task_id)):
        print(f"  {s.agent.value:<6} {s.task_id:<14} mean {s.mean:7.3f} s  std {s.std:6.3f}  n {s.count}")
    return 0


# JSON types a stored field may have, by the Python type it is read as.
_FIELD_TYPES = {str: (str,), float: (int, float), int: (int,), list: (list,)}


def _field(doc: dict, name: str, kind: type) -> Any:
    """``doc[name]`` as `kind`; ValueError when it is missing or of another JSON type."""
    if name not in doc:
        raise ValueError(f"no field {name!r}")
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
        raise ValueError(f"field {name!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _duration_from_doc(doc: dict) -> DurationStats:
    return DurationStats(
        task_id=_field(doc, "task_id", str),
        agent=AgentId(_field(doc, "agent", str)),
        mean=_field(doc, "mean", float),
        std=_field(doc, "std", float),
        count=_field(doc, "count", int),
    )


def _synergy_from_doc(doc: dict) -> tuple[AgentId, tuple[str, str], SynergyEntry]:
    agent = AgentId(_field(doc, "agent", str))
    key = (_field(doc, "task_id", str), _field(doc, "other_task_id", str))
    entry = SynergyEntry(
        coefficient=_field(doc, "coefficient", float),
        std_error=_field(doc, "std_error", float),
        sample_count=_field(doc, "sample_count", int),
    )
    return agent, key, entry


def _read_docs(store: Store, collection: str, docs: list[dict], read: Callable) -> list:
    """`read` applied to every document; one it cannot read is a CorruptStore."""
    out = []
    for doc in docs:
        try:
            out.append(read(doc))
        except ValueError as exc:
            path = store.path(collection)
            line = _line_of(path, doc["id"])
            raise CorruptStore(path, line, f"document {doc['id']}: {exc}") from exc
    return out


def _load_estimates(store: Store) -> tuple[list[dict], list[dict], StatsMap, SynergyMatrix]:
    """The stored duration and synergy documents, and the estimates they hold.

    A document with a missing field, a field of the wrong type, an unknown
    agent or an invalid value raises CorruptStore naming its file and line.
    """
    duration_docs = store.query("task_duration")
    synergy_docs = store.query("task_synergy")
    if not duration_docs or not synergy_docs:
        raise MissingEstimates(
            f"store {store.root} lacks duration or synergy estimates; run `tandem estimate`"
        )
    stats = stats_table(_read_docs(store, "task_duration", duration_docs, _duration_from_doc))
    entries: dict[AgentId, dict[tuple[str, str], SynergyEntry]] = {a: {} for a in AgentId}
    for agent, key, entry in _read_docs(store, "task_synergy", synergy_docs, _synergy_from_doc):
        entries[agent][key] = entry
    return duration_docs, synergy_docs, stats, SynergyMatrix(entries)


def cmd_plan(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    _, _, stats, synergy = _load_estimates(store)
    cfg = worldcfg.load_world_config(args.config)
    domain = worldcfg.build_domain(cfg)
    seed = cfg.seed if args.seed is None else args.seed

    plan = optimize_plan(domain, stats, synergy, budget=args.budget, seed=seed)
    store.upsert("plans", _plan_doc("optimized", plan, plan.predicted_makespan, "optimized"))
    print(f"best plan (budget {args.budget}, seed {seed}): "
          f"predicted makespan {plan.predicted_makespan:.3f} s")
    for agent in AgentId:
        lane = " -> ".join(plan.order[agent]) or "(idle)"
        print(f"  {agent.value}: {lane}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    duration_docs, synergy_docs, _, matrix = _load_estimates(store)
    human_ids, robot_ids = _task_lists(store)

    heatmaps = []
    for agent, own_ids, other_ids in (
        (AgentId.ROBOT, robot_ids, human_ids),
        (AgentId.HUMAN, human_ids, robot_ids),
    ):
        if own_ids and other_ids:
            heatmaps.append(reporting.heatmap_from_matrix(matrix, agent, own_ids, other_ids))
    bundle = reporting.ReportBundle(
        durations=tuple(duration_docs),
        heatmaps=tuple(heatmaps),
        coefficients=tuple(synergy_docs),
    )
    out_dir = Path(args.out) if args.out else store.root / "report"
    written = reporting.write_report(out_dir, bundle)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandem",
        description="Learn task durations and human-robot synergy, then plan with them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", help=f"store directory (default: ${ENV_STORE} or ./{DEFAULT_STORE})")

    p_sim = sub.add_parser("simulate", help="run a campaign of random plans in the workcell")
    add_common(p_sim)
    p_sim.add_argument("--config", help="world config YAML (defaults are built in)")
    p_sim.add_argument("--plans", type=int, default=50, help="number of random plans (default 50)")
    p_sim.add_argument("--seed", type=_seed, default=None, help="campaign seed (default: config seed)")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate durations and synergy from stored results")
    add_common(p_est)
    p_est.add_argument(
        "--outliers", choices=("iqr", "none"), default="none",
        help="outlier filter applied to duration samples (default none; "
        "iqr can discard coupled slowdowns on low-noise data)",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_plan = sub.add_parser("plan", help="search for the minimum-makespan plan")
    add_common(p_plan)
    p_plan.add_argument("--config", help="world config YAML (defaults are built in)")
    p_plan.add_argument("--budget", type=int, default=2000, help="candidate evaluations (default 2000)")
    p_plan.add_argument("--seed", type=_seed, default=None, help="search seed (default: config seed)")
    p_plan.set_defaults(func=cmd_plan)

    p_rep = sub.add_parser("report", help="write duration and synergy tables and heatmaps")
    add_common(p_rep)
    p_rep.add_argument("--out", help="output directory (default: <store>/report)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TandemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
