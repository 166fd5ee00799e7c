"""Command-line front end: simulate, estimate, plan, report.

A campaign run composes the whole pipeline against one store directory::

    tandem simulate --store runs/demo --plans 50 --seed 1
    tandem estimate --store runs/demo
    tandem plan     --store runs/demo --budget 2000
    tandem report   --store runs/demo --out runs/demo/report

``simulate`` replaces task_results and plans with the campaign's, drops the
estimate collections, which came from another campaign, and reads no
collection.  ``estimate`` reads the traces once, groups the successful
executions by (task type, agent) and filters each group's outliers once; the
kept executions give the duration statistics, the synergy regressions and the
task lists of both, and they replace both estimate collections whole.
``estimate`` reads no other collection.
``plan`` and ``report`` read each estimate collection once, into duration
statistics and a synergy matrix; ``report`` renders those alone and reads no
other collection.  The store keeps no copy between calls, and each command
reads each collection it needs once.

Commands hand the store values and get values back: `Store.record_campaign`,
`Store.record_estimates`, `Store.estimates`, `Store.export_traces` and
`Store.record_optimized` build and decode every document, so this module
names no collection and no document field.  A stored document that breaks
the schema, or that its decoder rejects, ends the command with CorruptStore
naming its file and line.

Every command is deterministic given its flags, config, and seed.  The store
root defaults to the TANDEM_STORE environment variable, then ./tandem_store.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import config as worldcfg
from . import report as reporting
from .errors import EmptyStore, TandemError
from .estimator import (
    ExecutionTrace,
    Executions,
    estimate_synergy_matrix,
    expected_duration,
    filter_outliers,
    group_executions,
)
from .model import AgentId, DurationStats, stats_table
from .planner import optimize_plan, random_plan
from .simulator import program_from_plan, simulate_plan
from .store import Store

ENV_STORE = "TANDEM_STORE"
DEFAULT_STORE = "tandem_store"


def seed(text: str) -> int:
    """A ``--seed`` value: argparse names this function in its error, "invalid seed value: 'x'"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _store_root(args: argparse.Namespace) -> Path:
    if args.store:
        return Path(args.store)
    return Path(os.environ.get(ENV_STORE, DEFAULT_STORE))


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate `--plans` random plans and store each one's trace, plan and makespan.

    After every plan has been simulated, `Store.record_campaign` drops the
    estimate collections, since they came from another campaign, and then
    the campaign's task_results and its plans each replace their collection
    with one atomic rewrite, in that order.  So a campaign into a used store
    leaves the files a fresh store would, an earlier ``plan``'s optimized
    plan dropped, and ``plan`` and ``report`` ask for ``tandem estimate``
    until it has run.
    The campaign is durable as a unit when the command returns, and a plan's
    line is printed only once it is on disk.  A run that dies part-way
    leaves each collection whole, as it was or as the campaign wrote it, or
    an estimate collection dropped; the same seed reproduces it.
    """
    cfg = worldcfg.load_world_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if args.plans < 1:
        raise ValueError(f"plan count must be at least 1, got {args.plans}")
    domain = worldcfg.build_domain(cfg)
    store = Store(_store_root(args))
    traces, plans, makespans = [], [], []
    for k in range(args.plans):
        plan = random_plan(domain, seed=[seed, k, 0])
        program = program_from_plan(domain, plan)
        trace = simulate_plan(program, cfg, seed=[seed, k, 1], plan_id=f"plan-{k:04d}")
        traces.append(trace)
        plans.append(plan)
        makespans.append(max((rec.interval.end for rec in trace.records), default=0.0))
    store.record_campaign(traces, plans, makespans)
    for trace, makespan in zip(traces, makespans):
        print(f"{trace.plan_id}: makespan {makespan:.3f} s")
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
        values = [duration for duration, _ in executions]
        indices = filter_outliers(values, strategy)
        kept[(task_id, agent)] = [executions[i] for i in indices]
        mean, std, count = expected_duration([values[i] for i in indices])
        stats.append(DurationStats(task_id=task_id, agent=agent, mean=mean, std=std, count=count))
    return kept, stats


def cmd_estimate(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    traces = store.export_traces()
    if not traces:
        raise EmptyStore(f"no task results in {store.root}; run `tandem simulate` first")
    executions, stats = _kept_executions(traces, args.outliers)
    # Fit before writing, so a failed fit leaves both estimate collections as they were.
    matrix = estimate_synergy_matrix(executions, stats_table(stats))
    entries = store.record_estimates(stats, matrix)
    print(f"estimated {len(stats)} task durations and {entries} synergy entries")
    for s in sorted(stats, key=lambda s: (s.agent.value, s.task_id)):
        print(f"  {s.agent.value:<6} {s.task_id:<14} mean {s.mean:7.3f} s  std {s.std:6.3f}  n {s.count}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    stats, synergy = store.estimates()
    cfg = worldcfg.load_world_config(args.config)
    domain = worldcfg.build_domain(cfg)
    seed = cfg.seed if args.seed is None else args.seed

    plan, cost = optimize_plan(domain, stats, synergy, budget=args.budget, seed=seed)
    store.record_optimized(plan, cost)
    print(f"best plan (budget {args.budget}, seed {seed}): predicted makespan {cost:.3f} s")
    for agent in AgentId:
        lane = " -> ".join(plan.order[agent]) or "(idle)"
        print(f"  {agent.value}: {lane}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = Store(_store_root(args))
    stats, matrix = store.estimates()
    out_dir = Path(args.out) if args.out else store.root / "report"
    for path in reporting.write_report(out_dir, stats, matrix):
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
    p_sim.add_argument("--seed", type=seed, default=None, help="campaign seed (default: config seed)")
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
    p_plan.add_argument("--seed", type=seed, default=None, help="search seed (default: config seed)")
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
