"""tandem: learn task durations and human-robot synergy, plan with both.

The package follows one pipeline: a seeded workcell simulator executes random
plans and records execution traces; the estimator turns those traces into
expected durations and per-task-pair synergy coefficients via least-squares
regression; the planner searches assignments and orderings for the plan with
the smallest predicted makespan under the learned coupling model.  A small
file-backed document store connects the stages, and the ``tandem`` CLI drives
them end to end.
"""

from .errors import TandemError
from .estimator import (
    ExecutionRecord,
    ExecutionTrace,
    RegressionProblem,
    SynergyFit,
    build_regression,
    estimate_synergy_matrix,
    expected_duration,
    filter_outliers,
    group_executions,
    solve_synergy,
)
from .model import (
    ActionKind,
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    stats_table,
)
from .planner import (
    CandidatePlan,
    PlanningDomain,
    TaskInstance,
    optimize_plan,
    predict_makespan,
    random_plan,
)
from .config import WorldConfig, ZoneExposureProfile, build_domain, load_world_config
from .simulator import (
    AgentProgram,
    program_from_plan,
    sample_task_duration,
    simulate_plan,
)
from .store import Store

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "AgentId",
    "AgentProgram",
    "CandidatePlan",
    "DurationStats",
    "ExecutionRecord",
    "ExecutionTrace",
    "PlanningDomain",
    "RegressionProblem",
    "Store",
    "SynergyEntry",
    "SynergyFit",
    "SynergyMatrix",
    "TandemError",
    "TaskInstance",
    "TimeInterval",
    "WorldConfig",
    "ZoneExposureProfile",
    "build_domain",
    "build_regression",
    "estimate_synergy_matrix",
    "expected_duration",
    "filter_outliers",
    "group_executions",
    "load_world_config",
    "optimize_plan",
    "predict_makespan",
    "program_from_plan",
    "random_plan",
    "sample_task_duration",
    "simulate_plan",
    "solve_synergy",
    "stats_table",
]
