"""tandem: learn task durations and human-robot synergy, plan with both.

The package follows one pipeline: a seeded workcell simulator executes random
plans and records execution traces; the estimator turns those traces into
expected durations and per-task-pair synergy coefficients via least-squares
regression; the planner searches assignments and orderings for the plan with
the smallest predicted makespan under the learned coupling model.  A small
file-backed document store connects the stages, and the ``tandem`` CLI drives
them end to end.

``import tandem`` loads every library module; the package re-exports no
names, so each is imported from its module, as in
``from tandem.planner import optimize_plan``.
"""

from . import errors, estimator, model, planner, config, simulator, store, report

__version__ = "0.1.0"
