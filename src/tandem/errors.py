"""Exception hierarchy shared by all tandem modules."""

from __future__ import annotations

from .model import AgentId


class TandemError(Exception):
    """Base class for every error raised by this package."""


class MissingDuration(TandemError):
    """No duration statistics exist for a (task, agent) pair."""

    def __init__(self, task_id: str, agent: AgentId):
        self.task_id = task_id
        self.agent = agent
        super().__init__(f"no duration statistics for task {task_id!r} for agent {agent.value}")


class EmptyProblem(TandemError):
    """A regression problem with zero rows cannot be solved."""


class InvalidProgram(TandemError):
    """An agent program violates eligibility, ordering, or deadlocks."""


class InfeasibleDomain(TandemError):
    """The planning domain admits no valid plan."""


class NonConvergence(TandemError):
    """The coupled-duration fixed point did not settle within the iteration cap."""


class OverlappingRecords(TandemError, ValueError):
    """Two successful records of one agent overlap in time within one plan run."""

    def __init__(self, message: str, index: int):
        self.index = index  # the later record's position in the trace
        super().__init__(message)


class SchemaViolation(TandemError):
    """A document does not match its collection schema."""

    def __init__(self, collection: str, field: str, reason: str):
        self.collection = collection
        self.field = field
        self.reason = f"field {field!r} {reason}"
        super().__init__(f"{collection}: {self.reason}")


class UnknownCollection(TandemError):
    """The named collection does not exist."""


class IoFailure(TandemError):
    """A store read or write failed at the filesystem level."""


class CorruptStore(TandemError):
    """A stored line is not a valid document of its collection, or one its reader rejects."""

    def __init__(self, path: object, line: int, reason: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")


class EmptyStore(TandemError):
    """The store holds no execution records to estimate from."""


class MissingEstimates(TandemError):
    """Duration or synergy estimates are required but absent from the store."""


class ConfigError(TandemError):
    """The world configuration file is missing, malformed, or inconsistent."""
