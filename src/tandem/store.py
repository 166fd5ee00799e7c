"""File-backed document collections: the persistent knowledge base.

Four collections, one newline-delimited JSON file each: task_results
(measured executions), task_duration (expected durations), task_synergy (one
document per coefficient), and plans.  Any other file under the root, such as
an older store's task_properties.jsonl, is ignored.
Documents are keyed by their "id" field; an upsert replaces in place so
insertion order is stable.  A batch names each id once: a repeated id is a
SchemaViolation naming the collection and the id, raised before anything is
written.  Every write of documents is one call of `upsert_many`, so a wrapper
of it sees every such write, and one atomic rewrite, durable when it returns:
the whole collection is written to a temp file, fsynced and renamed over the
original.  It rewrites a collection as its documents updated by the batch
or, as `replace`, as exactly the batch, dropping every other document.
`drop` deletes a collection's file, so the collection reads empty.

A Store holds nothing but its root: each read, and each upsert that keeps the
other documents, reads the file once, so it sees every document written
before it, by any Store on the root.
Since every write is a rename, a reader sees a file whole, before or after a
write, and a line that does not parse is corrupt wherever it is, the last
one included.  Concurrent writers must be serialized by the caller.

One module-level JSON encoder writes every document (sorted keys, no
spaces, UTF-8 text) and one decoder reads every line, after the
byte-order-mark check that json.loads makes: its `raw_decode` first, one C
scan, and its full `decode` only for a line whose document does not end it
(whitespace around it, extra data or no document), so every line returns or
raises what json.loads would.  `_SCHEMAS` is the one table of each
collection's fields and their types: every write and every read checks each
document against it.

This module is the one codec of every stored document: the methods below
take and return values, so only this module knows a collection's fields, its
id scheme and how an agent is stored, and the cli builds and reads none.  An agent is written as its AgentId
member, which the encoder writes as its value, since AgentId is a str enum.
`record_campaign` stores a simulated campaign's traces and plans,
`record_optimized` the plan search's choice, and `record_estimates` the
duration statistics and the synergy matrix, which `estimates` reads back.
`export_traces` turns task_results documents into execution records and
groups them into traces by the plan_id that `record_traces` writes from
each trace: a record has no plan id of its own.  Each read decodes every
document in its one parse loop, so a line that does not parse (a document
nested too deeply for the decoder included), breaks the schema or is
rejected by its decoder raises CorruptStore naming its own line: no error
reads the file again.

Durability is per write, so a caller that batches sets its own unit:
`record_traces` writes any number of traces as one replace, and
`record_campaign` writes each of its collections once, so a campaign is
durable as a unit when it returns.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    CorruptStore,
    IoFailure,
    MissingEstimates,
    OverlappingRecords,
    SchemaViolation,
    UnknownCollection,
)
from .estimator import ExecutionRecord, ExecutionTrace
from .model import (
    SIDES,
    AgentId,
    DurationStats,
    StatsMap,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    stats_table,
)
from .planner import CandidatePlan

T = TypeVar("T")

_NUMBER = (int, float)

# Required fields and accepted types per collection.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "task_results": {
        "id": (str,),
        "plan_id": (str,),
        "task_id": (str,),
        "agent": (str,),
        "start": _NUMBER,
        "end": _NUMBER,
        "success": (bool,),
    },
    "task_duration": {
        "id": (str,),
        "task_id": (str,),
        "agent": (str,),
        "mean": _NUMBER,
        "std": _NUMBER,
        "count": (int,),
    },
    "task_synergy": {
        "id": (str,),
        "agent": (str,),
        "task_id": (str,),
        "other_task_id": (str,),
        "coefficient": _NUMBER,
        "std_error": _NUMBER,
        "sample_count": (int,),
    },
    "plans": {
        "id": (str,),
        "assignment": (dict,),
        "order": (dict,),
        "makespan": _NUMBER,
        "kind": (str,),
    },
}

COLLECTIONS = tuple(_SCHEMAS)


# The one codec of every collection file.  json.dumps with non-default
# arguments would build a new encoder for every document.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_DECODER = json.JSONDecoder()


def _loads(line: str):
    """One document line, decoded as json.loads would, byte-order-mark check included.

    A line that is exactly one document takes one C scan; any other line
    (whitespace around the document, extra data or no document) goes through
    the full decode, which returns or raises what json.loads would.
    """
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        doc, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError:
        pass
    else:
        if end == len(line):
            return doc
    return _DECODER.decode(line)


def validate_document(collection: str, doc: Mapping) -> None:
    schema = _SCHEMAS.get(collection)
    if schema is None:
        raise UnknownCollection(f"unknown collection {collection!r}")
    for field, types in schema.items():
        if field not in doc:
            raise SchemaViolation(collection, field, "is required")
        value = doc[field]
        # bool is an int subclass; keep it out of numeric fields.
        if type(value) not in types and (type(value) is bool or not isinstance(value, types)):
            raise SchemaViolation(collection, field, f"has invalid type {type(value).__name__}")


def _rewrite(path: Path, docs: Iterable[dict]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    data = "".join(_dumps(doc) + "\n" for doc in docs).encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


class Store:
    """Document store rooted at a directory, one JSONL file per collection."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, collection: str) -> Path:
        if collection not in COLLECTIONS:
            raise UnknownCollection(f"unknown collection {collection!r}")
        return self.root / f"{collection}.jsonl"

    def _load(self, collection: str, decode: Callable[[dict, int], T] | None = None) -> dict[str, T]:
        """A collection's documents by id, in file order, each as `decode(doc, line)` makes it.

        Without `decode` each document is kept as parsed.  A repeated id keeps
        its first position and its last document, and each copy is decoded,
        so a copy that `decode` rejects with ValueError, TypeError or
        OverflowError raises CorruptStore at its own line.  A final line
        without a newline reads like any other.
        """
        path = self.path(collection)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptStore(path, data.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from exc
        docs = {}
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            try:
                doc = _loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptStore(path, lineno, f"bad JSON: {exc.msg} (column {exc.colno})") from exc
            except RecursionError:
                raise CorruptStore(path, lineno, "bad JSON: nested too deeply") from None
            doc_id = doc.get("id") if isinstance(doc, dict) else None
            if not isinstance(doc_id, str):
                raise CorruptStore(path, lineno, "document has no string 'id'")
            try:
                validate_document(collection, doc)
                if decode is not None:
                    doc = decode(doc, lineno)
            except SchemaViolation as exc:
                raise CorruptStore(path, lineno, f"document {doc_id}: {exc.reason}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise CorruptStore(path, lineno, f"document {doc_id}: {exc}") from exc
            docs[doc_id] = doc
        return docs

    def upsert_many(self, collection: str, documents: Iterable[Mapping], *, keep: bool = True) -> None:
        """Write a batch by one atomic rewrite; every store write goes through here.

        With `keep`, the batch updates the collection's documents: a replaced
        document keeps its position and a new one goes last, and a corrupt
        file raises CorruptStore before anything is written.  Without it the
        collection holds exactly the batch, in its order, and the file is not
        read, so a corrupt file is replaced too.  A batch names each id once:
        a repeated id raises SchemaViolation naming the collection and the
        id, before anything is written.
        """
        batch: dict[str, dict] = {}
        for doc in documents:
            validate_document(collection, doc)
            if doc["id"] in batch:
                raise SchemaViolation(collection, "id", f"names {doc['id']!r} twice in one batch")
            batch[doc["id"]] = dict(doc)
        # The first write that passes its checks creates the root, so a read
        # or a rejected batch leaves no directory behind.
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create store root {self.root}: {exc}") from exc
        if keep:
            docs = self._load(collection)
            docs.update(batch)
            batch = docs
        _rewrite(self.path(collection), batch.values())

    def replace(self, collection: str, documents: Iterable[Mapping]) -> None:
        """Make a collection hold exactly `documents`: `upsert_many` keeping nothing."""
        self.upsert_many(collection, documents, keep=False)

    def drop(self, collection: str) -> None:
        """Delete a collection's file, if it has one, so the collection reads empty."""
        path = self.path(collection)
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot delete {path}: {exc}") from exc

    def query(self, collection: str, filter: Mapping | None = None) -> list[dict]:
        """All documents matching the field-equality filter, in insertion order."""
        docs = self._load(collection)
        return [
            doc for doc in docs.values() if not filter or all(doc.get(k) == v for k, v in filter.items())
        ]

    def get(self, collection: str, doc_id: str) -> dict | None:
        return self._load(collection).get(doc_id)

    # -- the documents of each collection, as values ---------------------

    def record_campaign(
        self, traces: Sequence[ExecutionTrace], plans: Sequence[CandidatePlan], makespans: Sequence[float]
    ) -> None:
        """Store a simulated campaign: each trace, the plan it ran and that run's makespan.

        Both estimate collections are dropped first, since they came from
        another campaign; then task_results and plans each become exactly the
        campaign's, by one replace each, in that order.
        """
        self.drop("task_synergy")
        self.drop("task_duration")
        self.record_traces(traces)
        self.replace(
            "plans", (_plan_doc(t.plan_id, p, m, "simulated") for t, p, m in zip(traces, plans, makespans))
        )

    def record_optimized(self, plan: CandidatePlan, makespan: float) -> None:
        """Upsert the plan search's choice as the plans document "optimized", keeping the others."""
        self.upsert_many("plans", [_plan_doc("optimized", plan, makespan, "optimized")])

    def record_estimates(self, stats: Sequence[DurationStats], matrix: SynergyMatrix) -> int:
        """Make the estimate collections hold exactly `stats` and `matrix`; the count of synergy entries.

        The synergy goes first, in the agent order `SIDES`: its ids
        (<agent>:<own>:<other>) repeat when task ids hold ':', the durations'
        (<task>:<agent>) cannot, so a rejected batch leaves both collections
        as they were.
        """
        synergy = [
            {"id": f"{agent.value}:{own}:{other}", "agent": agent, "task_id": own, "other_task_id": other}
            | asdict(entry)
            for agent in SIDES
            for (own, other), entry in matrix.entries[agent].items()
        ]
        self.replace("task_synergy", synergy)
        self.replace("task_duration", ({"id": f"{s.task_id}:{s.agent.value}"} | asdict(s) for s in stats))
        return len(synergy)

    def estimates(self) -> tuple[StatsMap, SynergyMatrix]:
        """The stored duration statistics and synergy matrix, each entry in stored order.

        Each collection is parsed once, duration statistics first.  Statistics
        of one agent alone need no synergy entries: the other agent executed
        nothing to pair with.  Otherwise a store without both raises
        MissingEstimates.
        """
        stats = stats_table(self._load("task_duration", _duration).values())
        synergy = self._load("task_synergy", _synergy).values()
        agents = {agent for _, agent in stats}
        if not agents or (not synergy and len(agents) > 1):
            raise MissingEstimates(
                f"store {self.root} lacks duration or synergy estimates; run `tandem estimate`"
            )
        entries: dict[AgentId, dict[tuple[str, str], SynergyEntry]] = {agent: {} for agent in SIDES}
        for agent, key, entry in synergy:
            entries[agent][key] = entry
        return stats, SynergyMatrix(entries)

    # -- execution trace bridge ------------------------------------------

    def record_traces(self, traces: Iterable[ExecutionTrace]) -> None:
        """Make task_results hold exactly the traces' records, ids derived from plan and position."""
        self.replace(
            "task_results",
            (
                {
                    "id": f"{trace.plan_id}:{k:04d}",
                    "plan_id": trace.plan_id,
                    "task_id": rec.task_id,
                    "agent": rec.agent,
                    "start": rec.interval.start,
                    "end": rec.interval.end,
                    "success": rec.success,
                }
                for trace in traces
                for k, rec in enumerate(trace.records)
            ),
        )

    def export_traces(self) -> list[ExecutionTrace]:
        """Reconstruct every plan's execution trace from task_results.

        Plans come in order of first appearance, and records keep their stored
        order, so re-recording the exported traces reproduces the original
        documents exactly.  A record that cannot be read, or that overlaps an
        earlier record of its agent, raises CorruptStore naming its line.
        """
        # Per plan, its records and each one's document id and line.
        by_plan: dict[str, tuple[list[ExecutionRecord], list[tuple[str, int]]]] = {}
        for doc_id, (plan_id, rec, line) in self._load("task_results", _record).items():
            plan = by_plan.get(plan_id)
            if plan is None:
                plan = by_plan[plan_id] = ([], [])
            plan[0].append(rec)
            plan[1].append((doc_id, line))
        traces = []
        for pid, (records, where) in by_plan.items():
            try:
                traces.append(ExecutionTrace(plan_id=pid, records=tuple(records)))
            except OverlappingRecords as exc:
                doc_id, line = where[exc.index]
                raise CorruptStore(self.path("task_results"), line, f"document {doc_id}: {exc}") from exc
        return traces


# Agents by stored value: a lookup in place of the enum's constructor, which
# costs a Python call.  The encoder writes an agent as its value, since
# AgentId is a str enum.
_AGENTS = {agent.value: agent for agent in AgentId}


def _agent(value: str) -> AgentId:
    # AgentId raises the error that names a value of no agent.
    return _AGENTS.get(value) or AgentId(value)


def _plan_doc(plan_id: str, plan: CandidatePlan, makespan: float, kind: str) -> dict:
    return {
        "id": plan_id,
        "assignment": dict(plan.assignment),
        "order": {agent: list(plan.order[agent]) for agent in AgentId},
        "makespan": makespan,
        "kind": kind,
    }


# The decoders that `_load` calls with each document and its line; only
# `_record` keeps the line, for the overlap error of `export_traces`.
def _record(doc: dict, line: int) -> tuple[str, ExecutionRecord, int]:
    agent = _agent(doc["agent"])
    interval = TimeInterval(float(doc["start"]), float(doc["end"]))
    return doc["plan_id"], ExecutionRecord(doc["task_id"], agent, interval, doc["success"]), line


def _duration(doc: dict, line: int) -> DurationStats:
    return DurationStats(
        doc["task_id"], _agent(doc["agent"]), float(doc["mean"]), float(doc["std"]), doc["count"]
    )


def _synergy(doc: dict, line: int) -> tuple[AgentId, tuple[str, str], SynergyEntry]:
    entry = SynergyEntry(float(doc["coefficient"]), float(doc["std_error"]), doc["sample_count"])
    return _agent(doc["agent"]), (doc["task_id"], doc["other_task_id"]), entry
