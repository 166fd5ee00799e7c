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
document against it.  `Store.read` turns documents into values through a
caller's decoder; `export_traces` turns task_results documents straight into
execution records, and groups them into traces by the plan_id that
`record_traces` writes from each trace: a record has no plan id of its own.
`_AGENTS` maps each stored agent value to its agent for `export_traces`, and
`AGENT_VALUES` each agent to its stored value for every document writer.  A
line that does not parse (a document nested too deeply for the decoder
included), breaks the schema or is rejected by either decoder raises
CorruptStore naming its line, as the read's one parse numbered it: no
error reads the file again.

Durability is per write, so a caller that batches sets its own unit:
`record_traces` writes any number of traces as one replace, and `tandem
simulate` writes each collection once, so its campaign is durable as a unit
when the command returns.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import CorruptStore, IoFailure, OverlappingRecords, SchemaViolation, UnknownCollection
from .estimator import ExecutionRecord, ExecutionTrace
from .model import AgentId, TimeInterval

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

    def _load(self, collection: str) -> tuple[dict[str, dict], dict[str, int]]:
        """A collection's documents by id, in file order, and each one's line.

        A repeated id keeps its first position and its last document and
        line.  A final line without a newline reads like any other.
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
        docs: dict[str, dict] = {}
        lines: dict[str, int] = {}
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
            except SchemaViolation as exc:
                raise CorruptStore(path, lineno, f"document {doc_id}: {exc.reason}") from exc
            docs[doc_id] = doc
            lines[doc_id] = lineno
        return docs, lines

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
            docs, _ = self._load(collection)
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
        docs, _ = self._load(collection)
        return [
            doc for doc in docs.values() if not filter or all(doc.get(k) == v for k, v in filter.items())
        ]

    def get(self, collection: str, doc_id: str) -> dict | None:
        return self._load(collection)[0].get(doc_id)

    def read(self, collection: str, decode: Callable[[dict], T]) -> list[T]:
        """`decode` applied to every document, in insertion order.

        Each document has passed its schema check; `decode` must not modify
        it.  A document that `decode` rejects with ValueError, TypeError or
        OverflowError raises CorruptStore naming its file and the line this
        read parsed it from.
        """
        docs, lines = self._load(collection)
        out = []
        for doc_id, doc in docs.items():
            try:
                out.append(decode(doc))
            except (TypeError, ValueError, OverflowError) as exc:
                raise self._corrupt(collection, lines, doc_id, exc) from exc
        return out

    def _corrupt(
        self, collection: str, lines: Mapping[str, int], doc_id: str, exc: Exception
    ) -> CorruptStore:
        """The error for a document its reader rejects, at the line its read parsed it from."""
        return CorruptStore(self.path(collection), lines[doc_id], f"document {doc_id}: {exc}")

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
                    "agent": AGENT_VALUES[rec.agent],
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
        docs, lines = self._load("task_results")
        # Per plan, its records and their document ids.
        by_plan: dict[str, tuple[list[ExecutionRecord], list[str]]] = {}
        for doc_id, doc in docs.items():
            try:
                rec = _record(doc)
            except (TypeError, ValueError, OverflowError) as exc:
                raise self._corrupt("task_results", lines, doc_id, exc) from exc
            plan = by_plan.get(doc["plan_id"])
            if plan is None:
                plan = by_plan[doc["plan_id"]] = ([], [])
            plan[0].append(rec)
            plan[1].append(doc_id)
        traces = []
        for pid, (records, ids) in by_plan.items():
            try:
                traces.append(ExecutionTrace(plan_id=pid, records=tuple(records)))
            except OverlappingRecords as exc:
                raise self._corrupt("task_results", lines, ids[exc.index], exc) from exc
        return traces


# Agents by stored value, and stored values by agent: lookups in place of
# the enum's constructor and its value property, which cost a Python call each.
_AGENTS = {agent.value: agent for agent in AgentId}
AGENT_VALUES = {agent: agent.value for agent in AgentId}


def _record(doc: dict) -> ExecutionRecord:
    return ExecutionRecord(
        task_id=doc["task_id"],
        # AgentId raises the error that names a value of no agent.
        agent=_AGENTS.get(doc["agent"]) or AgentId(doc["agent"]),
        interval=TimeInterval(float(doc["start"]), float(doc["end"])),
        success=doc["success"],
    )
