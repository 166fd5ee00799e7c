"""Document store: schemas, ordering, atomicity, and trace round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import tandem.store as store_mod
from tandem.errors import CorruptStore, IoFailure, SchemaViolation, UnknownCollection
from tandem.estimator import ExecutionRecord, ExecutionTrace
from tandem.model import (
    COEFFICIENT_FLOOR,
    SIDES,
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    stats_table,
)
from tandem.store import COLLECTIONS, Store, _dumps, validate_document

H, R = AgentId.HUMAN, AgentId.ROBOT


def _duration_doc(task_id="pick_white", agent="human", mean=8.0):
    return {
        "id": f"{task_id}:{agent}",
        "task_id": task_id,
        "agent": agent,
        "mean": mean,
        "std": 0.4,
        "count": 12,
    }


def _record_doc(doc_id="p1:0000"):
    return {
        "id": doc_id,
        "plan_id": "p1",
        "task_id": "pick_white",
        "agent": "human",
        "start": 0.0,
        "end": 8.25,
        "success": True,
    }


# One valid document per collection, and an edit that breaks its schema.
VALID = {
    "task_results": _record_doc(),
    "task_duration": _duration_doc(),
    "task_synergy": {
        "id": "robot:pick_orange:pick_white", "agent": "robot", "task_id": "pick_orange",
        "other_task_id": "pick_white", "coefficient": 1.2, "std_error": 0.1, "sample_count": 5,
    },
    "plans": {"id": "plan-0000", "assignment": {}, "order": {}, "makespan": 8.0, "kind": "simulated"},
}
# The reader that turns each collection's documents into values; plans has none.
VALUE_READERS = {
    "task_results": Store.export_traces,
    "task_duration": Store.estimates,
    "task_synergy": Store.estimates,
}
INVALID = {
    "task_results": ({"start": True}, "field 'start' has invalid type bool"),
    "task_duration": ({"count": 12.0}, "field 'count' has invalid type float"),
    "task_synergy": ({"coefficient": None}, "field 'coefficient' has invalid type NoneType"),
    "plans": ({"kind": ["simulated"]}, "field 'kind' has invalid type list"),
}


class TestUpsertAndQuery:
    def test_roundtrip(self, tmp_path):
        store = Store(tmp_path)
        doc = _duration_doc()
        store.upsert_many("task_duration", [doc])
        assert store.get("task_duration", doc["id"]) == doc

    def test_replace_keeps_count_and_position(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc("a")])
        store.upsert_many("task_duration", [_duration_doc("b")])
        store.upsert_many("task_duration", [_duration_doc("a", mean=9.0)])
        assert len(store.query("task_duration")) == 2
        docs = store.query("task_duration")
        assert [d["task_id"] for d in docs] == ["a", "b"]
        assert docs[0]["mean"] == 9.0

    def test_replace_drops_every_other_document(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc("a"), _duration_doc("b")])
        store.replace("task_duration", [_duration_doc("c"), _duration_doc("a", mean=9.0)])
        for reader in (store, Store(tmp_path)):
            assert reader.query("task_duration") == [_duration_doc("c"), _duration_doc("a", mean=9.0)]

    def test_replace_overwrites_a_corrupt_file(self, tmp_path):
        (tmp_path / "task_duration.jsonl").write_text("not json\n")
        Store(tmp_path).replace("task_duration", [_duration_doc()])
        assert Store(tmp_path).query("task_duration") == [_duration_doc()]

    def test_stores_on_one_root_see_each_others_writes(self, tmp_path):
        first, second = Store(tmp_path), Store(tmp_path)
        first.upsert_many("task_duration", [_duration_doc("a")])
        second.upsert_many("task_duration", [_duration_doc("x")])
        assert first.get("task_duration", "x:human") == _duration_doc("x")
        first.upsert_many("task_duration", [_duration_doc("y")])
        assert Store(tmp_path).query("task_duration") == [
            _duration_doc("a"), _duration_doc("x"), _duration_doc("y")
        ]

    def test_root_is_created_by_the_first_write(self, tmp_path):
        root = tmp_path / "a" / "b"
        store = Store(root)
        assert store.query("task_duration") == [] and store.query("plans") == []
        # A batch that fails its schema check writes nothing, the root included.
        for write in (store.upsert_many, store.replace):
            with pytest.raises(SchemaViolation, match="^task_duration: field 'task_id' is required$"):
                write("task_duration", [{"id": "x"}])
        assert not (tmp_path / "a").exists()
        store.upsert_many("task_duration", [_duration_doc()])
        assert Store(root).query("task_duration") == [_duration_doc()]

    def test_root_that_cannot_be_created(self, tmp_path):
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "s"
        with pytest.raises(IoFailure) as err:
            Store(root).upsert_many("task_duration", [_duration_doc()])
        assert str(err.value).startswith(f"cannot create store root {root}: ")

    def test_drop_deletes_only_its_collection(self, tmp_path):
        store = Store(tmp_path / "s")
        store.drop("task_duration")  # no root yet: nothing to delete, nothing made
        assert not store.root.exists()
        store.upsert_many("task_duration", [_duration_doc()])
        store.record_traces([_small_trace()])
        store.drop("task_duration")
        store.drop("task_duration")  # already gone
        assert [path.name for path in store.root.iterdir()] == ["task_results.jsonl"]
        assert store.query("task_duration") == []
        assert store.export_traces() == [_small_trace()]

    def test_drop_that_fails_names_the_file(self, tmp_path):
        store = Store(tmp_path)
        path = store.path("task_synergy")
        path.mkdir()  # a directory is no file to unlink
        with pytest.raises(IoFailure) as err:
            store.drop("task_synergy")
        assert str(err.value).startswith(f"cannot delete {path}: ")
        assert path.is_dir()

    def test_missing_field_names_it(self, tmp_path):
        doc = _duration_doc()
        del doc["mean"]
        with pytest.raises(SchemaViolation) as err:
            Store(tmp_path).upsert_many("task_duration", [doc])
        assert err.value.field == "mean"

    def test_wrong_type_names_field(self):
        doc = _duration_doc()
        doc["count"] = "twelve"
        with pytest.raises(SchemaViolation) as err:
            validate_document("task_duration", doc)
        assert err.value.field == "count"

    def test_bool_is_not_a_number(self):
        doc = _duration_doc()
        doc["mean"] = True
        with pytest.raises(SchemaViolation):
            validate_document("task_duration", doc)

    def test_unknown_collection(self, tmp_path):
        store = Store(tmp_path)
        with pytest.raises(UnknownCollection):
            store.query("recipes")
        with pytest.raises(UnknownCollection):
            store.upsert_many("recipes", [{"id": "x"}])

    def test_filter_equality(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many(
            "task_duration", [_duration_doc("a"), _duration_doc("b"), _duration_doc("a", "robot")]
        )
        assert len(store.query("task_duration", {"task_id": "a"})) == 2
        assert len(store.query("task_duration", {"task_id": "a", "agent": "robot"})) == 1

    def test_filter_on_absent_field(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc()])
        assert store.query("task_duration", {"nonexistent": 1}) == []

    def test_empty_collection(self, tmp_path):
        assert Store(tmp_path).query("plans") == []


class TestFileFormat:
    def test_no_temp_files_left_behind(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc()])
        assert [p.name for p in tmp_path.iterdir()] == ["task_duration.jsonl"]

    def test_one_json_document_per_line(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc("a"), _duration_doc("b")])
        lines = (tmp_path / "task_duration.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["id"] for line in lines)

    def test_rewrite_is_byte_stable(self, tmp_path):
        docs = [_duration_doc("a"), _duration_doc("b"), _duration_doc("c")]
        clean = tmp_path / "batch"
        Store(clean).upsert_many("task_duration", docs)
        before = (clean / "task_duration.jsonl").read_bytes()

        one_at_a_time = Store(tmp_path / "single")
        for doc in docs:
            one_at_a_time.upsert_many("task_duration", [doc])
        assert (tmp_path / "single" / "task_duration.jsonl").read_bytes() == before

        reread = Store(clean).query("task_duration")
        Store(tmp_path / "copy").upsert_many("task_duration", reread)
        assert (tmp_path / "copy" / "task_duration.jsonl").read_bytes() == before
        Store(clean).upsert_many("task_duration", reread)  # every id exists
        assert (clean / "task_duration.jsonl").read_bytes() == before

    def test_replacing_batch_with_new_ids_matches_a_clean_write(self, tmp_path):
        store = Store(tmp_path / "s")
        store.upsert_many("task_duration", [_duration_doc("a"), _duration_doc("b")])
        store.upsert_many("task_duration", [_duration_doc("c"), _duration_doc("a", mean=9.0)])
        Store(tmp_path / "clean").upsert_many(
            "task_duration", [_duration_doc("a", mean=9.0), _duration_doc("b"), _duration_doc("c")]
        )
        assert (tmp_path / "s" / "task_duration.jsonl").read_bytes() == (
            tmp_path / "clean" / "task_duration.jsonl"
        ).read_bytes()

    def test_invalid_batch_changes_nothing(self, tmp_path):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc("a")])
        bad = _duration_doc("c")
        del bad["mean"]
        with pytest.raises(SchemaViolation):
            store.upsert_many("task_duration", [_duration_doc("b"), bad])
        assert len(store.query("task_duration")) == 1
        assert len(Store(tmp_path).query("task_duration")) == 1

    @pytest.mark.parametrize("write", ["upsert_many", "replace"])
    def test_batch_that_names_an_id_twice_changes_nothing(self, tmp_path, write):
        store = Store(tmp_path / "s")
        with pytest.raises(SchemaViolation, match="task_duration: field 'id' names 'b:human' twice"):
            getattr(store, write)("task_duration", [_duration_doc("b"), _duration_doc("b", mean=9.0)])
        assert not store.root.exists()
        store.upsert_many("task_duration", [_duration_doc("a")])
        before = store.path("task_duration").read_bytes()
        with pytest.raises(SchemaViolation, match="'a:human' twice"):
            getattr(store, write)("task_duration", [_duration_doc("a"), _duration_doc("a", mean=9.0)])
        assert store.path("task_duration").read_bytes() == before

    @pytest.mark.parametrize("write", ["upsert_many", "replace"])
    def test_failed_write_leaves_reads_matching_the_file(self, tmp_path, monkeypatch, write):
        store = Store(tmp_path)
        store.upsert_many("task_duration", [_duration_doc("a")])

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod.os, "fsync", failing_fsync)
        with pytest.raises(IoFailure):
            getattr(store, write)("task_duration", [_duration_doc("a", mean=9.0)])
        monkeypatch.undo()
        assert store.query("task_duration") == Store(tmp_path).query("task_duration")
        assert [path.name for path in tmp_path.iterdir()] == ["task_duration.jsonl"]


class TestUnterminatedLastLine:
    """Every write is a rename, so a final line without a newline is read like any other."""

    @pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
    def test_reads_and_upserts(self, tmp_path, cut):
        store = Store(tmp_path / "s")
        store.record_traces([_small_trace("p1")])
        path = store.path("task_results")
        data = path.read_bytes()
        if cut:  # half of a fourth line
            line = data.splitlines()[0].replace(b"p1", b"p2")
            data += line[: len(line) // 2]
        else:  # the third line, whole
            data = data.rstrip(b"\n")
        path.write_bytes(data)
        extra = {**_record_doc("p9:0000"), "plan_id": "p9"}
        if cut:
            for call in (
                lambda: store.query("task_results"),
                store.export_traces,
                lambda: store.upsert_many("task_results", [extra]),
            ):
                with pytest.raises(CorruptStore) as err:
                    call()
                assert (err.value.path, err.value.line) == (path, 4)
                assert str(err.value).startswith(f"{path}:4: bad JSON: ")
            assert path.read_bytes() == data
            assert [p.name for p in store.root.iterdir()] == ["task_results.jsonl"]
        else:
            assert [doc["id"] for doc in store.query("task_results")] == ["p1:0000", "p1:0001", "p1:0002"]
            assert store.export_traces() == [_small_trace("p1")]
            store.upsert_many("task_results", [extra])
            clean = Store(tmp_path / "clean")
            clean.record_traces([_small_trace("p1")])
            clean.upsert_many("task_results", [extra])
            assert path.read_bytes() == clean.path("task_results").read_bytes()


class TestDeeplyNestedLine:
    """A line nested past the decoder's depth is corrupt, like a line that does not parse."""

    def test_reads_and_upserts(self, tmp_path):
        store = Store(tmp_path / "s")
        store.record_traces([_small_trace("p1")])
        path = store.path("task_results")
        data = path.read_bytes() + b"[" * 100_000 + b"]" * 100_000 + b"\n"
        path.write_bytes(data)
        extra = {**_record_doc("p9:0000"), "plan_id": "p9"}
        for call in (
            lambda: store.query("task_results"),
            store.export_traces,
            lambda: store.upsert_many("task_results", [extra]),
        ):
            with pytest.raises(CorruptStore) as err:
                call()
            assert (err.value.path, err.value.line) == (path, 4)
            assert str(err.value) == f"{path}:4: bad JSON: nested too deeply"
        assert path.read_bytes() == data
        assert [p.name for p in store.root.iterdir()] == ["task_results.jsonl"]


class TestReadErrors:
    def _write(self, tmp_path, *lines, collection="task_results"):
        path = tmp_path / f"{collection}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_bad_json_names_file_and_line(self, tmp_path):
        good = _dumps(_record_doc())
        assert len(good) == 108
        cases = {
            good[:-3]: "Unterminated string starting at (column 96)",
            good + good: "Extra data (column 109)",
            # json.loads rejects a leading byte-order mark; JSONDecoder.decode alone would not.
            "\ufeff" + good: "Unexpected UTF-8 BOM (decode using utf-8-sig) (column 1)",
        }
        for bad, reason in cases.items():
            path = self._write(tmp_path, good, "", bad, good)
            with pytest.raises(CorruptStore) as err:
                Store(tmp_path).query("task_results")
            assert (err.value.path, err.value.line) == (path, 3)
            assert str(err.value) == f"{path}:3: bad JSON: {reason}"

    @pytest.mark.parametrize("line", ['{"task_id":"x"}', '{"id":7}', "[1, 2]"])
    def test_missing_id_names_file_and_line(self, tmp_path, line):
        path = self._write(tmp_path, _dumps(_record_doc()), line)
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).query("task_results")
        assert str(err.value) == f"{path}:2: document has no string 'id'"

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "plans.jsonl"
        doc = _dumps(VALID["plans"]).encode()
        path.write_bytes(doc + b"\n" + doc.replace(b"plan-0000", b"plan-\xff") + b"\n")
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).query("plans")
        assert str(err.value) == f"{path}:2: invalid UTF-8"

    @pytest.mark.parametrize("collection", COLLECTIONS)
    def test_schema_violation_names_file_and_line(self, tmp_path, collection):
        Store(tmp_path / "written").upsert_many(collection, [VALID[collection]])  # the valid one writes
        edit, reason = INVALID[collection]
        bad = {**VALID[collection], "id": "b", **edit}
        path = self._write(tmp_path, _dumps(VALID[collection]), _dumps(bad), collection=collection)
        reads = [lambda s: s.query(collection), lambda s: s.get(collection, "b")]
        if collection in VALUE_READERS:
            reads.append(VALUE_READERS[collection])
        for read in reads:
            with pytest.raises(CorruptStore) as err:
                read(Store(tmp_path))
            assert (err.value.path, err.value.line) == (path, 2)
            assert str(err.value) == f"{path}:2: document b: {reason}"

    def test_missing_field_names_file_and_line(self, tmp_path):
        doc = _record_doc("p1:0001")
        del doc["plan_id"]
        path = self._write(tmp_path, _dumps(_record_doc()), _dumps(doc))
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).export_traces()
        assert str(err.value) == f"{path}:2: document p1:0001: field 'plan_id' is required"

    def test_overlapping_record_names_the_later_line(self, tmp_path, file_reads):
        later = {**_record_doc("p1:0001"), "start": 5.0, "end": 10.0}
        path = self._write(tmp_path, _dumps(_record_doc()), _dumps(later))
        file_reads.clear()
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).export_traces()
        assert str(err.value) == (
            f"{path}:2: document p1:0001: records of human overlap in plan 'p1': "
            "'pick_white' and 'pick_white'"
        )
        assert file_reads == [path]  # the line comes from the one parse

    def test_rejected_decode_names_file_and_line(self, tmp_path, file_reads):
        drone = {**_record_doc("p1:0001"), "agent": "drone"}
        # A repeated id whose last copy is rejected is named at that copy's line.
        earlier = _record_doc("p1:0001")
        for docs, line in [([_record_doc(), drone], 2), ([earlier, _record_doc(), drone], 3)]:
            path = self._write(tmp_path, *map(_dumps, docs))
            file_reads.clear()
            with pytest.raises(CorruptStore) as err:
                Store(tmp_path).export_traces()
            assert (err.value.path, err.value.line) == (path, line)
            reason = "document p1:0001: 'drone' is not a valid AgentId"
            assert str(err.value) == f"{path}:{line}: {reason}"
            assert file_reads == [path]  # the line comes from the one parse

    def test_each_copy_of_a_repeated_id_is_decoded(self, tmp_path):
        """An earlier copy that its decoder rejects raises at its own line, though reads keep the last."""
        later = {**_record_doc("p1:0001"), "start": 9.0, "end": 10.0}
        docs = [{**later, "agent": "drone"}, _record_doc(), later]
        path = self._write(tmp_path, *map(_dumps, docs))
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).export_traces()
        assert str(err.value) == f"{path}:1: document p1:0001: 'drone' is not a valid AgentId"
        assert [doc["agent"] for doc in Store(tmp_path).query("task_results")] == ["human", "human"]
        bad = {**_duration_doc(), "mean": 0.0}
        path = self._write(tmp_path, _dumps(bad), _dumps(_duration_doc()), collection="task_duration")
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).estimates()
        assert str(err.value) == (
            f"{path}:1: document pick_white:human: mean duration must be positive and finite, got 0.0"
        )

    def test_error_line_survives_a_rewrite_during_the_read(self, tmp_path, monkeypatch):
        docs = [_duration_doc("a"), _duration_doc("b")]
        path = self._write(tmp_path, *map(_dumps, docs), collection="task_duration")
        duration = store_mod._duration

        def decode(doc, line):
            if doc["id"] == docs[1]["id"]:
                # Another writer drops the document before this read names it.
                Store(tmp_path).replace("task_duration", docs[:1])
                raise ValueError("bad")
            return duration(doc, line)

        monkeypatch.setattr(store_mod, "_duration", decode)
        with pytest.raises(CorruptStore) as err:
            Store(tmp_path).estimates()
        assert (err.value.path, err.value.line) == (path, 2)
        assert str(err.value) == f"{path}:2: document {docs[1]['id']}: bad"

    def test_line_separator_inside_a_string_round_trips(self, tmp_path):
        doc = {**_duration_doc(), "id": "a\u2028b\x85c"}
        Store(tmp_path).upsert_many("task_duration", [doc])
        assert Store(tmp_path).query("task_duration") == [doc]


_GOOD = _dumps(_record_doc())
_PLAN = _dumps(
    {
        "id": "p1",
        "assignment": {"pick_white#1": "human", "pick_orange#1": "robot"},
        "order": {"human": ["pick_white#1"], "robot": ["pick_orange#1"]},
        "makespan": 14.5,
        "kind": "simulated",
    }
)


@pytest.mark.parametrize(
    "line",
    [
        _GOOD, " " + _GOOD, _GOOD + "\r", _GOOD + "\t", _GOOD + " ", _GOOD + _GOOD, _GOOD + "x",
        _GOOD[:-3], "\ufeff" + _GOOD, "[1, 2]", '"text"', "null", _PLAN,
    ],
    ids=[
        "compact", "leading_space", "trailing_cr", "trailing_tab", "trailing_space",
        "two_documents", "garbage_after", "truncated", "bom", "list", "string", "null", "plan",
    ],
)
def test_line_decode_matches_json_loads(line):
    try:
        want = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as err:
            store_mod._loads(line)
        assert (err.value.msg, err.value.pos) == (exc.msg, exc.pos)
    else:
        assert store_mod._loads(line) == want


def _small_trace(plan_id="p1"):
    return ExecutionTrace(
        plan_id,
        (
            ExecutionRecord("pick_white", H, TimeInterval(0.0, 8.25), True),
            ExecutionRecord("pick_orange", R, TimeInterval(0.0, 9.5), True),
            ExecutionRecord("place_white", H, TimeInterval(8.25, 14.0), False),
        ),
    )


class TestTraceBridge:
    def test_record_then_export_matches(self, tmp_path):
        store = Store(tmp_path)
        trace = _small_trace()
        store.record_traces([trace])
        (exported,) = store.export_traces()
        assert exported == trace

    def test_export_keeps_plans_in_first_appearance(self, tmp_path):
        store = Store(tmp_path)
        traces = [_small_trace("p2"), _small_trace("p1")]
        store.record_traces(traces)
        assert store.export_traces() == traces

    def test_failed_record_flag_round_trips(self, tmp_path):
        store = Store(tmp_path)
        store.record_traces([_small_trace()])
        (exported,) = store.export_traces()
        failed = [r for r in exported.records if not r.success]
        assert len(failed) == 1
        assert failed[0].interval == TimeInterval(8.25, 14.0)

    def test_each_record_is_stored_with_its_traces_plan_id(self, tmp_path):
        store = Store(tmp_path)
        store.record_traces([_small_trace("a"), _small_trace("b")])
        docs = store.query("task_results")
        assert [(doc["id"], doc["plan_id"]) for doc in docs] == [
            (f"{plan}:{k:04d}", plan) for plan in "ab" for k in range(3)
        ]
        assert [trace.plan_id for trace in store.export_traces()] == ["a", "b"]

    def test_one_call_is_one_fsync(self, tmp_path, monkeypatch):
        traces = [_small_trace("p1"), _small_trace("p2"), _small_trace("p3")]
        fsyncs = []
        fsync = store_mod.os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            fsync(fd)

        monkeypatch.setattr(store_mod.os, "fsync", counting_fsync)
        store = Store(tmp_path)
        store.record_traces(traces)
        assert len(fsyncs) == 1
        assert store.export_traces() == traces

    def test_reimport_reproduces_bytes(self, tmp_path):
        first = Store(tmp_path / "a")
        first.record_traces([_small_trace("p1"), _small_trace("p2")])
        second = Store(tmp_path / "b")
        second.record_traces(first.export_traces())
        assert (
            (tmp_path / "a" / "task_results.jsonl").read_bytes()
            == (tmp_path / "b" / "task_results.jsonl").read_bytes()
        )


# Task ids without ':', so no two synergy ids are equal.
_TASK_IDS = st.text("ab_", min_size=1, max_size=3)


@st.composite
def _estimates(draw):
    """Duration statistics, each (task, agent) once, and a matrix with entries for both agents."""
    stats = []
    keys = st.lists(st.tuples(_TASK_IDS, st.sampled_from(AgentId)), min_size=1, unique=True)
    for task_id, agent in draw(keys):
        count = draw(st.integers(1, 10**6))
        std = 0.0 if count == 1 else draw(st.floats(0.0, 1e6))
        stats.append(DurationStats(task_id, agent, draw(st.floats(1e-9, 1e9)), std, count))
    entry = st.builds(
        SynergyEntry, st.floats(COEFFICIENT_FLOOR, 1e6), st.floats(0.0, 1e6), st.integers(0, 10**6)
    )
    pairs = st.dictionaries(st.tuples(_TASK_IDS, _TASK_IDS), entry, min_size=1)
    return stats, SynergyMatrix({agent: draw(pairs) for agent in SIDES})


@settings(max_examples=100, deadline=None)
@given(_estimates())
def test_recorded_estimates_read_back_equal_in_order(tmp_path_factory, estimates):
    stats, matrix = estimates
    store = Store(tmp_path_factory.mktemp("estimates"))
    assert store.record_estimates(stats, matrix) == sum(len(matrix.entries[agent]) for agent in SIDES)
    read_stats, read_matrix = store.estimates()
    assert list(read_stats.items()) == list(stats_table(stats).items())
    assert {agent: list(read_matrix.entries[agent].items()) for agent in SIDES} == {
        agent: list(matrix.entries[agent].items()) for agent in SIDES
    }
