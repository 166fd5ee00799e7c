"""End-to-end CLI behavior: pipeline composition, determinism, error exits."""

from __future__ import annotations

import copy
import filecmp
import hashlib
import json
import logging
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tandem.store as store_mod
from tandem import cli
from tandem.config import DEFAULT_CONFIG, build_domain, load_world_config, make_world_config
from tandem.errors import ConfigError, EmptyProblem
from tandem.model import AgentId
from tandem.planner import random_plan
from tandem.simulator import program_from_plan, simulate_plan
from tandem.store import COLLECTIONS, Store

# The default workcell with the blue task types eligible to both agents.
FLEXIBLE = "tasks:\n" + "".join(
    f"  {t}: {{agent: [human, robot]}}\n"
    for t in ("pick_blue_h", "place_blue_h", "pick_blue_r", "place_blue_r")
)


def _run(*args):
    return cli.main([str(a) for a in args])


def _simulate_per_plan(store_dir, plans, seed, config=None):
    """`tandem simulate` as one upsert per plan and collection, each plan printed once stored.

    The task_results and plans documents are built here from each trace and
    plan, so no store method that `simulate` calls writes them.
    """
    cfg = load_world_config(config)
    domain = build_domain(cfg)
    store = Store(store_dir)
    makespans = []
    for k in range(plans):
        plan = random_plan(domain, seed=[seed, k, 0])
        plan_id = f"plan-{k:04d}"
        trace = simulate_plan(program_from_plan(domain, plan), cfg, seed=[seed, k, 1], plan_id=plan_id)
        store.upsert_many(
            "task_results",
            [
                {
                    "id": f"{plan_id}:{j:04d}",
                    "plan_id": plan_id,
                    "task_id": rec.task_id,
                    "agent": rec.agent.value,
                    "start": rec.interval.start,
                    "end": rec.interval.end,
                    "success": rec.success,
                }
                for j, rec in enumerate(trace.records)
            ],
        )
        makespan = max(rec.interval.end for rec in trace.records)
        makespans.append(makespan)
        plan_doc = {
            "id": plan_id,
            "assignment": {uid: agent.value for uid, agent in plan.assignment.items()},
            "order": {agent.value: list(plan.order[agent]) for agent in AgentId},
            "makespan": makespan,
            "kind": "simulated",
        }
        store.upsert_many("plans", [plan_doc])
        print(f"{plan_id}: makespan {makespan:.3f} s")
    print(
        f"simulated {plans} plans (seed {seed}) into {store.root}; "
        f"makespan min {min(makespans):.3f} / max {max(makespans):.3f} s"
    )


def _count_fsyncs(monkeypatch):
    calls = []
    fsync = store_mod.os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", counting_fsync)
    return calls


def _files(store_dir):
    return {path.name: path.read_bytes() for path in store_dir.iterdir()}


class TestSimulate:
    def test_single_plan_writes_one_plans_records(self, tmp_path):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 1, "--seed", 3) == 0
        store = Store(store_dir)
        results = store.query("task_results")
        assert {doc["plan_id"] for doc in results} == {"plan-0000"}
        assert len(results) == 24  # the default process has 12 pick/place pairs
        assert len(store.query("plans")) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for store_dir in (a, b):
            assert _run("simulate", "--store", store_dir, "--plans", 3, "--seed", 5) == 0
        assert sorted(path.name for path in a.iterdir()) == ["plans.jsonl", "task_results.jsonl"]
        for name in ("task_results", "plans"):
            assert filecmp.cmp(a / f"{name}.jsonl", b / f"{name}.jsonl", shallow=False)

    def test_custom_config_overrides_defaults(self, tmp_path):
        config = tmp_path / "world.yaml"
        config.write_text("process:\n  - {pick: pick_white, place: place_white, count: 1, color: white}\n")
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--config", config, "--plans", 1) == 0
        results = Store(store_dir).query("task_results")
        assert len(results) == 2

    def test_empty_process_simulates_empty_plans(self, tmp_path, capsys):
        config = tmp_path / "world.yaml"
        config.write_text("process:\n  - {pick: pick_white, place: place_white, count: 0, color: white}\n")
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--config", config, "--plans", 2) == 0
        out = capsys.readouterr().out
        assert "plan-0001: makespan 0.000 s" in out
        assert "makespan min 0.000 / max 0.000 s" in out
        assert _run("estimate", "--store", store_dir) == 1
        assert "error: no task results in" in capsys.readouterr().err

    def test_task_type_in_two_steps_runs_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "world.yaml"
        config.write_text(
            "process:\n"
            "  - {pick: pick_orange, place: place_orange, count: 2, color: orange}\n"
            "  - {pick: pick_orange, place: place_blue_r, count: 1, color: orange}\n"
            "  - {pick: pick_white, place: place_white, count: 2, color: white}\n"
        )
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--config", config, "--plans", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("plan", "--store", store_dir, "--config", config, "--budget", 20) == 0
        assert "error" not in capsys.readouterr().err
        # Each task type's instances are numbered across the whole process.
        (optimized,) = Store(store_dir).query("plans", {"kind": "optimized"})
        assert sorted(optimized["assignment"]) == [
            "pick_orange#1", "pick_orange#2", "pick_orange#3", "pick_white#1", "pick_white#2",
            "place_blue_r#1", "place_orange#1", "place_orange#2", "place_white#1", "place_white#2",
        ]

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "world.yaml"
        config.write_text("regions:\n  shared: {red: 0.9, orange: 0.9, free: 0.2}\n")
        assert _run("simulate", "--store", tmp_path / "s", "--config", config) == 1
        assert "error:" in capsys.readouterr().err

    def test_red_zone_must_stop_robot(self, tmp_path, capsys):
        config = tmp_path / "world.yaml"
        config.write_text("zones:\n  speed_factors: {red: 0.4}\n")
        assert _run("simulate", "--store", tmp_path / "s", "--config", config) == 1
        assert "red" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("tasks:\n  pick_white: {base_duration: .nan}\n",
             "task 'pick_white': base duration must be positive and finite, got nan"),
            ("tasks:\n  place_white: {base_duration: .inf}\n",
             "task 'place_white': base duration must be positive and finite, got inf"),
            ("tasks:\n  pick_blue_h: {cv: .inf}\n",
             "task 'pick_blue_h': cv must be non-negative and finite, got inf"),
            ("tasks:\n  pick_blue_h: {cv: .nan}\n",
             "task 'pick_blue_h': cv must be non-negative and finite, got nan"),
            ("tasks:\n  pick_white: {base_duration: 0}\n",
             "task 'pick_white': base duration must be positive and finite, got 0.0"),
            ("tasks:\n  pick_white: {cv: -0.5}\n",
             "task 'pick_white': cv must be non-negative and finite, got -0.5"),
            ("regions:\n  shared: {red: .nan}\n",
             "region 'shared': zone fraction red must be non-negative and finite, got nan"),
            ("regions:\n  shared: {free: .inf}\n",
             "region 'shared': zone fraction free must be non-negative and finite, got inf"),
            ("regions: null\n", "regions must be a mapping, got None"),
            ("objects: null\n", "objects must be a mapping, got None"),
            ("regions:\n  shared: null\n", "region 'shared' must be a mapping, got None"),
            ("seed: -3\n", "seed must be non-negative, got -3"),
            ("tasks:\n  pick_white: null\n", "task 'pick_white' must be a mapping, got None"),
            ("process: null\n", "process must be a list of steps, got None"),
            ("process: [null]\n", "a process step must be a mapping, got None"),
            ("objects: {white: null}\n", "objects.white must be an integer, got None"),
            ("zones:\n  speed_factors: {orange: fast}\n",
             "zones.speed_factors.orange must be a number, got 'fast'"),
            ("process:\n  - {pick: pick_white, place: place_white, count: 2}\n",
             "process[0] is missing field 'color'"),
            ("process:\n  - {pick: pick_white, place: place_white, count: 2.5, color: white}\n",
             "process[0].count must be an integer, got 2.5"),
            ("process:\n  - {pick: pick_white, place: place_white, count: true, color: white}\n",
             "process[0].count must be an integer, got True"),
            ("seed: 2.9\n", "seed must be an integer, got 2.9"),
            ("tasks:\n  pick_white: {base_duration: null}\n",
             "tasks.pick_white.base_duration must be a number, got None"),
            ("regions:\n  shared: {red: true}\n", "regions.shared.red must be a number, got True"),
            (f"tasks:\n  pick_white: {{cv: 1{'0' * 400}}}\n",
             "tasks.pick_white.cv is too large for a float"),
            ("tasks:\n  pick_white: {base_duraton: 1.0}\n",
             "tasks.pick_white.base_duraton is not a known field"),
            ("proccess: []\n", "proccess is not a known field"),
            ("process:\n  - {pick: pick_white, place: place_white, count: 2, color: white, cout: 3}\n",
             "process[0].cout is not a known field"),
            ("regions:\n  shared: {redd: 0.3}\n", "regions.shared.redd is not a known field"),
            ("zones:\n  speed_factors: {purple: 0.5}\n",
             "zones.speed_factors.purple is not a known field"),
            ("tasks:\n  pick_white: {region: [a]}\n", "tasks.pick_white.region must be a string, got ['a']"),
            ("tasks:\n  pick_white: {description: {a: 1}}\n",
             "tasks.pick_white.description must be a string, got {'a': 1}"),
            ("process:\n  - {pick: pick_white, place: place_white, count: 1, color: [x]}\n",
             "process[0].color must be a string, got ['x']"),
            ("tasks:\n  pick_white: {agent: {robot: 1, human: 2}}\n", "tasks.pick_white.agent must be "
             "a string or a list of strings, got {'robot': 1, 'human': 2}"),
            ("tasks:\n  pick_white: {agent: 5}\n",
             "tasks.pick_white.agent must be a string or a list of strings, got 5"),
            ("tasks:\n  pick_blue_h: {region: sharde}\n",
             "tasks.pick_blue_h.region names no region in regions, got 'sharde'"),
            ("process:\n  - {pick: place_white, place: pick_white, count: 1, color: white}\n",
             "process[0].pick must name a pick task, got 'place_white', a place task"),
            ("objects: {white: -3}\n", "objects.white must be non-negative, got -3"),
            ("objects: {purple: -1}\n", "objects.purple must be non-negative, got -1"),
            ("process:\n  - {pick: pick_white, place: place_white, count: -1, color: white}\n",
             "process[0].count must be non-negative, got -1"),
            ("tasks:\n  pick_white: {action: jump}\n",
             "tasks.pick_white.action must be pick, place or goto, got 'jump'"),
        ],
        ids=[
            "base_duration_nan", "base_duration_inf", "cv_inf", "cv_nan", "base_duration_zero",
            "cv_negative", "red_nan", "free_inf",
            "regions_null", "objects_null", "region_null", "seed_negative", "task_null",
            "process_null", "process_step_null", "object_count_null", "speed_factor_text",
            "process_step_no_color", "process_count_fraction", "process_count_bool",
            "seed_fraction", "base_duration_null", "zone_fraction_bool", "cv_too_large",
            "task_field_typo", "section_typo", "process_field_typo", "region_zone_typo",
            "unknown_speed_zone", "region_list", "description_mapping", "color_list", "agent_mapping",
            "agent_number", "region_typo", "step_actions_swapped", "objects_negative",
            "object_unused_negative", "process_count_negative", "action_unknown",
        ],
    )
    def test_non_finite_config_value_is_rejected(self, tmp_path, capsys, text, reason):
        config = tmp_path / "world.yaml"
        config.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(reason)):
            load_world_config(config)
        assert _run("simulate", "--store", tmp_path / "s", "--config", config) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"seed: 1\ntasks: [unclosed\n",
             "is not valid YAML at line 3, column 1: expected ',' or ']', but got '<stream end>'"),
            (b"seed: 1\ntasks:\n  pick_white: {description: caf\xe9}\n",
             "is not UTF-8 at line 3, column 32: invalid continuation byte"),
            (b"seed: 1\nobjects: \x01\n",
             "is not valid YAML at line 2, column 10: unacceptable character #x0001: "
             "special characters are not allowed"),
            (b"tasks: " + b"[" * 1000 + b"]" * 1000 + b"\n", "is not valid YAML: nested too deeply"),
            (b"".join(b" " * i + b"k%d:\n" % i for i in range(1000)) + b" " * 1000 + b"v\n",
             "is not valid YAML: nested too deeply"),
        ],
        ids=["unclosed_sequence", "latin1_byte", "control_character", "deep_flow", "deep_block"],
    )
    def test_unreadable_config_text_is_rejected(self, tmp_path, capsys, data, reason):
        config = tmp_path / "world.yaml"
        config.write_bytes(data)
        message = f"config {config} {reason}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_world_config(config)
        assert _run("simulate", "--store", tmp_path / "s", "--config", config) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s").exists()

    def test_alias_chain_shows_a_bounded_value(self, tmp_path, capsys):
        # Each anchor lists the one before ten times, and PyYAML loads an alias
        # as the anchor's own object, so the full repr of the agent value would
        # run to about 5 * 10**9 characters.
        levels = ["&l0 [" + ", ".join(["x"] * 10) + "]"] + [
            f"&l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]" for k in range(1, 9)
        ]
        config = tmp_path / "world.yaml"
        config.write_text("tasks:\n  pick_white:\n    agent: [" + ", ".join(levels) + "]\n")
        l0 = ["x"] * 10
        shown = repr([l0, [l0] * 10])[:200] + "..."
        reason = f"tasks.pick_white.agent must be a string or a list of strings, got {shown}"
        with pytest.raises(ConfigError, match=re.escape(reason)):
            load_world_config(config)
        assert _run("simulate", "--store", tmp_path / "s", "--config", config) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "s").exists()

    def test_zero_plans_is_rejected(self, tmp_path, capsys):
        assert _run("simulate", "--store", tmp_path / "s", "--plans", 0) == 1
        assert "plan count must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("workcell", ["default", "flexible"])
    def test_matches_a_per_plan_loop(self, tmp_path, monkeypatch, capsys, workcell, seed):
        config = None
        if workcell == "flexible":
            config = tmp_path / "world.yaml"
            config.write_text(FLEXIBLE)
        flags = ("--config", config) if config else ()
        batched, per_plan = tmp_path / "batched", tmp_path / "per_plan"
        for cwd in (batched, per_plan):
            cwd.mkdir()
        # One relative store path, so the summary lines name the same store.
        monkeypatch.chdir(per_plan)
        _simulate_per_plan("s", 4, seed, config)
        expected = capsys.readouterr().out
        monkeypatch.chdir(batched)
        assert _run("simulate", "--store", "s", "--plans", 4, "--seed", seed, *flags) == 0
        assert capsys.readouterr().out == expected
        assert _files(batched / "s") == _files(per_plan / "s")

    def test_rerun_in_place_leaves_identical_bytes(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "s"
        simulate = ("simulate", "--store", store_dir, "--plans", 3, "--seed", 5)
        assert _run(*simulate) == 0
        before = _files(store_dir)
        fsyncs = _count_fsyncs(monkeypatch)
        assert _run(*simulate) == 0
        assert _files(store_dir) == before
        assert len(fsyncs) == 2  # one rewrite per collection

    @pytest.mark.parametrize(
        "first_plans, plans, config_text, plan_first",
        [
            (3, 3, "process:\n"
                   "  - {pick: pick_orange, place: place_orange, count: 1, color: orange}\n"
                   "  - {pick: pick_white, place: place_white, count: 1, color: white}\n", False),
            (4, 2, None, False),
            (2, 4, None, False),
            (3, 3, None, True),
        ],
        ids=["fewer_tasks", "fewer_plans", "more_plans", "after_plan"],
    )
    def test_campaign_into_a_used_store_holds_what_a_fresh_store_holds(
        self, tmp_path, first_plans, plans, config_text, plan_first
    ):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert _run("simulate", "--store", used, "--plans", first_plans, "--seed", 1) == 0
        if plan_first:
            assert _run("estimate", "--store", used) == 0
            assert _run("plan", "--store", used, "--budget", 5) == 0
        flags = ()
        if config_text is not None:
            config = tmp_path / "world.yaml"
            config.write_text(config_text)
            flags = ("--config", config)
        for store_dir in (used, fresh):
            assert _run("simulate", "--store", store_dir, "--plans", plans, "--seed", 2, *flags) == 0
        assert _files(used) == _files(fresh)

    def test_drops_the_estimates_of_an_earlier_campaign(self, tmp_path, capsys):
        store_dir = tmp_path / "s"
        config = tmp_path / "world.yaml"
        config.write_text(
            "process:\n"
            "  - {pick: pick_orange, place: place_orange, count: 1, color: orange}\n"
            "  - {pick: pick_white, place: place_white, count: 1, color: white}\n"
        )
        assert _run("simulate", "--store", store_dir, "--plans", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("simulate", "--store", store_dir, "--plans", 2, "--config", config) == 0
        assert sorted(path.name for path in store_dir.iterdir()) == ["plans.jsonl", "task_results.jsonl"]
        capsys.readouterr()
        for command in (("plan", "--config", config), ("report",)):
            assert _run(command[0], "--store", store_dir, *command[1:]) == 1
            assert capsys.readouterr().err == (
                f"error: store {store_dir} lacks duration or synergy estimates; run `tandem estimate`\n"
            )
        assert _run("estimate", "--store", store_dir) == 0
        assert len(Store(store_dir).query("task_duration")) == 4
        assert _run("plan", "--store", store_dir, "--config", config, "--budget", 5) == 0

    @pytest.mark.parametrize("plans", [1, 5, 20])
    def test_fsyncs_once_per_collection(self, tmp_path, monkeypatch, plans):
        fsyncs = _count_fsyncs(monkeypatch)
        assert _run("simulate", "--store", tmp_path / "s", "--plans", plans, "--seed", 2) == 0
        assert len(fsyncs) == 2

    @pytest.mark.parametrize("plans", [1, 4])
    def test_encodes_each_document_once(self, tmp_path, monkeypatch, plans):
        encoded = 0
        dumps = store_mod._dumps

        def counting_dumps(doc):
            nonlocal encoded
            encoded += 1
            return dumps(doc)

        monkeypatch.setattr(store_mod, "_dumps", counting_dumps)
        assert _run("simulate", "--store", tmp_path / "s", "--plans", plans, "--seed", 2) == 0
        assert encoded == (24 + 1) * plans


def _config_paths(node, prefix=()):
    """The key path of every section and leaf under `node`; an int selects a list item."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _config_paths(child, prefix + (key,))


# A key's text has two characters at least, so that an error naming it is
# told apart from one whose other text merely contains it.
_ODD_KEYS = st.one_of(
    st.none(), st.booleans(), st.integers(-99, -10) | st.integers(10, 99), st.dates(),
    st.sampled_from(["xy", "red", "agent", "count", "white"]),
)
_ODD_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]), st.floats(),
        st.dates(), st.text(max_size=6),
        st.sampled_from(["human", "robot", "pick", "place", "shared", "white", "pick_white"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ODD_KEYS, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(list(_config_paths(DEFAULT_CONFIG))), st.none() | _ODD_KEYS, _ODD_VALUES),
    min_size=1, max_size=3,
))
def test_every_override_loads_or_names_a_field_it_sets(edits):
    """Each edit sets the value at a path of the defaults, or at a new key beside it.

    The error names, as a whole word, the key some edit set, the section or
    task that key sits in (an item's is its list's, as in `process[2]`), or a
    key inside the value it set.  Only a key of two characters or more
    counts, so a list index does not.  Either way the call leaves the
    defaults and the override mapping as they were.
    """
    raw = copy.deepcopy(DEFAULT_CONFIG)
    named = set()
    # Deepest first, so each path still leads through the defaults.
    for path, new_key, value in sorted(edits, key=lambda edit: -len(edit[0])):
        node = raw
        for key in path[:-1]:
            node = node[key]
        key = path[-1] if new_key is None or not isinstance(node, dict) else new_key
        node[key] = value
        section = [k for k in path[:-1] if not isinstance(k, int)][-1:]
        keys = [key, *section, *(sub[-1] for sub in _config_paths(value))]
        named.update(text for k in keys if len(str(k)) >= 2 for text in (str(k), repr(k)))
    defaults, overrides = copy.deepcopy(DEFAULT_CONFIG), copy.deepcopy(raw)
    try:
        make_world_config(raw)
    except ConfigError as exc:
        message = str(exc)
        assert any(re.search(rf"(?<!\w){re.escape(text)}(?!\w)", message) for text in named), message
    assert DEFAULT_CONFIG == defaults
    assert raw == overrides


class TestEstimate:
    def test_empty_store_is_an_error(self, tmp_path, capsys):
        assert _run("estimate", "--store", tmp_path / "empty") == 1
        assert "no task results" in capsys.readouterr().err

    def test_writes_one_duration_doc_per_task_type(self, campaign):
        store_dir, _ = campaign
        store = Store(store_dir)
        assert len(store.query("task_duration")) == 8
        assert len(store.query("task_synergy")) == 32  # two 4x4 matrices

    def test_rerun_is_idempotent(self, campaign, tmp_path):
        store_dir, _ = campaign
        before = {
            name: (store_dir / f"{name}.jsonl").read_bytes()
            for name in ("task_duration", "task_synergy")
        }
        assert _run("estimate", "--store", store_dir) == 0
        for name, content in before.items():
            assert (store_dir / f"{name}.jsonl").read_bytes() == content

    def test_robot_only_records_default_human_side(self, tmp_path):
        store_dir = tmp_path / "s"
        store = Store(store_dir)
        store.upsert_many(
            "task_results",
            [
                {
                    "id": f"p:{k:04d}",
                    "plan_id": "p",
                    "task_id": "r_task",
                    "agent": "robot",
                    "start": 10.0 * k,
                    "end": 10.0 * k + 8.0,
                    "success": True,
                }
                for k in range(4)
            ],
        )
        assert _run("estimate", "--store", store_dir) == 0
        # The human executed nothing, so no row of either agent has a column.
        assert [doc["id"] for doc in Store(store_dir).query("task_duration")] == ["r_task:robot"]
        assert Store(store_dir).query("task_synergy") == []
        stats, matrix = Store(store_dir).estimates()
        assert list(stats) == [("r_task", AgentId.ROBOT)]
        for agent, own, other in ((AgentId.HUMAN, "h_task", "r_task"), (AgentId.ROBOT, "r_task", "h_task")):
            entry = matrix.get(agent, own, other)
            assert (entry.coefficient, entry.sample_count) == (1.0, 0)
        out = tmp_path / "report"
        assert _run("report", "--store", store_dir, "--out", out) == 0
        assert sorted(path.name for path in out.iterdir()) == ["coefficients.csv", "durations.csv"]

    def test_task_lists_come_from_the_executions(self, tmp_path):
        # An older store's catalog lists r_ghost, never executed, and leaves out h_b.
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        (store_dir / "task_properties.jsonl").write_text(
            "".join(
                json.dumps({"id": t, "action": "pick", "agents": [a], "region": "x", "description": ""})
                + "\n"
                for t, a in (("h_a", "human"), ("r_a", "robot"), ("r_ghost", "robot"))
            )
        )
        records = [("h_a", "human", 0.0, 4.0), ("r_a", "robot", 1.0, 9.0), ("h_b", "human", 5.0, 8.0)]
        Store(store_dir).upsert_many(
            "task_results",
            [
                {
                    "id": f"p{k}:{j:04d}",
                    "plan_id": f"p{k}",
                    "task_id": task_id,
                    "agent": agent,
                    "start": start + 0.1 * k,
                    "end": end + 0.2 * k,
                    "success": True,
                }
                for k in range(3)
                for j, (task_id, agent, start, end) in enumerate(records)
            ],
        )
        assert _run("estimate", "--store", store_dir) == 0
        store = Store(store_dir)
        durations = [(doc["task_id"], doc["agent"]) for doc in store.query("task_duration")]
        assert durations == [("h_a", "human"), ("r_a", "robot"), ("h_b", "human")]
        synergy = store.query("task_synergy")
        # Each agent's rows are its duration tasks, its columns the other agent's.
        for agent, other in (("human", "robot"), ("robot", "human")):
            own = [t for t, a in durations if a == agent]
            columns = [t for t, a in durations if a == other]
            rows = [(doc["task_id"], doc["other_task_id"]) for doc in synergy if doc["agent"] == agent]
            assert rows == [(t, c) for t in own for c in columns]

    def test_zero_length_record_is_skipped_with_a_warning(self, tmp_path, caplog):
        good, bad = tmp_path / "good", tmp_path / "bad"
        for store_dir in (good, bad):
            assert _run("simulate", "--store", store_dir, "--plans", 3, "--seed", 4) == 0
        path = bad / "task_results.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        doc = json.loads(lines[7])
        doc["end"] = doc["start"]
        lines[7] = json.dumps(doc) + "\n"
        path.write_text("".join(lines))

        assert _run("estimate", "--store", good) == 0
        with caplog.at_level(logging.WARNING, logger="tandem.estimator"):
            assert _run("estimate", "--store", bad) == 0
        assert "skipped 1 successful records of non-positive duration" in caplog.messages
        before = {d["id"]: d for d in Store(good).query("task_duration")}
        after = {d["id"]: d for d in Store(bad).query("task_duration")}
        edited = f"{doc['task_id']}:{doc['agent']}"
        assert after.keys() == before.keys()
        assert after[edited]["count"] == before[edited]["count"] - 1
        del before[edited], after[edited]
        assert after == before


    def test_synergy_pairs_that_share_an_id_are_an_error(self, tmp_path, capsys):
        # Robot pairs (a:b, c) and (a, b:c) both take the id robot:a:b:c.
        config = tmp_path / "colons.yaml"
        config.write_text(
            "tasks:\n"
            '  "a:b": {agent: robot, action: pick, region: robot_table, base_duration: 8.0}\n'
            "  a: {agent: robot, action: place, region: robot_release, base_duration: 6.0}\n"
            "  c: {agent: human, action: pick, region: shared, base_duration: 8.0, cv: 0.1}\n"
            '  "b:c": {agent: human, action: place, region: shared, base_duration: 6.0, cv: 0.1}\n'
            "process:\n"
            '  - {pick: "a:b", place: a, count: 2, color: orange}\n'
            '  - {pick: c, place: "b:c", count: 2, color: white}\n'
        )
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 5, "--config", config) == 0
        capsys.readouterr()
        assert _run("estimate", "--store", store_dir) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: task_synergy: field 'id' names 'robot:a:b:c' twice in one batch\n"
        )
        assert sorted(path.name for path in store_dir.iterdir()) == [
            "plans.jsonl",
            "task_results.jsonl",
        ]

    def test_failed_fit_leaves_both_estimate_files_as_they_were(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 3, "--seed", 2) == 0
        assert _run("estimate", "--store", store_dir) == 0
        before = _files(store_dir)
        # A larger campaign changes every duration the next estimate computes.
        # It drops the estimates, so the earlier campaign's are written back.
        assert _run("simulate", "--store", store_dir, "--plans", 6, "--seed", 2) == 0
        for name in ("task_duration.jsonl", "task_synergy.jsonl"):
            (store_dir / name).write_bytes(before[name])

        def failing_fit(executions, stats):
            raise EmptyProblem("the fit failed")

        monkeypatch.setattr(cli, "estimate_synergy_matrix", failing_fit)
        assert _run("estimate", "--store", store_dir) == 1
        after = _files(store_dir)
        for name in ("task_duration.jsonl", "task_synergy.jsonl"):
            assert after[name] == before[name]


class TestCorruptStore:
    def _store_with_line(self, tmp_path, line):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 1, "--seed", 4) == 0
        path = store_dir / "task_results.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(5, line + "\n")
        path.write_text("".join(lines))
        return store_dir, path

    def test_document_without_id(self, tmp_path, capsys):
        store_dir, path = self._store_with_line(tmp_path, '{"task_id":"x"}')
        assert _run("estimate", "--store", store_dir) == 1
        err = capsys.readouterr().err
        assert f"{path}:6:" in err
        assert "id" in err

    def test_truncated_line(self, tmp_path, capsys):
        store_dir, path = self._store_with_line(tmp_path, '{"agent":"human","end":8.2')
        assert _run("estimate", "--store", store_dir) == 1
        assert f"{path}:6: bad JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: doc.update(end=doc["start"] - 1.0), "interval end .* precedes start"),
            (lambda doc: doc.update(end=None), "field 'end' has invalid type NoneType"),
            (lambda doc: doc.update(start=None), "field 'start' has invalid type NoneType"),
            (lambda doc: doc.update(agent="ghost"), "'ghost' is not a valid AgentId"),
            (lambda doc: doc.pop("task_id"), "field 'task_id' is required"),
            # json writes these as NaN and Infinity, and reads them back as floats.
            (lambda doc: doc.update(end=math.nan), r"interval bounds must be finite, got \[.*, nan\]"),
            (lambda doc: doc.update(start=math.inf), r"interval bounds must be finite, got \[inf, "),
            (lambda doc: doc.pop("plan_id"), "field 'plan_id' is required"),
            (lambda doc: doc.update(plan_id=7), "field 'plan_id' has invalid type int"),
            (lambda doc: doc.update(start=str(doc["start"])), "field 'start' has invalid type str"),
            (lambda doc: doc.update(success="no"), "field 'success' has invalid type str"),
            (lambda doc: doc.update(start=True), "field 'start' has invalid type bool"),
            (lambda doc: doc.update(task_id=5), "field 'task_id' has invalid type int"),
            # The record starts before the previous record of its agent ends.
            (lambda doc: doc.update(start=doc["start"] - 0.5),
             "records of (human|robot) overlap in plan 'plan-0001': "),
            (lambda doc: doc.update(end=10**400), "int too large to convert to float"),
        ],
        ids=[
            "end_before_start", "end_missing", "start_missing", "unknown_agent", "no_task_id",
            "end_nan", "start_infinity", "no_plan_id", "plan_id_number", "start_text",
            "success_text", "start_bool", "task_id_number", "overlaps_previous", "end_too_large",
        ],
    )
    def test_unreadable_record(self, tmp_path, capsys, file_reads, edit, reason):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 2, "--seed", 4) == 0
        path = store_dir / "task_results.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        # The second plan's first record that starts after t=1.
        k = next(k for k, doc in enumerate(docs) if k >= 24 and doc["start"] >= 1.0)
        edit(docs[k])
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        file_reads.clear()
        assert _run("estimate", "--store", store_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{k + 1}: document {docs[k]['id']}: ")
        assert re.search(reason, err)
        assert "Traceback" not in err
        assert file_reads == [path]  # the line comes from the one parse

    @pytest.mark.parametrize("command", ["plan", "report"])
    @pytest.mark.parametrize(
        "collection, edit, reason",
        [
            ("task_duration", lambda doc: doc.pop("mean"), "field 'mean' is required"),
            ("task_duration", lambda doc: doc.update(mean="fast"), "field 'mean' has invalid type str"),
            ("task_duration", lambda doc: doc.update(count=True), "field 'count' has invalid type bool"),
            ("task_duration", lambda doc: doc.update(agent="drone"), "'drone' is not a valid AgentId"),
            ("task_synergy", lambda doc: doc.pop("coefficient"), "field 'coefficient' is required"),
            ("task_synergy", lambda doc: doc.update(sample_count="3"),
             "field 'sample_count' has invalid type str"),
            ("task_synergy", lambda doc: doc.update(agent="drone"), "'drone' is not a valid AgentId"),
            # json writes these as NaN and Infinity, and reads them back as floats.
            ("task_duration", lambda doc: doc.update(mean=math.nan),
             "mean duration must be positive and finite, got nan"),
            ("task_synergy", lambda doc: doc.update(coefficient=math.inf),
             "synergy coefficient must be finite and at least 1e-06, got inf"),
            ("task_synergy", lambda doc: doc.update(coefficient=1e-300),
             "synergy coefficient must be finite and at least 1e-06, got 1e-300"),
            ("task_synergy", lambda doc: doc.update(std_error=math.nan),
             "std error must be non-negative and finite, got nan"),
            ("task_duration", lambda doc: doc.update(mean=10**400), "int too large to convert to float"),
            ("task_synergy", lambda doc: doc.update(coefficient=10**400),
             "int too large to convert to float"),
        ],
        ids=[
            "duration_no_mean", "duration_mean_text", "duration_count_bool", "duration_unknown_agent",
            "synergy_no_coefficient", "synergy_count_text", "synergy_unknown_agent",
            "duration_mean_nan", "synergy_coefficient_inf", "synergy_coefficient_below_floor",
            "synergy_std_error_nan", "duration_mean_too_large", "synergy_coefficient_too_large",
        ],
    )
    def test_unreadable_estimate(self, tmp_path, capsys, file_reads, command, collection, edit, reason):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 2, "--seed", 4) == 0
        assert _run("estimate", "--store", store_dir) == 0
        path = store_dir / f"{collection}.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        edit(docs[2])
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        capsys.readouterr()
        flags = {"plan": ("--budget", 5), "report": ("--out", tmp_path / "report")}[command]
        file_reads.clear()
        assert _run(command, "--store", store_dir, *flags) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:3: document {docs[2]['id']}: {reason}\n"
        assert file_reads.count(path) == 1  # the line comes from the one parse


    # `report` renders the stored estimates alone and reads neither collection.
    @pytest.mark.parametrize("command", ["estimate"])
    @pytest.mark.parametrize(
        "collection, edit, reason",
        [
            ("task_results", lambda doc: doc.pop("task_id"), "field 'task_id' is required"),
            ("task_results", lambda doc: doc.update(agent=7), "field 'agent' has invalid type int"),
        ],
        ids=["record_no_task_id", "record_agent_number"],
    )
    def test_unreadable_task_list(
        self, tmp_path, capsys, file_reads, command, collection, edit, reason
    ):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 2, "--seed", 4) == 0
        assert _run("estimate", "--store", store_dir) == 0
        path = store_dir / f"{collection}.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        edit(docs[2])
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        capsys.readouterr()
        file_reads.clear()
        assert _run(command, "--store", store_dir) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:3: document {docs[2]['id']}: {reason}\n"
        assert file_reads.count(path) == 1


class TestPlanCommand:
    def test_requires_estimates(self, tmp_path, capsys):
        assert _run("plan", "--store", tmp_path / "s") == 1
        assert "estimate" in capsys.readouterr().err

    def test_plans_and_persists(self, campaign):
        store_dir, _ = campaign
        assert _run("plan", "--store", store_dir, "--budget", 50, "--seed", 2) == 0
        doc = Store(store_dir).get("plans", "optimized")
        assert doc is not None
        assert doc["kind"] == "optimized"
        assert doc["makespan"] > 0
        assert len(doc["assignment"]) == 24

    def test_skips_pairs_never_observed(self, tmp_path):
        # Both place_blue_r instances go to the human in this one-plan campaign,
        # so the robot has no place_blue_r statistics.
        config = tmp_path / "world.yaml"
        config.write_text("tasks:\n  place_blue_r: {agent: [human, robot]}\n")
        store_dir = tmp_path / "s"
        simulate = ("simulate", "--store", store_dir, "--config", config, "--plans", 1, "--seed", 11)
        assert _run(*simulate) == 0
        robot_place = {"task_id": "place_blue_r", "agent": "robot"}
        assert not Store(store_dir).query("task_results", robot_place)
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("plan", "--store", store_dir, "--config", config, "--budget", 50) == 0
        doc = Store(store_dir).get("plans", "optimized")
        robot_lane = doc["order"]["robot"]
        assert not [uid for uid in robot_lane if uid.startswith("place_blue_r")]

    def test_one_agent_campaign_plans_from_its_durations(self, tmp_path, capsys):
        config = tmp_path / "world.yaml"
        config.write_text("process:\n  - {pick: pick_white, place: place_white, count: 2, color: white}\n")
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--config", config, "--plans", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert Store(store_dir).query("task_synergy") == []
        assert _run("plan", "--store", store_dir, "--config", config, "--budget", 10) == 0
        assert "  robot: (idle)\n" in capsys.readouterr().out
        # Durations of both agents without synergy entries are not estimates.
        assert _run("simulate", "--store", store_dir, "--plans", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        (store_dir / "task_synergy.jsonl").unlink()
        assert _run("plan", "--store", store_dir, "--budget", 10) == 1
        assert "lacks duration or synergy estimates" in capsys.readouterr().err


class TestReportCommand:
    def test_requires_estimates(self, tmp_path, capsys):
        assert _run("report", "--store", tmp_path / "s") == 1
        assert "estimate" in capsys.readouterr().err

    def test_writes_all_artifacts(self, campaign, tmp_path):
        store_dir, _ = campaign
        out = tmp_path / "report"
        assert _run("report", "--store", store_dir, "--out", out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "coefficients.csv",
            "durations.csv",
            "synergy_human.csv",
            "synergy_human.svg",
            "synergy_robot.csv",
            "synergy_robot.svg",
        ]

    def test_report_rerun_is_byte_identical(self, campaign, tmp_path):
        store_dir, _ = campaign
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("report", "--store", store_dir, "--out", a) == 0
        assert _run("report", "--store", store_dir, "--out", b) == 0
        for path in a.iterdir():
            assert (b / path.name).read_bytes() == path.read_bytes()

    def test_needs_only_the_estimates(self, campaign, tmp_path):
        store_dir, _ = campaign
        estimates = tmp_path / "estimates"
        estimates.mkdir()
        for collection in ("task_duration", "task_synergy"):
            name = f"{collection}.jsonl"
            (estimates / name).write_bytes((store_dir / name).read_bytes())
        full, alone = tmp_path / "full", tmp_path / "alone"
        assert _run("report", "--store", store_dir, "--out", full) == 0
        assert _run("report", "--store", estimates, "--out", alone) == 0
        assert _files(alone) == _files(full)
        assert len(_files(full)) == 6

    def test_heatmaps_follow_the_last_estimate(self, tmp_path):
        # A store that held another workcell keeps only the last estimate's pairs.
        store_dir, out = tmp_path / "s", tmp_path / "report"
        config = tmp_path / "world.yaml"
        config.write_text(FLEXIBLE)
        assert _run("simulate", "--store", store_dir, "--config", config, "--plans", 6, "--seed", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("simulate", "--store", store_dir, "--plans", 6, "--seed", 3) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("report", "--store", store_dir, "--out", out) == 0
        assert len(Store(store_dir).query("task_synergy")) == 32  # two 4x4 matrices
        # Tasks come in order of first execution in the traces.
        records = Store(store_dir).query("task_results")
        human, robot = (
            list(dict.fromkeys(doc["task_id"] for doc in records if doc["agent"] == a))
            for a in ("human", "robot")
        )
        rows = [line.split(",") for line in (out / "synergy_robot.csv").read_text().splitlines()]
        assert rows[0] == ["robot_task"] + human
        assert [row[0] for row in rows[1:]] == robot


# SHA-256 of the four store files of the two pipelines below, recorded while
# the cli built and decoded the estimate and plan documents.
GOLDEN_STORES_SHA256 = "f7ce587da389568cdbd1c4d83d8111a034dd10d3cf3dfa43c83df8101006ba98"


def test_store_bytes_match_the_recorded_golden_hash(tmp_path, capsys):
    """simulate, estimate and plan at seed 7000000 on perfbench's two workcells.

    The default workcell runs 100 plans and plans with budget 100, the
    flexible one 30 plans with budget 500.  Each store hashes as its four
    files in collection order, each as its name and its bytes, so any change
    to a document's fields, ids, agent values or number text shows here.
    """
    flexible = Path(__file__).resolve().parents[1] / "perfbench" / "flexible.yaml"
    digest = hashlib.sha256()
    for flags, plans, budget in (((), 100, 100), (("--config", flexible), 30, 500)):
        store_dir = tmp_path / f"{plans}"
        common = ("--store", store_dir, "--seed", 7000000, *flags)
        assert _run("simulate", "--plans", plans, *common) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("plan", "--budget", budget, *common) == 0
        for collection in COLLECTIONS:
            digest.update(collection.encode() + b"\n" + (store_dir / f"{collection}.jsonl").read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GOLDEN_STORES_SHA256


class TestPipeline:
    def test_simulate_estimate_report_compose(self, tmp_path):
        store_dir = tmp_path / "s"
        assert _run("simulate", "--store", store_dir, "--plans", 2, "--seed", 7) == 0
        assert _run("estimate", "--store", store_dir) == 0
        assert _run("report", "--store", store_dir) == 0
        assert (store_dir / "report" / "synergy_robot.svg").exists()

    def test_each_command_parses_each_collection_once(self, tmp_path, file_reads):
        store_dir = tmp_path / "s"
        # simulate replaces both of its collections without reading them.
        for command, flags, collections in [
            ("simulate", ("--plans", 2), []),
            ("estimate", (), ["task_results"]),
            ("plan", ("--budget", 5), ["task_duration", "task_synergy", "plans"]),
            ("report", (), ["task_duration", "task_synergy"]),
        ]:
            file_reads.clear()
            assert _run(command, "--store", store_dir, *flags) == 0
            assert [path.stem for path in file_reads if path.parent == store_dir] == collections, command

    def test_every_write_goes_through_upsert_many(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "s"
        upserts, rewrites = [], []
        upsert_many, rewrite = Store.upsert_many, store_mod._rewrite

        def recording_upsert(store, collection, documents, **kwargs):
            upserts.append((collection, kwargs.get("keep", True)))
            upsert_many(store, collection, documents, **kwargs)

        def recording_rewrite(path, docs):
            rewrites.append(path.stem)
            rewrite(path, docs)

        monkeypatch.setattr(Store, "upsert_many", recording_upsert)
        monkeypatch.setattr(store_mod, "_rewrite", recording_rewrite)
        # Only plan keeps a collection's other documents.
        for command, flags, writes in [
            ("simulate", ("--plans", 2), [("task_results", False), ("plans", False)]),
            ("estimate", (), [("task_synergy", False), ("task_duration", False)]),
            ("plan", ("--budget", 5), [("plans", True)]),
            ("report", (), []),
        ]:
            upserts.clear()
            rewrites.clear()
            assert _run(command, "--store", store_dir, *flags) == 0
            assert upserts == writes, command
            assert rewrites == [collection for collection, _ in writes], command

    @pytest.mark.parametrize("command", ["estimate", "plan", "report"])
    def test_reading_a_missing_store_leaves_it_absent(self, tmp_path, capsys, command):
        store_dir = tmp_path / "typo"
        assert _run(command, "--store", store_dir) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not store_dir.exists()

    def test_store_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_STORE, str(tmp_path / "env_store"))
        assert _run("simulate", "--plans", 1) == 0
        assert (tmp_path / "env_store" / "task_results.jsonl").exists()

    @pytest.mark.parametrize("command", ["simulate", "plan"])
    @pytest.mark.parametrize(
        "value, reason", [("x", "invalid seed value: 'x'"), ("-1", "seed must be non-negative")]
    )
    def test_bad_seed_is_a_usage_error_naming_the_seed(self, tmp_path, capsys, command, value, reason):
        with pytest.raises(SystemExit) as exit_:
            _run(command, "--store", tmp_path / "s", "--seed", value)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f"tandem {command}: error: argument --seed: {reason}\n")
        assert not (tmp_path / "s").exists()

    def test_all_collections_known(self):
        assert set(COLLECTIONS) == {
            "task_results",
            "task_duration",
            "task_synergy",
            "plans",
        }
