"""World configuration: task catalog, safety zones, and the process goal.

The configuration is a YAML file of nested sections; every field below has a
built-in default modeling a desk-scale collaborative workcell, so a partial
file only overrides what it names.  The default catalog has eight task types:
the human handles white and blue boxes, the robot handles orange and blue
boxes, and the blue boxes live in a shared region whose safety zones slow the
robot down whenever the human works there.

The load checks each field once, in one pass over the merged mapping, and
keeps only what the simulator and the planner read.  Names are resolved at
load: each task's region must name an entry of ``regions``, whose zone
exposure profile (red and orange fractions) the task's ``TaskConfig`` then
holds, and each process step must name a catalog pick task and a catalog
place task.  A name that resolves to nothing, or to a task of the other
action, raises ConfigError with the path of the field.  A task's action
(pick, place or goto) and description, a region's free fraction and a
step's object color are checked and not kept.  A file nested too deeply
for the YAML parser is a ConfigError naming the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Container, Iterator, Mapping

import yaml

from .errors import ConfigError
from .model import AgentId
from .planner import PlanningDomain, TaskInstance

ZONES = ("red", "orange", "free")
_ACTIONS = ("pick", "place", "goto")
_TASK_FIELDS = ("agent", "action", "region", "base_duration", "cv", "description")
_STEP_FIELDS = ("pick", "place", "count", "color")

DEFAULT_CONFIG: dict = {
    "seed": 1,
    "objects": {"white": 6, "orange": 6, "blue": 6},
    "zones": {
        "speed_factors": {"red": 0.0, "orange": 0.5, "free": 1.0},
    },
    "regions": {
        "human_table": {"red": 0.0, "orange": 0.0, "free": 1.0},
        "human_release": {"red": 0.0, "orange": 0.0, "free": 1.0},
        "robot_table": {"red": 0.0, "orange": 0.0, "free": 1.0},
        "robot_release": {"red": 0.0, "orange": 0.0, "free": 1.0},
        "shared": {"red": 0.3, "orange": 0.5, "free": 0.2},
    },
    "tasks": {
        "pick_white": {
            "agent": "human",
            "action": "pick",
            "region": "human_table",
            "base_duration": 8.0,
            "cv": 0.1,
            "description": "human picks a white box from the work table",
        },
        "place_white": {
            "agent": "human",
            "action": "place",
            "region": "human_release",
            "base_duration": 6.0,
            "cv": 0.1,
            "description": "human places a white box in the human release area",
        },
        "pick_blue_h": {
            "agent": "human",
            "action": "pick",
            "region": "shared",
            "base_duration": 8.0,
            "cv": 0.1,
            "description": "human picks a blue box from the shared area",
        },
        "place_blue_h": {
            "agent": "human",
            "action": "place",
            "region": "shared",
            "base_duration": 6.0,
            "cv": 0.1,
            "description": "human places a blue box near the shared area",
        },
        "pick_orange": {
            "agent": "robot",
            "action": "pick",
            "region": "robot_table",
            "base_duration": 8.0,
            "cv": 0.1,
            "description": "robot picks an orange box from the work table",
        },
        "place_orange": {
            "agent": "robot",
            "action": "place",
            "region": "robot_release",
            "base_duration": 6.0,
            "cv": 0.1,
            "description": "robot places an orange box in the robot release area",
        },
        "pick_blue_r": {
            "agent": "robot",
            "action": "pick",
            "region": "shared",
            "base_duration": 8.0,
            "cv": 0.1,
            "description": "robot picks a blue box from the shared area",
        },
        "place_blue_r": {
            "agent": "robot",
            "action": "place",
            "region": "robot_release",
            "base_duration": 6.0,
            "cv": 0.1,
            "description": "robot places a blue box in the robot release area",
        },
    },
    "process": [
        {"pick": "pick_orange", "place": "place_orange", "count": 4, "color": "orange"},
        {"pick": "pick_white", "place": "place_white", "count": 4, "color": "white"},
        {"pick": "pick_blue_r", "place": "place_blue_r", "count": 2, "color": "blue"},
        {"pick": "pick_blue_h", "place": "place_blue_h", "count": 2, "color": "blue"},
    ],
}


@dataclass(frozen=True)
class ZoneExposureProfile:
    """Fraction of a human task spent in the red and the orange zone, in that order.

    The rest of the task, 1 - red - orange, is spent in the free zone.
    """

    red: float
    orange: float


@dataclass(frozen=True)
class TaskConfig:
    """A catalog task: who may perform it, its zone exposure and durations.

    The exposure is the profile of the task's region, looked up when the
    config is loaded, so every reader indexes it directly.
    """

    eligible_agents: frozenset[AgentId]
    profile: ZoneExposureProfile
    base_duration: float
    cv: float


@dataclass(frozen=True)
class ProcessStep:
    """A batch of identical pick/place pairs; its object color is checked at load."""

    pick: str
    place: str
    count: int


@dataclass(frozen=True)
class WorldConfig:
    """Validated workcell description used by the simulator and the planner."""

    tasks: Mapping[str, TaskConfig]
    speed_factors: Mapping[str, float]
    process: tuple[ProcessStep, ...]
    seed: int


def _deep_merge(base: dict, override: Mapping) -> dict:
    """`base` with `override` merged in, one new dict per merged level.

    Unmerged values are shared with both inputs, not copied: the load only
    reads the result, and builds every value it keeps anew.
    """
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


# The most characters of a loaded value that an error message shows.  PyYAML
# builds an alias as one object shared by every place that names it, so a
# file of a few hundred bytes can load a value whose full repr is gigabytes.
_SHOWN_CHARS = 200


def _repr_pieces(value: object) -> Iterator[str]:
    """repr(value) in pieces, lists and mappings item by item."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_pieces(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield ", " if i else ""
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    else:
        yield repr(value)


def _shown(value: object) -> str:
    """repr(value) for an error message, cut after _SHOWN_CHARS characters without building the rest."""
    text = ""
    for piece in _repr_pieces(value):
        text += piece
        if len(text) > _SHOWN_CHARS:
            return text[:_SHOWN_CHARS] + "..."
    return text


def _mapping(value: object, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a mapping, got {_shown(value)}")
    return value


def _known_fields(raw: Mapping, fields: Container, path: str) -> None:
    """Reject a key of `raw` outside `fields`, naming it as `path` + key."""
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}{key} is not a known field")


def _number(value: object, path: str, integer: bool = False) -> int | float:
    """A numeric leaf at `path`: an int or a float, never null, a boolean or a string.

    With `integer`, a non-integral value is rejected too and an int returned.
    """
    integral = type(value) is int or (type(value) is float and value.is_integer())
    if type(value) not in (int, float) or (integer and not integral):
        raise ConfigError(f"{path} must be {'an integer' if integer else 'a number'}, got {_shown(value)}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:
        raise ConfigError(f"{path} is too large for a float") from None


def _text(value: object, path: str) -> str:
    """A text leaf at `path`: a string, never a number, a list or a mapping."""
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {_shown(value)}")
    return value


def _parse_task(
    task_id: str, raw: object, regions: Mapping[str, ZoneExposureProfile]
) -> tuple[str, TaskConfig]:
    """A task's action, checked to be one of _ACTIONS, and its catalog entry."""
    raw = _mapping(raw, f"task {task_id!r}")
    path = f"tasks.{task_id}."
    _known_fields(raw, _TASK_FIELDS, path)
    try:
        agents = raw["agent"]
        action = _text(raw["action"], path + "action")
        region = _text(raw["region"], path + "region")
        base = _number(raw["base_duration"], path + "base_duration")
        cv = _number(raw.get("cv", 0.0), path + "cv")
    except KeyError as exc:
        raise ConfigError(f"task {task_id!r} is missing field {exc.args[0]!r}") from None
    if isinstance(agents, str):
        agents = [agents]
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        raise ConfigError(f"{path}agent must be a string or a list of strings, got {_shown(raw['agent'])}")
    try:
        eligible = frozenset(AgentId(a) for a in agents)
    except ValueError as exc:
        raise ConfigError(f"task {task_id!r}: {exc}") from None
    if action not in _ACTIONS:
        raise ConfigError(f"{path}action must be pick, place or goto, got {_shown(action)}")
    if region not in regions:
        raise ConfigError(f"{path}region names no region in regions, got {_shown(region)}")
    _text(raw.get("description", ""), path + "description")
    if not eligible:
        raise ConfigError(f"task {task_id!r} has no eligible agents")
    if not (isfinite(base) and base > 0.0):
        raise ConfigError(f"task {task_id!r}: base duration must be positive and finite, got {base}")
    if not (isfinite(cv) and cv >= 0.0):
        raise ConfigError(f"task {task_id!r}: cv must be non-negative and finite, got {cv}")
    return action, TaskConfig(eligible, regions[region], base, cv)


def _validate(raw: dict) -> WorldConfig:
    _known_fields(raw, DEFAULT_CONFIG, "")
    zones = _mapping(raw["zones"], "zones")
    _known_fields(zones, DEFAULT_CONFIG["zones"], "zones.")
    speed = _mapping(zones["speed_factors"], "zones.speed_factors")
    _known_fields(speed, ZONES, "zones.speed_factors.")
    factors = {str(k): _number(v, f"zones.speed_factors.{k}") for k, v in speed.items()}
    for zone in ZONES:
        if not 0.0 <= factors[zone] <= 1.0:
            raise ConfigError(f"speed factor for {zone!r} must be in [0, 1]")
    if factors["red"] != 0.0:
        raise ConfigError("the red zone must stop the robot (speed factor 0)")
    if factors["free"] != 1.0:
        raise ConfigError("the free zone must leave the robot at nominal speed (factor 1)")

    regions = {}
    for name, prof in _mapping(raw["regions"], "regions").items():
        prof = _mapping(prof, f"region {name!r}")
        _known_fields(prof, ZONES, f"regions.{name}.")
        fractions = [_number(prof.get(z, 0.0), f"regions.{name}.{z}") for z in ZONES]
        for zone, frac in zip(ZONES, fractions):
            if not (isfinite(frac) and frac >= 0.0):
                raise ConfigError(
                    f"region {name!r}: zone fraction {zone} must be non-negative and finite, got {frac}"
                )
        red, orange, free = fractions
        if abs(red + orange + free - 1.0) > 1e-9:
            raise ConfigError(f"region {name!r}: zone fractions must sum to 1, got {red + orange + free}")
        regions[name] = ZoneExposureProfile(red, orange)
    actions = {}
    tasks = {}
    for t, task in _mapping(raw["tasks"], "tasks").items():
        actions[t], tasks[t] = _parse_task(t, task, regions)
    objects = {
        str(k): _number(v, f"objects.{k}", integer=True)
        for k, v in _mapping(raw["objects"], "objects").items()
    }
    for color, n in objects.items():
        if n < 0:
            raise ConfigError(f"objects.{color} must be non-negative, got {n}")
    seed = _number(raw["seed"], "seed", integer=True)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    steps = []
    used: dict[str, int] = {}
    if not isinstance(raw["process"], list):
        raise ConfigError(f"process must be a list of steps, got {_shown(raw['process'])}")
    for i, entry in enumerate(raw["process"]):
        entry = _mapping(entry, "a process step")
        _known_fields(entry, _STEP_FIELDS, f"process[{i}].")
        try:
            step = ProcessStep(
                pick=_text(entry["pick"], f"process[{i}].pick"),
                place=_text(entry["place"], f"process[{i}].place"),
                count=_number(entry["count"], f"process[{i}].count", integer=True),
            )
            color = _text(entry["color"], f"process[{i}].color")
        except KeyError as exc:
            raise ConfigError(f"process[{i}] is missing field {exc.args[0]!r}") from None
        if step.count < 0:
            raise ConfigError(f"process[{i}].count must be non-negative, got {step.count}")
        for field, task_id in (("pick", step.pick), ("place", step.place)):
            if task_id not in tasks:
                raise ConfigError(f"process references unknown task {_shown(task_id)}")
            action = actions[task_id]
            if action != field:
                raise ConfigError(
                    f"process[{i}].{field} must name a {field} task, got {_shown(task_id)}, a {action} task"
                )
        used[color] = used.get(color, 0) + step.count
        steps.append(step)
    for color, n in used.items():
        if n > objects.get(color, 0):
            raise ConfigError(
                f"process needs {n} {color} objects but only {objects.get(color, 0)} exist"
            )

    return WorldConfig(
        tasks=tasks,
        speed_factors=factors,
        process=tuple(steps),
        seed=seed,
    )


def make_world_config(overrides: Mapping | None = None) -> WorldConfig:
    """Build a configuration from the defaults plus in-memory overrides."""
    return _validate(_deep_merge(DEFAULT_CONFIG, overrides or {}))


def _position(head: str) -> str:
    """Line and column, both from 1, of the character that follows `head`."""
    lines = head.split("\n")
    return f"line {len(lines)}, column {len(lines[-1]) + 1}"


def load_world_config(path: str | Path | None = None) -> WorldConfig:
    """Load a world configuration, merging a YAML file over the defaults."""
    overrides = None
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            where = _position(exc.object[: exc.start].decode("utf-8"))
            raise ConfigError(f"config {path} is not UTF-8 at {where}: {exc.reason}") from exc
        try:
            loaded = yaml.safe_load(text)
        except RecursionError:
            raise ConfigError(f"config {path} is not valid YAML: nested too deeply") from None
        except yaml.YAMLError as exc:
            # The scanner, parser and constructor mark the problem; the reader,
            # which rejects a character YAML does not allow, gives its offset.
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                where, problem = f"line {mark.line + 1}, column {mark.column + 1}", exc.problem
            else:
                where = _position(text[: getattr(exc, "position", len(text))])
                problem = str(exc).splitlines()[0]
            raise ConfigError(f"config {path} is not valid YAML at {where}: {problem}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping of sections")
        overrides = loaded
    return make_world_config(overrides)


def build_domain(config: WorldConfig) -> PlanningDomain:
    """Expand the process goal into task instances with pick-before-place pairs.

    A task type's instances are numbered from #1 across the whole process, so
    a type may appear in several steps.
    """
    instances = []
    precedence = []
    numbers: dict[str, int] = {}
    for step in config.process:
        pick = config.tasks[step.pick]
        place = config.tasks[step.place]
        for _ in range(step.count):
            numbers[step.pick] = numbers.get(step.pick, 0) + 1
            pick_uid = f"{step.pick}#{numbers[step.pick]}"
            numbers[step.place] = numbers.get(step.place, 0) + 1
            place_uid = f"{step.place}#{numbers[step.place]}"
            instances.append(TaskInstance(pick_uid, step.pick, pick.eligible_agents))
            instances.append(TaskInstance(place_uid, step.place, place.eligible_agents))
            precedence.append((pick_uid, place_uid))
    return PlanningDomain(instances=tuple(instances), precedence=tuple(precedence))
