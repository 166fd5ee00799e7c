"""Report rendering: table shapes, color anchoring, byte stability."""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

from tandem.model import AgentId, DurationStats, SynergyEntry, SynergyMatrix, stats_table
from tandem.report import diverging_color, write_report

H, R = AgentId.HUMAN, AgentId.ROBOT

ROBOT_IDS = ["pick_orange", "place_orange", "pick_blue_r", "place_blue_r"]
HUMAN_IDS = ["pick_white", "place_white", "pick_blue_h", "place_blue_h"]

STATS = stats_table([DurationStats("pick_orange", R, mean=8.0, std=0.5, count=10)])


def _matrix(value=1.0):
    entries = {
        R: {
            (own, other): SynergyEntry(value, 0.01, 5)
            for own in ROBOT_IDS
            for other in HUMAN_IDS
        }
    }
    return SynergyMatrix(entries)


def test_heatmap_csv_shape(tmp_path):
    write_report(tmp_path, STATS, _matrix(1.3))
    lines = (tmp_path / "synergy_robot.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 task rows
    header = lines[0].split(",")
    assert header == ["robot_task"] + HUMAN_IDS
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_neutral_coefficients_render_as_midpoint_color(tmp_path):
    write_report(tmp_path, STATS, _matrix(1.0))
    svg = (tmp_path / "synergy_robot.svg").read_text()
    assert svg.count('fill="#ffffff"') == 16


def test_color_scale_is_anchored_at_one():
    assert diverging_color(1.0, 0.5) == "#ffffff"
    assert diverging_color(1.0, 0.0) == "#ffffff"
    hot = diverging_color(1.5, 0.5)
    cold = diverging_color(0.5, 0.5)
    assert hot == "#b2182b"
    assert cold == "#2166ac"


def test_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_report(first, STATS, _matrix(1.2))
    write_report(second, STATS, _matrix(1.2))
    for name in ("durations.csv", "coefficients.csv", "synergy_robot.csv", "synergy_robot.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_duration_table_contents(tmp_path):
    write_report(tmp_path, STATS, _matrix())
    lines = (tmp_path / "durations.csv").read_text().splitlines()
    assert lines[0] == "task_id,agent,mean,std,count"
    assert lines[1] == "pick_orange,robot,8.000000,0.500000,10"


def test_grid_is_own_rows_by_counterpart_columns(tmp_path):
    write_report(tmp_path, STATS, _matrix(1.1))
    lines = (tmp_path / "synergy_robot.csv").read_text().splitlines()
    assert lines[0].split(",")[1:] == HUMAN_IDS
    assert [line.split(",")[0] for line in lines[1:]] == ROBOT_IDS


def test_svg_labels_are_escaped(tmp_path):
    label = "pick<blue>&h"
    matrix = SynergyMatrix(
        {
            R: {("pick_orange", label): SynergyEntry(1.2, 0.01, 5)},
            H: {(label, "pick_orange"): SynergyEntry(0.9, 0.01, 5)},
        }
    )
    write_report(tmp_path, STATS, matrix)
    for agent in ("robot", "human"):
        root = ET.parse(tmp_path / f"synergy_{agent}.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert label in texts


def test_report_bytes_match_golden_hash(tmp_path):
    """Both agents, a label SVG must escape, and a pair the entries lack.

    ("place_orange", label) is absent from the robot's entries, so its cell
    is the neutral 1.0.  The hash covers each written file's name and bytes,
    in the order write_report returns them.
    """
    label = "pick<blue>&h"
    stats = stats_table(
        [
            DurationStats("pick_orange", R, mean=8.0, std=0.5, count=10),
            DurationStats(label, H, mean=6.25, std=1.125, count=7),
        ]
    )
    matrix = SynergyMatrix(
        {
            R: {
                ("pick_orange", "pick_white"): SynergyEntry(1.3, 0.02, 5),
                ("pick_orange", label): SynergyEntry(0.8, 0.01, 4),
                ("place_orange", "pick_white"): SynergyEntry(1.05, 0.03, 6),
            },
            H: {(label, "pick_orange"): SynergyEntry(0.9, 0.01, 5)},
        }
    )
    paths = write_report(tmp_path, stats, matrix)
    assert [p.name for p in paths] == [
        "durations.csv",
        "coefficients.csv",
        "synergy_robot.csv",
        "synergy_robot.svg",
        "synergy_human.csv",
        "synergy_human.svg",
    ]
    assert (tmp_path / "synergy_robot.csv").read_text().splitlines()[2] == "place_orange,1.050000,1.000000"
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == "86f9fe981237a1d2050e39e73cb8c26b04555637b52a56c2da892fd6e59f7746"
