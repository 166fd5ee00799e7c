"""Report rendering: duration tables, synergy heatmaps, coefficient tables.

CSV is the canonical format; the SVG heatmap is derived from the same grid and
carries no extra data.  Cells use a diverging color scale anchored at the
neutral coefficient 1.0 (blue below, red above), so a fully decoupled matrix
renders as a plain white grid.  All output is byte-stable across reruns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .model import AgentId, SynergyMatrix

CELL = 96
LABEL_W = 150
LABEL_H = 64
NEUTRAL_RGB = (255, 255, 255)
HIGH_RGB = (178, 24, 43)  # penalty (coefficient above 1)
LOW_RGB = (33, 102, 172)  # advantage (coefficient below 1)


@dataclass(frozen=True)
class HeatmapGrid:
    """One agent's synergy heatmap: own task rows versus counterpart columns."""

    agent: AgentId
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    coefficients: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ReportBundle:
    """Everything a report run renders, assembled in memory first."""

    durations: tuple[dict, ...]
    heatmaps: tuple[HeatmapGrid, ...]
    coefficients: tuple[dict, ...]


def heatmap_from_matrix(
    matrix: SynergyMatrix,
    agent: AgentId,
    own_ids: Sequence[str],
    counterpart_ids: Sequence[str],
) -> HeatmapGrid:
    return HeatmapGrid(
        agent=agent,
        row_labels=tuple(own_ids),
        column_labels=tuple(counterpart_ids),
        coefficients=tuple(
            tuple(matrix.get(agent, own, other).coefficient for other in counterpart_ids)
            for own in own_ids
        ),
    )


def write_duration_csv(path: Path, durations: Sequence[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task_id", "agent", "mean", "std", "count"])
        for doc in durations:
            writer.writerow(
                [doc["task_id"], doc["agent"], f"{doc['mean']:.6f}", f"{doc['std']:.6f}", doc["count"]]
            )


def write_heatmap_csv(path: Path, grid: HeatmapGrid) -> None:
    """Coefficient grid with a leading label row and column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"{grid.agent.value}_task"] + list(grid.column_labels))
        for label, row in zip(grid.row_labels, grid.coefficients):
            writer.writerow([label] + [f"{v:.6f}" for v in row])


def write_coefficient_csv(path: Path, coefficients: Sequence[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["agent", "task_id", "other_task_id", "coefficient", "std_error", "sample_count"])
        for doc in coefficients:
            writer.writerow(
                [
                    doc["agent"],
                    doc["task_id"],
                    doc["other_task_id"],
                    f"{doc['coefficient']:.6f}",
                    f"{doc['std_error']:.6f}",
                    doc["sample_count"],
                ]
            )


def diverging_color(value: float, span: float) -> str:
    """Hex color for a coefficient: white at 1.0, red above, blue below."""
    if span <= 0.0:
        t = 0.0
    else:
        t = (value - 1.0) / span
        t = max(-1.0, min(1.0, t))
    target = HIGH_RGB if t >= 0.0 else LOW_RGB
    weight = abs(t)
    rgb = tuple(
        round(n + (h - n) * weight) for n, h in zip(NEUTRAL_RGB, target)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_heatmap_svg(path: Path, grid: HeatmapGrid, title: str) -> None:
    n_rows = len(grid.row_labels)
    n_cols = len(grid.column_labels)
    width = LABEL_W + n_cols * CELL
    height = LABEL_H + n_rows * CELL + 28
    span = max(
        (abs(v - 1.0) for row in grid.coefficients for v in row),
        default=0.0,
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<text x="{LABEL_W}" y="18" font-size="15" font-weight="bold">{title}</text>',
    ]
    for j, label in enumerate(grid.column_labels):
        x = LABEL_W + j * CELL + CELL / 2
        parts.append(f'<text x="{x:g}" y="{LABEL_H - 10}" text-anchor="middle">{label}</text>')
    for i, label in enumerate(grid.row_labels):
        y = LABEL_H + i * CELL + CELL / 2
        parts.append(
            f'<text x="{LABEL_W - 8}" y="{y + 4:g}" text-anchor="end">{label}</text>'
        )
        for j in range(n_cols):
            value = grid.coefficients[i][j]
            x = LABEL_W + j * CELL
            cy = LABEL_H + i * CELL
            fill = diverging_color(value, span)
            parts.append(
                f'<rect x="{x}" y="{cy}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#555555"/>'
            )
            parts.append(
                f'<text x="{x + CELL / 2:g}" y="{cy + CELL / 2 + 4:g}" '
                f'text-anchor="middle">{value:.2f}</text>'
            )
    legend_y = LABEL_H + n_rows * CELL + 18
    parts.append(
        f'<text x="{LABEL_W}" y="{legend_y}" font-size="11">'
        "red: slowdown when concurrent (coefficient &gt; 1), "
        "blue: advantage (&lt; 1), white: neutral (1)</text>"
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_report(out_dir: str | Path, bundle: ReportBundle) -> list[Path]:
    """Render every table and heatmap into `out_dir`; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    durations_path = out / "durations.csv"
    write_duration_csv(durations_path, bundle.durations)
    written.append(durations_path)

    coeff_path = out / "coefficients.csv"
    write_coefficient_csv(coeff_path, bundle.coefficients)
    written.append(coeff_path)

    for grid in bundle.heatmaps:
        csv_path = out / f"synergy_{grid.agent.value}.csv"
        write_heatmap_csv(csv_path, grid)
        written.append(csv_path)
        svg_path = out / f"synergy_{grid.agent.value}.svg"
        write_heatmap_svg(svg_path, grid, f"{grid.agent.value} task synergy")
        written.append(svg_path)
    return written
