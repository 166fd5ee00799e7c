"""Report rendering: duration tables, synergy heatmaps, coefficient tables.

A report renders the decoded estimates alone, the duration statistics and the
synergy matrix, so it needs nothing from a store beyond them.  Each heatmap
takes its row and column labels from its agent's entries, in stored order.
CSV is the canonical format; the SVG heatmap is derived from the same grid and
carries no extra data.  Cells use a diverging color scale anchored at the
neutral coefficient 1.0 (blue below, red above), so a fully decoupled matrix
renders as a plain white grid.  All output is byte-stable across reruns.
"""

from __future__ import annotations

import csv
import html
from collections.abc import Iterable
from pathlib import Path

from .model import SIDES, StatsMap, SynergyMatrix

CELL = 96
LABEL_W = 150
LABEL_H = 64
NEUTRAL_RGB = (255, 255, 255)
HIGH_RGB = (178, 24, 43)  # penalty (coefficient above 1)
LOW_RGB = (33, 102, 172)  # advantage (coefficient below 1)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def write_heatmap_svg(
    path: Path,
    rows: tuple[str, ...],
    columns: tuple[str, ...],
    grid: list[list[float]],
    title: str,
) -> None:
    """Own task `rows` versus counterpart `columns`, one coefficient cell each."""
    n_rows = len(rows)
    n_cols = len(columns)
    width = LABEL_W + n_cols * CELL
    height = LABEL_H + n_rows * CELL + 28
    span = max(
        (abs(v - 1.0) for row in grid for v in row),
        default=0.0,
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<text x="{LABEL_W}" y="18" font-size="15" font-weight="bold">{title}</text>',
    ]
    for j, label in enumerate(columns):
        x = LABEL_W + j * CELL + CELL / 2
        label = html.escape(label, quote=False)
        parts.append(f'<text x="{x:g}" y="{LABEL_H - 10}" text-anchor="middle">{label}</text>')
    for i, label in enumerate(rows):
        y = LABEL_H + i * CELL + CELL / 2
        label = html.escape(label, quote=False)
        parts.append(
            f'<text x="{LABEL_W - 8}" y="{y + 4:g}" text-anchor="end">{label}</text>'
        )
        for j in range(n_cols):
            value = grid[i][j]
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


def write_report(out_dir: str | Path, stats: StatsMap, matrix: SynergyMatrix) -> list[Path]:
    """Render every table and heatmap into `out_dir`; returns the written paths.

    An agent without synergy entries gets no heatmap.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "durations.csv", out / "coefficients.csv"]
    _write_csv(
        written[0],
        ["task_id", "agent", "mean", "std", "count"],
        ([s.task_id, s.agent.value, f"{s.mean:.6f}", f"{s.std:.6f}", s.count] for s in stats.values()),
    )
    _write_csv(
        written[1],
        ["agent", "task_id", "other_task_id", "coefficient", "std_error", "sample_count"],
        (
            [agent.value, own, other, f"{e.coefficient:.6f}", f"{e.std_error:.6f}", e.sample_count]
            for agent in SIDES
            for (own, other), e in matrix.entries.get(agent, {}).items()
        ),
    )
    for agent in SIDES:
        pairs = matrix.entries.get(agent, {})
        if not pairs:
            continue
        rows = tuple(dict.fromkeys(own for own, _ in pairs))
        columns = tuple(dict.fromkeys(other for _, other in pairs))
        grid = [[matrix.get(agent, own, other).coefficient for other in columns] for own in rows]
        csv_path, svg_path = (out / f"synergy_{agent.value}.{ext}" for ext in ("csv", "svg"))
        _write_csv(
            csv_path,
            [f"{agent.value}_task", *columns],
            ([label] + [f"{v:.6f}" for v in row] for label, row in zip(rows, grid)),
        )
        write_heatmap_svg(svg_path, rows, columns, grid, f"{agent.value} task synergy")
        written += [csv_path, svg_path]
    return written
