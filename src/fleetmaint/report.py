"""Per-component factor report export: CSV series and three-panel SVG charts.

CSV column order is ``component,mode,label,loading``; each component block
ends with a ``component,weight,component_weight,<value>`` row carrying the
absorbed scale. The SVG view stacks one bar panel per mode (vehicle, system,
time) for a single component. Output is deterministic: no timestamps, fixed
float formatting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .parafac import CpModel, FactorReport, factor_report

REPORT_CSV_COLUMNS = ("component", "mode", "label", "loading")

_MODES = ("vehicle", "system", "time")
_PANEL_W = 720
_PANEL_H = 150
_MARGIN = 42
_PLOT_W = _PANEL_W - 2 * _MARGIN
_PLOT_H = _PANEL_H - 46
_BAR_FILL = "#2563EB"
_BAR_NEG_FILL = "#DC2626"
_AXIS = "#94A3B8"
_TEXT = "#1E293B"
_FONT = "Helvetica, Arial, sans-serif"


def _reports(model: CpModel, components: list[int] | None) -> list[FactorReport]:
    return [factor_report(model, comp) for comp in components or range(1, model.rank + 1)]


def _csv_fields(labels) -> list[str]:
    """Each label as the ``csv`` module writes it in a row of several fields."""
    rows: list[str] = []
    # an empty last field is never quoted, so each row is the field and ",\n"
    csv.writer(SimpleNamespace(write=rows.append), lineterminator="\n").writerows(
        (label, "") for label in labels)
    return [row[:-2] for row in rows]


def _write_csv(path, model: CpModel, reports: list[FactorReport]) -> None:
    fields = [_csv_fields(labels) for labels in model.axis_labels]
    lines = [",".join(REPORT_CSV_COLUMNS) + "\n"]
    for report in reports:
        comp = report.component
        for mode, axis in zip(_MODES, fields):
            lines += [f"{comp},{mode},{field},{loading!r}\n"
                      for field, (_, loading) in zip(axis, report.series[mode])]
        lines.append(f"{comp},weight,component_weight,{report.weight!r}\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def write_factor_csv(model: CpModel, path, components: list[int] | None = None) -> None:
    """One CSV holding the loading series of the requested (1-based) components."""
    _write_csv(path, model, _reports(model, components))


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Axis(NamedTuple):
    """The text of one mode's panel that the loadings do not change."""

    head: list[str]  # the panel title and the baseline
    baseline: float
    bars: list[tuple[str, str]]  # each bar's x and escaped label
    width: str  # the bar width
    ticks: list[str]  # the thinned tick labels


def _axis(title: str, labels, y_offset: int) -> _Axis:
    n = len(labels)
    baseline = y_offset + 24 + _PLOT_H / 2
    slot = _PLOT_W / n
    bar_w = max(1.0, slot * 0.8)
    head = [
        f'<text x="{_MARGIN}" y="{y_offset + 14}" font-size="12" font-weight="bold" '
        f'fill="{_TEXT}">{_escape(title)}</text>',
        f'<line x1="{_MARGIN}" y1="{baseline:.1f}" x2="{_MARGIN + _PLOT_W}" '
        f'y2="{baseline:.1f}" stroke="{_AXIS}" stroke-width="1"/>',
    ]
    bars = [(f"{_MARGIN + idx * slot + (slot - bar_w) / 2:.2f}", _escape(label))
            for idx, label in enumerate(labels)]
    # thin the tick labels so long axes stay readable
    ticks = [
        f'<text x="{_MARGIN + idx * slot + slot / 2:.1f}" y="{y_offset + _PANEL_H - 6}" '
        f'font-size="8" text-anchor="middle" fill="{_AXIS}">{_escape(labels[idx][:14])}</text>'
        for idx in range(0, n, max(1, (n + 15) // 16))
    ]
    return _Axis(head, baseline, bars, f"{bar_w:.2f}", ticks)


def _axes(axis_labels) -> list[_Axis]:
    """The panel text of each mode, computed once for every component drawn."""
    return [_axis(mode, labels, 30 + row * _PANEL_H)
            for row, (mode, labels) in enumerate(zip(_MODES, axis_labels))]


def _panel(axis: _Axis, series: list[tuple[str, float]]) -> list[str]:
    peak = max((abs(v) for _, v in series), default=1.0) or 1.0
    scale = _PLOT_H / 2
    parts = list(axis.head)
    for (x, label), (_, value) in zip(axis.bars, series):
        height = abs(value) / peak * scale
        if value >= 0:
            y, fill = axis.baseline - height, _BAR_FILL
        else:
            y, fill = axis.baseline, _BAR_NEG_FILL
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{axis.width}" height="{height:.2f}" '
            f'fill="{fill}"><title>{label}: {value:.6f}</title></rect>'
        )
    parts += axis.ticks
    return parts


def render_factor_svg(report: FactorReport, axes: list[_Axis] | None = None) -> str:
    """Standalone SVG string: three stacked bar panels for one component.

    ``axes`` is the panel text of the report's labels; an export computes it
    once and passes it for every component.
    """
    if axes is None:
        axes = _axes([[label for label, _ in report.series[mode]] for mode in _MODES])
    total_h = 3 * _PANEL_H + 34
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_PANEL_W} {total_h}" '
        f'font-family="{_FONT}">',
        f'<rect width="{_PANEL_W}" height="{total_h}" fill="#F8FAFC"/>',
        f'<text x="{_PANEL_W / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-weight="bold" fill="{_TEXT}">Component {report.component} '
        f'(weight {report.weight:.4f})</text>',
    ]
    for axis, mode in zip(axes, _MODES):
        parts += _panel(axis, report.series[mode])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_component_reports(
    model: CpModel,
    out_dir,
    components: list[int] | None = None,
    svg: bool = True,
) -> list[Path]:
    """Write factor_report.csv plus one SVG per component; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = _reports(model, components)
    csv_path = out_dir / "factor_report.csv"
    _write_csv(csv_path, model, reports)
    written = [csv_path]
    if svg:
        axes = _axes(model.axis_labels)
        for report in reports:
            svg_path = out_dir / f"component_{report.component:02d}.svg"
            svg_path.write_text(render_factor_svg(report, axes), encoding="utf-8", newline="\n")
            written.append(svg_path)
    return written
