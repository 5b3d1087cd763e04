"""Per-component factor report export: CSV series and three-panel SVG charts.

CSV column order is ``component,mode,label,loading``; each component block
ends with a ``component,weight,component_weight,<value>`` row carrying the
absorbed scale. The SVG view stacks one bar panel per mode (vehicle, system,
time) for a single component. Output is deterministic: no timestamps, fixed
float formatting.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .ingest import csv_text
from .parafac import CpModel
from .tensor import writing

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


def _write_csv(path, model: CpModel, components: list[int]) -> None:
    fields = [[csv_text((label,)) for label in labels] for labels in model.axis_labels]
    lines = [",".join(REPORT_CSV_COLUMNS) + "\n"]
    for comp in components:
        for mode, axis, factor in zip(_MODES, fields, model.factors):
            lines += [f"{comp},{mode},{field},{loading!r}\n"
                      for field, loading in zip(axis, factor[:, comp - 1].tolist())]
        lines.append(f"{comp},weight,component_weight,{model.weights[comp - 1].tolist()!r}\n")
    with writing(path) as fh:
        fh.write("".join(lines))


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


def _panel(axis: _Axis, loadings: list[float]) -> list[str]:
    peak = max(map(abs, loadings), default=1.0) or 1.0
    scale = _PLOT_H / 2
    parts = list(axis.head)
    for (x, label), value in zip(axis.bars, loadings):
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


def _render_svg(model: CpModel, component: int, axes: list[_Axis]) -> str:
    """Standalone SVG string: three stacked bar panels for one 1-based
    component. ``axes`` is the panel text of the model's labels, computed
    once for every component drawn."""
    col = component - 1
    total_h = 3 * _PANEL_H + 34
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_PANEL_W} {total_h}" '
        f'font-family="{_FONT}">',
        f'<rect width="{_PANEL_W}" height="{total_h}" fill="#F8FAFC"/>',
        f'<text x="{_PANEL_W / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-weight="bold" fill="{_TEXT}">Component {component} '
        f'(weight {model.weights[col]:.4f})</text>',
    ]
    for axis, factor in zip(axes, model.factors):
        parts += _panel(axis, factor[:, col].tolist())
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_component_reports(
    model: CpModel,
    out_dir,
    components: list[int] | None = None,
    svg: bool = True,
) -> list[Path]:
    """Write factor_report.csv plus one SVG per 1-based component (all when
    ``components`` is None); returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    components = list(components or range(1, model.rank + 1))
    csv_path = out_dir / "factor_report.csv"
    _write_csv(csv_path, model, components)
    written = [csv_path]
    if svg:
        axes = [_axis(mode, labels, 30 + row * _PANEL_H)
                for row, (mode, labels) in enumerate(zip(_MODES, model.axis_labels))]
        for comp in components:
            svg_path = out_dir / f"component_{comp:02d}.svg"
            with writing(svg_path) as fh:
                fh.write(_render_svg(model, comp, axes))
            written.append(svg_path)
    return written
