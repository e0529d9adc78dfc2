"""Deterministic SVG line charts of sweep tables, for the CLI's plot
options."""

from __future__ import annotations

import math

import numpy as np

from .tables import SweepTable

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 20, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")


def _axis_ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        decades = range(math.ceil(math.log10(lo) - 1e-9),
                        math.floor(math.log10(hi) + 1e-9) + 1)
        ticks = [10.0 ** d for d in decades]
        if len(ticks) > 8:  # subsample, keep ends
            step = math.ceil(len(ticks) / 8)
            ticks = ticks[::step] + ([ticks[-1]] if (len(ticks) - 1) % step
                                     else [])
        if ticks:
            return ticks
    return [float(x) for x in np.linspace(lo, hi, 5)]


def emit_plot(table: SweepTable, x_name: str, y_names: list[str],
              path: str, logx: bool = False, logy: bool = False):
    """Deterministic 800x500 SVG line chart of table columns.

    The x column may be the sweep parameter or any metric column; every
    series shares the y axis.  Log axes demand positive data.  Needs at
    least two rows (a single point draws no line) and raises ValueError
    otherwise.
    """
    series = dict(table.columns)
    series[table.param_name] = list(table.param_values)
    for name in [x_name, *y_names]:
        if name not in series:
            raise ValueError(f"unknown column {name!r}")
    if not y_names:
        raise ValueError("no y columns to plot")
    xs = [float(v) for v in series[x_name]]
    if len(xs) < 2:
        raise ValueError("need at least two rows to draw a line")
    ys = {name: [float(v) for v in series[name]] for name in y_names}

    def to_axis(values: list[float], log: bool, label: str) -> list[float]:
        if not log:
            return values
        if min(values) <= 0.0:
            raise ValueError(f"log axis needs positive {label} values")
        return [math.log10(v) for v in values]

    ax = to_axis(xs, logx, "x")
    ay = {n: to_axis(v, logy, "y") for n, v in ys.items()}
    x_lo, x_hi = min(ax), max(ax)
    all_y = [v for col in ay.values() for v in col]
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (
            _SVG_W - _MARGIN_L - _MARGIN_R)

    def py(v: float) -> float:
        return _SVG_H - _MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (
            _SVG_H - _MARGIN_T - _MARGIN_B)

    left, right = _MARGIN_L, _SVG_W - _MARGIN_R
    top, bottom = _MARGIN_T, _SVG_H - _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" '
        'fill="white"/>',
        '<g font-family="monospace" font-size="12" fill="black">',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
    ]
    for t in _axis_ticks(10.0 ** x_lo if logx else x_lo,
                         10.0 ** x_hi if logx else x_hi, logx):
        v = math.log10(t) if logx else t
        if not x_lo - 1e-9 <= v <= x_hi + 1e-9:
            continue
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" '
                     f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{bottom + 18}" '
                     f'text-anchor="middle">{t:.6g}</text>')
    for t in _axis_ticks(10.0 ** y_lo if logy else y_lo,
                         10.0 ** y_hi if logy else y_hi, logy):
        v = math.log10(t) if logy else t
        if not y_lo - 1e-9 <= v <= y_hi + 1e-9:
            continue
        y = py(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{t:.6g}</text>')
    parts.append(f'<text x="{(left + right) / 2:.2f}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle">{x_name}</text>')

    for i, name in enumerate(y_names):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}"
                       for a, b in zip(ax, ay[name]))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        # label both endpoints with the data values
        for j in (0, -1):
            x, y = px(ax[j]), py(ay[name][j])
            anchor = "start" if j == 0 else "end"
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{x:.2f}" y="{y - 6:.2f}" '
                         f'text-anchor="{anchor}" fill="{color}">'
                         f'{ys[name][j]:.6g}</text>')
        parts.append(f'<text x="{right + 8}" y="{top + 14 * (i + 1)}" '
                     f'fill="{color}">{name}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
