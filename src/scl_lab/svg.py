"""Minimal deterministic SVG line charts (no plotting dependency).

Charts are plain polylines with ticked axes and a legend; byte-identical
output for identical inputs.
"""

from __future__ import annotations

import math
import sys
from typing import List, Sequence, Tuple

import numpy as np

Series = Tuple[str, Sequence[float], Sequence[float]]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_TICK_TARGET = 6  # ticks per axis that _ticks aims for


def _widen(lo: float, hi: float) -> Tuple[float, float]:
    """``(lo, hi)``, or about one unit of scale either side of ``lo`` when
    the span is empty or a few ulps of the values: there ``v += step``
    in ``_ticks`` would stop moving ``v``, and a zero span divides by 0."""
    if hi - lo > 2.0 ** -40 * max(1.0, abs(lo), abs(hi)):
        return lo, hi
    pad = max(1.0, 2.0 ** -30 * abs(lo))
    return lo - pad, lo + pad


def _ticks(lo: float, hi: float) -> List[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    span = _widen(lo, hi)
    if not math.isfinite(span[1] - span[0]):
        return [lo]  # the span overflows
    lo, hi = span
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    stop = min(hi + 1e-12 * step, sys.float_info.max)  # v += step may overflow
    while v <= stop and len(out) <= 2 * _TICK_TARGET:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out or [lo]


def _labels(ticks: List[float]) -> List[str]:
    """``%.6g`` tick labels, with more digits only where six would give
    two ticks one label (a near-constant axis); 17 tell any two doubles
    apart."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


class Panel:
    """One axes region with any number of (label, x, y) series."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 series: List[Series]):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = series


def render(panels: List[Panel]) -> str:
    """Render stacked panels into one standalone SVG document."""
    width, panel_height = 840, 300
    height = panel_height * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:11px}'
        '.t{font-size:13px;font-weight:bold}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        parts.append(_render_panel(panel, width, panel_height, i * panel_height))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_panel(panel: Panel, width: int, height: int, y0: int) -> str:
    ml, mr, mt, mb = 62, 150, 28, 42
    pw = width - ml - mr
    ph = height - mt - mb
    series = [(label, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for label, x, y in panel.series]
    xs = np.concatenate([np.empty(0)] + [x for _, x, _ in series])
    ys = np.concatenate([np.empty(0)] + [y[np.isfinite(y)] for _, _, y in series])
    if not xs.size or not ys.size:
        return f'<text class="t" x="{ml}" y="{y0 + 20}">{panel.title} (no data)</text>'
    x_lo, x_hi = _widen(np.min(xs), np.max(xs))
    y_lo, y_hi = _widen(np.min(ys), np.max(ys))
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return y0 + mt + (y_hi - v) / (y_hi - y_lo) * ph

    out = [f'<text class="t" x="{ml}" y="{y0 + 18}">{panel.title}</text>',
           f'<rect x="{ml}" y="{y0 + mt}" width="{pw}" height="{ph}" '
           'fill="none" stroke="#333"/>']
    x_ticks = _ticks(x_lo, x_hi)
    for tv, label in zip(x_ticks, _labels(x_ticks)):
        x = px(tv)
        out.append(f'<line x1="{x:.1f}" y1="{y0 + mt + ph}" x2="{x:.1f}" '
                   f'y2="{y0 + mt + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{y0 + mt + ph + 16}" '
                   f'text-anchor="middle">{label}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    for tv, label in zip(y_ticks, _labels(y_ticks)):
        y = py(tv)
        out.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                   'stroke="#333"/>')
        out.append(f'<text x="{ml - 7}" y="{y + 3.5:.1f}" '
                   f'text-anchor="end">{label}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{y0 + height - 8}" '
               f'text-anchor="middle">{panel.xlabel}</text>')
    out.append(f'<text x="16" y="{y0 + mt + ph / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {y0 + mt + ph / 2:.1f})">{panel.ylabel}</text>')
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        keep = np.isfinite(y)
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           px(x[keep]).tolist(), py(y[keep]).tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.3"/>')
        ly = y0 + mt + 14 + 15 * idx
        lx = ml + pw + 8
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 23}" y="{ly}">{label}</text>')
    return "\n".join(out)
