import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scl_lab import svg
from scl_lab.svg import Panel, _labels, _ticks


def reference_render_panel(panel, width, height, y0):
    """Per-point renderer: min/max over Python lists, one formatted
    numpy-scalar pair per polyline point."""
    ml, mr, mt, mb = 62, 150, 28, 42
    pw = width - ml - mr
    ph = height - mt - mb
    xs = [v for _, x, _ in panel.series for v in x]
    ys = [v for _, _, y in panel.series for v in y if math.isfinite(v)]
    if not xs or not ys:
        return f'<text class="t" x="{ml}" y="{y0 + 20}">{panel.title} (no data)</text>'
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
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
    for idx, (label, x, y) in enumerate(panel.series):
        color = svg._COLORS[idx % len(svg._COLORS)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y)
                       if math.isfinite(b))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.3"/>')
        ly = y0 + mt + 14 + 15 * idx
        lx = ml + pw + 8
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 23}" y="{ly}">{label}</text>')
    return "\n".join(out)


def increasing(draw, size):
    """Strictly increasing floats, steps bounded away from zero."""
    start = draw(st.floats(-100.0, 100.0))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size))
    return start + np.cumsum(steps)


@st.composite
def panels(draw):
    size = draw(st.integers(1, 30))
    t = increasing(draw, size)
    series = []
    for j in range(draw(st.integers(0, 3))):
        y = increasing(draw, size)
        holes = draw(st.lists(st.sampled_from([None, math.nan, math.inf, -math.inf]),
                              min_size=size, max_size=size))
        for k, hole in enumerate(holes):
            if hole is not None:
                y[k] = hole
        series.append((f"s{j}", t, y))
    return Panel("p", "t", "y", series)


class TestRenderPanel:
    # A 1e14-pixel canvas prints coordinates to about 16 significant
    # digits, so a last-bit difference in px/py shows in the text.
    @settings(max_examples=80, deadline=None)
    @given(panel=panels(), y0=st.sampled_from([0, 300]),
           size=st.sampled_from([(840, 300), (10 ** 14, 10 ** 14)]))
    def test_matches_per_point_renderer(self, panel, y0, size):
        with np.errstate(all="ignore"):
            expected = reference_render_panel(panel, *size, y0)
            assert svg._render_panel(panel, *size, y0) == expected

    def test_no_finite_samples_is_no_data(self):
        t = np.arange(3.0)
        panel = Panel("p", "t", "y", [("s", t, np.full(3, math.nan))])
        assert "(no data)" in svg._render_panel(panel, 840, 300, 0)
        assert "(no data)" in svg._render_panel(Panel("q", "t", "y", []), 840, 300, 0)


def no_nan_or_inf(doc):
    return "nan" not in doc.lower() and "inf" not in doc.lower()


class TestDegenerateSpans:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False))
    def test_ticks_terminate_with_bounded_count(self, a, b):
        lo, hi = min(a, b), max(a, b)
        ticks = _ticks(lo, hi)
        assert 1 <= len(ticks) <= 13
        assert all(math.isfinite(v) for v in ticks)

    @settings(max_examples=100, deadline=None)
    @given(v=st.floats(-1e9, 1e9), ulps=st.integers(0, 8))
    def test_ticks_of_a_few_ulps_span_the_value(self, v, ulps):
        hi = v
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        ticks = _ticks(v, hi)
        assert 3 <= len(ticks) <= 13
        assert min(ticks) <= v <= max(ticks)

    def test_near_constant_axis_returns(self):
        # A span of a few ulps once spun ``v += step`` forever; a child
        # process turns a hang into a failure.
        code = ("import numpy as np\n"
                "from scl_lab import svg\n"
                "assert svg._ticks(1e6, 1e6 + 2 ** -32)\n"
                "y = np.array([1e6, np.nextafter(1e6, 2e6)])\n"
                "print(svg.render([svg.Panel('p', 't', 'x', "
                "[('x1', np.array([0.0, 1.0]), y)])]))\n")
        src = os.path.dirname(os.path.dirname(svg.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("rendering a near-constant axis did not return in 60 s")
        assert done.returncode == 0, done.stderr
        assert "<polyline" in done.stdout and no_nan_or_inf(done.stdout)

    def test_one_sample_renders_finite(self):
        one = [("x1", np.array([0.0]), np.array([2.0]))]
        doc = svg.render([Panel("p", "t", "x", one)])
        assert 'points="376.00,143.00"' in doc
        assert no_nan_or_inf(doc)
