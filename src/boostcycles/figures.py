"""Deterministic SVG line charts for edge-versus-iteration figures.

Output bytes depend only on the inputs: no timestamps, random ids, or
library version strings. The full data table rides along in an XML comment
so a figure can be audited against its trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

Point = Tuple[float, float]

SERIES_COLORS = ("#1f6fb2", "#b23a1f", "#3a8f3a", "#7a4fa3")

WIDTH, HEIGHT = 900, 540


@dataclass(frozen=True)
class FigureSpec:
    """Axes, series, and reference lines for one chart (drawn WIDTH x
    HEIGHT pixels)."""

    title: str
    x_label: str
    y_label: str
    series: Tuple[Tuple[str, Tuple[Point, ...]], ...]
    ref_lines: Tuple[Tuple[float, str], ...] = ()


def _ticks(lo: float, hi: float, target: int = 6) -> Tuple[float, ...]:
    """About target round values spanning [lo, hi], in increasing order.

    A range narrower than the spacing of doubles at its values (the last
    edges of a converged float run) has steps too small to move a double:
    the ticks end where adding the step leaves the value unchanged, and a
    value that rounds to the previous tick is not repeated."""
    raw = (hi - lo) / target
    if hi <= lo or raw == 0:
        return (lo,)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * math.ceil(lo / step)
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        tick = round(v, 12)
        if not ticks or tick != ticks[-1]:
            ticks.append(tick)
        if v + step == v:
            break
        v += step
    return tuple(ticks)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(spec: FigureSpec) -> str:
    """Render the chart as an SVG document string."""
    if not spec.series or all(not pts for _, pts in spec.series):
        raise ValueError("nothing to plot")
    margin_l, margin_r, margin_t, margin_b = 70, 30, 45, 55
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    xs = [p[0] for _, pts in spec.series for p in pts]
    ys = [p[1] for _, pts in spec.series for p in pts]
    ys += [v for v, _ in spec.ref_lines]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> str:
        return f"{margin_l + plot_w * (x - x_lo) / (x_hi - x_lo):.2f}"

    def py(y: float) -> str:
        return f"{margin_t + plot_h * (1 - (y - y_lo) / (y_hi - y_lo)):.2f}"

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append("<!-- data")
    for label, pts in spec.series:
        out.append(f"series: {label}")
        for x, y in pts:
            out.append(f"{x!r},{y!r}")
    for value, label in spec.ref_lines:
        out.append(f"ref: {label} = {value!r}")
    out.append("-->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{spec.title}</text>'
    )

    # frame and ticks
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx)}" y1="{margin_t + plot_h}" x2="{px(tx)}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px(tx)}" y="{margin_t + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{margin_l - 5}" y1="{py(ty)}" x2="{margin_l}" '
            f'y2="{py(ty)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{margin_l - 9}" y="{py(ty)}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{margin_l + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{spec.x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{margin_t + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {margin_t + plot_h // 2})">{spec.y_label}</text>'
    )

    for value, label in spec.ref_lines:
        out.append(
            f'<line x1="{margin_l}" y1="{py(value)}" x2="{margin_l + plot_w}" '
            f'y2="{py(value)}" stroke="#888" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{margin_l + plot_w - 4}" y="{float(py(value)) - 5:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#666">{label}</text>'
        )

    for i, (label, pts) in enumerate(spec.series):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
        if len(pts) <= 400:
            for x, y in pts:
                out.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="1.6" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_figure(spec: FigureSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_line_chart(spec))
