"""Deterministic SVG charts of edge against iteration.

Output bytes depend only on the inputs: no timestamps, random ids, or
library version strings. The full data table rides along in an XML comment
so a figure can be audited against its trace.
"""

from __future__ import annotations

import math
import re
from html import escape  # with quote=False, the text of xml.sax.saxutils.escape, without its 45 imports
from typing import Optional, Sequence, Tuple

WIDTH, HEIGHT = 900, 540
COLOR = "#1f6fb2"

# What XML 1.0 cannot hold: C0 controls other than tab, LF and CR, lone
# surrogates (a byte of a non-UTF-8 argv decodes to one), U+FFFE and U+FFFF.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
# A dash followed by a dash, which would end the data comment early.
_DOUBLE_DASH = re.compile("-(?=-)")


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


def save_figure(
    edges: Sequence[float],
    path: str,
    title: str,
    refs: Sequence[Tuple[float, str]] = (),
    last: Optional[int] = None,
) -> None:
    """Write edge against iteration (the step t) as a WIDTH x HEIGHT SVG
    chart: every step's edge, or the last `last` ones, with a dashed line
    for each (value, label) in refs. In the title and the labels, each
    character XML cannot hold becomes U+FFFD; they are then escaped as XML
    text (&, < and >), and a label's `--` is broken in the data comment."""
    title = _NOT_XML.sub("\ufffd", title)
    refs = [(value, _NOT_XML.sub("\ufffd", label)) for value, label in refs]
    pts = [(float(t), edge) for t, edge in enumerate(edges)]
    if last:
        pts = pts[-last:]
    if not pts:
        raise ValueError("nothing to plot")
    margin_l, margin_r, margin_t, margin_b = 70, 30, 45, 55
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    xs = [x for x, _ in pts]
    ys = [y for _, y in pts] + [v for v, _ in refs]
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

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<!-- data",
        "series: edge",
        *(f"{x!r},{y!r}" for x, y in pts),
        *(f"ref: {_DOUBLE_DASH.sub('- ', label)} = {value!r}" for value, label in refs),
        "-->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
        # frame and ticks
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        out += [
            f'<line x1="{px(tx)}" y1="{margin_t + plot_h}" x2="{px(tx)}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#333"/>',
            f'<text x="{px(tx)}" y="{margin_t + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>',
        ]
    for ty in _ticks(y_lo, y_hi):
        out += [
            f'<line x1="{margin_l - 5}" y1="{py(ty)}" x2="{margin_l}" '
            f'y2="{py(ty)}" stroke="#333"/>',
            f'<text x="{margin_l - 9}" y="{py(ty)}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="11">{ty:.6g}</text>',
        ]
    out += [
        f'<text x="{margin_l + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">iteration</text>',
        f'<text x="18" y="{margin_t + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {margin_t + plot_h // 2})">edge</text>',
    ]

    for value, label in refs:
        out += [
            f'<line x1="{margin_l}" y1="{py(value)}" x2="{margin_l + plot_w}" '
            f'y2="{py(value)}" stroke="#888" stroke-dasharray="6 4"/>',
            f'<text x="{margin_l + plot_w - 4}" y="{float(py(value)) - 5:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#666">{escape(label, quote=False)}</text>',
        ]

    coords = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
    out.append(f'<polyline points="{coords}" fill="none" stroke="{COLOR}" stroke-width="1"/>')
    if len(pts) <= 400:
        out.extend(f'<circle cx="{px(x)}" cy="{py(y)}" r="1.6" fill="{COLOR}"/>' for x, y in pts)
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
