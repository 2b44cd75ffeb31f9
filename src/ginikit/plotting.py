"""Byte-deterministic distribution plots (SVG) and plot tables (CSV).

No plotting library is used: identical input must produce identical bytes
on every platform, so the SVG is assembled from fixed-format strings only.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ._util import format_double
from .mwd import MWDataset, _checked

__all__ = ["render_svg", "render_csv", "histogram_bins"]

_WIDTH = 720.0
_HEIGHT = 480.0
_MARGIN_LEFT = 60.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 50.0
_NUM_BINS = 40

_MARK_COLORS = {
    "Mn": "#1b7837",
    "Mv": "#542788",
    "Mw": "#b35806",
    "Mz": "#c51b7d",
}


def _fmt(x: float) -> str:
    """Fixed two-decimal coordinate formatting (deterministic, compact)."""
    return f"{x:.2f}"


def histogram_bins(dataset: MWDataset) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced mass bins and the abundance fraction landing in each.

    Returns ``(edges, fractions)`` with ``len(edges) == len(fractions) + 1``.
    Monodisperse datasets get a single symmetric bin around the common mass.
    A ``dataset`` that is no :class:`MWDataset` raises
    :class:`ginikit.errors.DataError`; both renderers start here, so they
    refuse one the same way.
    """
    dataset = _checked(dataset, MWDataset)
    masses = dataset.masses
    fractions = dataset.abundances / dataset.abundances.sum()
    lo = math.log10(float(masses.min()))
    hi = math.log10(float(masses.max()))
    if lo == hi:
        edges = np.array([10.0 ** (lo - 0.05), 10.0 ** (lo + 0.05)])
        return edges, np.array([1.0])
    edges = 10.0 ** np.linspace(lo, hi, _NUM_BINS + 1)
    # Guard against rounding pushing the extreme masses outside the edge
    # array; np.histogram treats the last bin as closed already.
    edges[0] = min(edges[0], float(masses.min()))
    edges[-1] = max(edges[-1], float(masses.max()))
    counts, _ = np.histogram(masses, bins=edges, weights=fractions)
    return edges, counts


def render_csv(dataset: MWDataset, marks: Mapping[str, float]) -> str:
    """Plot data as text: the binned table followed by a means block."""
    edges, fractions = histogram_bins(dataset)
    lines = ["bin_low,bin_high,abundance_fraction"]
    lines.extend(
        f"{format_double(edges[i])},{format_double(edges[i + 1])},{format_double(fractions[i])}"
        for i in range(len(fractions))
    )
    lines.append("")
    lines.append("mark,value")
    for name, value in sorted(marks.items(), key=lambda item: (item[1], item[0])):
        lines.append(f"{name},{format_double(value)}")
    return "\n".join(lines) + "\n"


def render_svg(dataset: MWDataset, marks: Mapping[str, float]) -> str:
    """Histogram of the distribution with labeled vertical mean markers.

    Markers are drawn in increasing value order (left to right).  The
    output is pure deterministic text; rendering the same dataset twice
    yields identical bytes.
    """
    edges, fractions = histogram_bins(dataset)
    log_edges = np.log10(edges)
    span_lo = float(log_edges[0])
    span_hi = float(log_edges[-1])
    if marks:
        span_lo = min(span_lo, min(math.log10(v) for v in marks.values()) - 0.02)
        span_hi = max(span_hi, max(math.log10(v) for v in marks.values()) + 0.02)
    if span_hi <= span_lo:
        span_hi = span_lo + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_of = lambda lg: _MARGIN_LEFT + (lg - span_lo) / (span_hi - span_lo) * plot_w
    peak = float(fractions.max())

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    parts.append(f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>')
    title = dataset.label if dataset.label else "molecular weight distribution"
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT)}" y="24.00" font-family="monospace" '
        f'font-size="14">{_escape(title)}</text>'
    )

    for i in range(len(fractions)):
        frac = float(fractions[i])
        if frac <= 0.0:
            continue
        x0 = x_of(float(log_edges[i]))
        x1 = x_of(float(log_edges[i + 1]))
        bar_h = plot_h * frac / peak
        y0 = _MARGIN_TOP + (plot_h - bar_h)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(bar_h)}" fill="#4393c3" stroke="#2166ac" stroke-width="0.50"/>'
        )

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{_fmt(axis_y)}" '
        f'stroke="#000000" stroke-width="1.00"/>'
    )
    for decade in range(math.ceil(span_lo), math.floor(span_hi) + 1):
        x = x_of(float(decade))
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 6.0)}" stroke="#000000" stroke-width="1.00"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 22.0)}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">1e{decade}</text>'
        )

    ordered = sorted(marks.items(), key=lambda item: (item[1], item[0]))
    for index, (name, value) in enumerate(ordered):
        x = x_of(math.log10(value))
        color = _MARK_COLORS.get(name, "#636363")
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y)}" stroke="{color}" stroke-width="1.50" '
            f'stroke-dasharray="4,3"/>'
        )
        label_y = _MARGIN_TOP + 14.0 + 16.0 * index
        parts.append(
            f'<text x="{_fmt(x + 4.0)}" y="{_fmt(label_y)}" font-family="monospace" '
            f'font-size="12" fill="{color}">{_escape(name)}</text>'
        )
    legend_y = _MARGIN_TOP + 14.0
    for index, (name, value) in enumerate(ordered):
        color = _MARK_COLORS.get(name, "#636363")
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN_RIGHT - 230.0)}" '
            f'y="{_fmt(legend_y + 16.0 * index)}" font-family="monospace" '
            f'font-size="12" fill="{color}">{_escape(name)} = {format_double(value)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
