"""Minimal static SVG line plots (log axes), no plotting dependency.

CSVs remain the canonical output; these are quick-look figures only.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def line_plot_svg(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series on log-log axes; points with x <= 0 or
    y <= 1e-300 are dropped."""
    pts = []
    for _, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 1e-300)
        pts.append((x[keep], y[keep]))

    xs = np.log10(np.concatenate([p[0] for p in pts if len(p[0])] or [np.array([1.0])]))
    ys = np.log10(np.concatenate([p[1] for p in pts if len(p[1])] or [np.array([1.0])]))
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (np.log10(v) - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + ph - (np.log10(v) - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # decade grid lines and labels
    for tick in _ticks(y_lo, y_hi):
        yy = sy(10.0**tick)
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_W - _MR}" y2="{yy:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{yy + 4:.2f}" text-anchor="end">1e{tick}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        xx = sx(10.0**tick)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_MT}" x2="{xx:.2f}" y2="{_MT + ph}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_MT + ph + 16}" text-anchor="middle">1e{tick}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    for idx, ((name, _, _), (px, py)) in enumerate(zip(series, pts)):
        color = _COLORS[idx % len(_COLORS)]
        if len(px):
            # one array transform per series; each element rounds as one scalar would
            coords = " ".join(map("{:.2f},{:.2f}".format, sx(px).tolist(), sy(py).tolist()))
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 14 + 15 * idx
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 110}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_W - _MR - 104}" y="{ly}">{name}</text>')
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
