"""Minimal static SVG line charts. CSV is the authoritative artifact; these
renderings are a convenience, kept dependency-free."""

from __future__ import annotations

import math

from . import open_replacing

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 50


def _nice_ticks(lo, hi, n=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks or [lo]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_line_chart(path, title, xlabel, ylabel, series, logy=False):
    """Write a line chart with one polyline per (label, xs, ys) series, each
    without its non-finite points and, on a log axis, its non-positive ones;
    the file appears all or nothing, as the CSV does."""
    series = [(label, [(x, y) for x, y in zip(xs, ys)
                       if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)])
              for label, xs, ys in series]
    pts = [p for _, kept in series for p in kept] or [(0.0, 0.0), (1.0, 1.0)]
    xs_all = [p[0] for p in pts]
    ys_all = [math.log10(p[1]) if logy else p[1] for p in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y):
        yy = math.log10(y) if logy else y
        return _H - _MB - (yy - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>'
    )
    for t in _nice_ticks(x0, x1):
        out.append(
            f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    if logy:
        lo_e, hi_e = math.floor(y0), math.ceil(y1)
        yticks = [10.0 ** e for e in range(lo_e, hi_e + 1)]
    else:
        yticks = _nice_ticks(y0, y1)
    for t in yticks:
        yy = py(t)
        if yy < _MT - 1 or yy > _H - _MB + 1:
            continue
        out.append(f'<line x1="{_ML - 5}" y1="{yy:.1f}" x2="{_ML}" y2="{yy:.1f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{yy + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>'
    )
    # series
    for idx, (label, kept) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [(px(x), py(y)) for x, y in kept]
        if coords:
            path_d = " ".join(f"{cx:.1f},{cy:.1f}" for cx, cy in coords)
            out.append(
                f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            for cx, cy in coords:
                out.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="2.5" fill="{color}"/>')
        ly = _MT + 16 * idx + 8
        out.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{_W - _MR + 35}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    with open_replacing(path) as fh:
        fh.write("\n".join(out) + "\n")
