"""Minimal static SVG charts for figure-shaped convenience output.

Everything is written by hand into a single self-contained <svg> element:
no renderer, no fonts beyond the viewer default, byte-deterministic output
for identical inputs.  Only the two chart shapes the presets need are
provided: multi-series line charts (optionally log-x, optionally marking the
global minimum) and grouped bar charts with an optional reference polyline.
Both end in one epilogue, which draws the frame, title, axes and legend and
writes the file; every text node passes through one place, which escapes
XML markup.  The bar chart's n-axis ends past the last photon number where
a group or the reference carries more than ``_MASS_CUT`` (1e-4) probability.
"""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 72, 18, 34, 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MASS_CUT = 1e-4


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _lin_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    lo = max(lo, 1e-300)
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * (1 + 1e-12):
        if 10.0**d >= lo * (1 - 1e-12):
            ticks.append(10.0**d)
        d += 1
    return ticks or [lo, hi]


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi, logx=False):
        self.xlo, self.xhi, self.ylo, self.yhi, self.logx = xlo, xhi, ylo, yhi, logx

    def x(self, v):
        if self.logx:
            a, b = math.log10(self.xlo), math.log10(self.xhi)
            f = (math.log10(max(v, 1e-300)) - a) / (b - a)
        else:
            f = (v - self.xlo) / (self.xhi - self.xlo)
        return _ML + f * (_W - _ML - _MR)

    def y(self, v):
        f = (v - self.ylo) / (self.yhi - self.ylo)
        return _H - _MB - f * (_H - _MT - _MB)


def _text(x, y, size: int, content: str, anchor: str = "", transform: str = "") -> str:
    """One <text> node; its content is XML-escaped here and nowhere else
    (by hand: xml.sax.saxutils imports urllib.request and its SSL stack)."""
    content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{content}</text>'
    )


def _axes(frame, xlabel, ylabel) -> list:
    parts = []
    xticks = _log_ticks(frame.xlo, frame.xhi) if frame.logx else _lin_ticks(frame.xlo, frame.xhi)
    for t in xticks:
        px = f"{frame.x(t):.1f}"
        parts.append(
            f'<line x1="{px}" y1="{_H - _MB}" x2="{px}" y2="{_H - _MB + 5}" stroke="#333"/>'
        )
        parts.append(_text(px, _H - _MB + 18, 11, _fmt(t), "middle"))
    for t in _lin_ticks(frame.ylo, frame.yhi):
        py = frame.y(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#333"/>'
        )
        parts.append(_text(_ML - 8, f"{py + 4:.1f}", 11, _fmt(t), "end"))
    ymid = f"{(_MT + _H - _MB) / 2:.1f}"
    parts.append(_text(f"{(_ML + _W - _MR) / 2:.1f}", _H - 14, 13, xlabel, "middle"))
    parts.append(_text(18, ymid, 13, ylabel, "middle", f"rotate(-90 18 {ymid})"))
    return parts


def _write(path, title: str, frame, xlabel: str, ylabel: str, body: list, labels: list) -> None:
    """Every chart's epilogue: background, plot frame, title and axes, then
    the chart's own body, a legend entry per label in palette order, and the
    file."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(f"{_W / 2:.1f}", _MT - 12, 14, title, "middle"))
    parts += _axes(frame, xlabel, ylabel) + body
    x0, y = _W - _MR - 140, _MT + 14
    for i, label in enumerate(labels):
        parts.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 22}" y2="{y - 4}" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="2"/>'
        )
        parts.append(_text(x0 + 28, y, 11, label))
        y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(
    path,
    series,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    title: str = "",
    mark_min: bool = False,
) -> None:
    """Multi-series line chart; series = [(label, xs, ys), ...]."""
    finite = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            ok &= xs > 0
        finite.append((label, xs[ok], ys[ok]))
    allx = np.concatenate([s[1] for s in finite if s[1].size] or [np.array([0.0, 1.0])])
    ally = np.concatenate([s[2] for s in finite if s[2].size] or [np.array([0.0, 1.0])])
    ypad = 0.05 * (ally.max() - ally.min() or 1.0)
    xlo, xhi = (allx.min() if not logx else max(allx.min(), 1e-300)), allx.max()
    if xlo == xhi:  # one x value: pad as y is padded, in decades on a log axis
        xlo, xhi = (xlo / 10**0.05, xhi * 10**0.05) if logx else (xlo - 0.05, xhi + 0.05)
    frame = _Frame(
        xlo,
        xhi,
        ally.min() - ypad,
        ally.max() + ypad,
        logx=logx,
    )
    body = []
    for i, (label, xs, ys) in enumerate(finite):
        if not xs.size:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}" for x, y in zip(xs, ys))
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    if mark_min:
        best = None
        for _, xs, ys in finite:
            if ys.size:
                j = int(np.argmin(ys))
                if best is None or ys[j] < best[1]:
                    best = (xs[j], ys[j])
        if best is not None:
            cx, cy = frame.x(best[0]), frame.y(best[1])
            body.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" '
                'fill="none" stroke="#000" stroke-width="1.5"/>'
            )
            label = f"min {_fmt(best[1])} at {_fmt(best[0])}"
            body.append(_text(f"{cx + 8:.1f}", f"{cy - 8:.1f}", 11, label))
    _write(path, title, frame, xlabel, ylabel, body, [s[0] for s in finite])


def bar_chart(path, groups, xlabel: str, ylabel: str, title: str = "", reference=None) -> None:
    """Grouped bars over photon number; groups = [(label, probabilities), ...].

    ``reference``: optional (label, probabilities) polyline drawn on top (e.g.
    a Poisson distribution with matched mean).  The n-axis is trimmed, for
    the groups and the reference alike, to where one of them carries more
    than ``_MASS_CUT`` probability.
    """
    groups = [(label, np.asarray(p, dtype=float)) for label, p in groups]
    drawn = groups + ([(reference[0], np.asarray(reference[1], dtype=float))] if reference else [])
    nmax = 1
    for _, p in drawn:
        idx = np.nonzero(p > _MASS_CUT)[0]
        if idx.size:
            nmax = max(nmax, int(idx.max()) + 1)
    top = max(max(p[: nmax + 1].max() for _, p in drawn), 1e-12)
    frame = _Frame(-0.5, nmax + 0.5, 0.0, 1.08 * top)
    slot = (frame.x(1.0) - frame.x(0.0)) * 0.8
    width = slot / len(groups)
    body = []
    for gi, (label, p) in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        for n in range(min(nmax + 1, p.size)):
            if p[n] <= 0:
                continue
            x0 = frame.x(n) - slot / 2 + gi * width
            y0 = frame.y(p[n])
            body.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{width:.2f}" '
                f'height="{frame.y(0.0) - y0:.2f}" fill="{color}" fill-opacity="0.85"/>'
            )
    if reference is not None:
        pts = " ".join(
            f"{frame.x(float(n)):.2f},{frame.y(float(y)):.2f}"
            for n, y in enumerate(drawn[-1][1][: nmax + 1])  # the reference, drawn last
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="#000" stroke-width="1.6"/>')
    _write(path, title, frame, xlabel, ylabel, body, [g[0] for g in drawn])
