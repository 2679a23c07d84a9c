"""Self-contained SVG rendering of time-data trade-off curves (no renderer
dependencies; the output is a standalone file)."""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple
from xml.sax.saxutils import escape

from .bounds import MAX_EXPONENT

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 30, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def parse_curve_csv(text: str) -> List[Tuple[str, float, float, str]]:
    """Rows (attack, log2D_over_n, log2T_over_n, source) from curve CSV text;
    a coordinate is at most MAX_EXPONENT in magnitude, as a float D or T is."""
    rows = []
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        return rows
    header = [h.strip() for h in lines[0][1].split(",")]
    needed = ("attack", "log2D_over_n", "log2T_over_n")
    if not all(col in header for col in needed):
        raise ValueError(f"curve CSV must carry columns {needed}, got {header}")
    idx = {name: header.index(name) for name in header}
    for no, ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) < len(header):
            raise ValueError(f"line {no}: {len(parts)} fields, the header has {len(header)}")
        coords = [float(parts[idx[col]]) for col in needed[1:]]
        for col, value in zip(needed[1:], coords):
            if not abs(value) <= MAX_EXPONENT:  # false for nan too
                raise ValueError(f"line {no}: {col} = {value}: must be finite and at "
                                 f"most {MAX_EXPONENT} in magnitude")
        rows.append((
            parts[idx["attack"]], *coords,
            parts[idx["measured_or_formula"]] if "measured_or_formula" in idx else "formula",
        ))
    return rows


def curve_rows_csv(rows: Sequence[Tuple[str, float, float, str]]) -> str:
    lines = ["attack,log2D_over_n,log2T_over_n,measured_or_formula"]
    for attack, x, y, src in rows:
        lines.append(f"{attack},{x},{y},{src}")
    return "\n".join(lines) + "\n"


def _ticks(lo: float, hi: float, step: float) -> List[float]:
    out = []
    v = lo
    while v <= hi + 1e-9:
        out.append(round(v, 6))
        v += step
    return out


def _px(x: float, lo: float, hi: float) -> float:
    """SVG x coordinate of x on a horizontal axis from lo to hi."""
    return MARGIN_L + (x - lo) / (hi - lo) * (WIDTH - MARGIN_L - MARGIN_R)


def _py(y: float, lo: float, hi: float) -> float:
    """SVG y coordinate of y on a vertical axis from lo to hi."""
    return HEIGHT - MARGIN_B - (y - lo) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)


def plot_curves(rows: Sequence[Tuple[str, float, float, str]]) -> str:
    """Render polylines (formula rows) and markers (measured rows) as SVG."""
    xs = [r[1] for r in rows] or [0.0, 1.0]
    ys = [r[2] for r in rows] or [0.0, 1.0]
    x_lo, x_hi = 0.0, max(1.0, max(xs))
    y_lo, y_hi = 0.0, max(1.0, max(ys))
    px = partial(_px, lo=x_lo, hi=x_hi)
    py = partial(_py, lo=y_lo, hi=y_hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{py(y_lo)}" x2="{px(x_hi)}" y2="{py(y_lo)}" '
        'stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{py(y_lo)}" x2="{MARGIN_L}" y2="{py(y_hi)}" '
        'stroke="black"/>',
        f'<text x="{(MARGIN_L + px(x_hi)) / 2}" y="{HEIGHT - 10}" font-size="13" '
        'text-anchor="middle">log2(D) / n</text>',
        f'<text x="18" y="{(py(y_lo) + py(y_hi)) / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(py(y_lo) + py(y_hi)) / 2})">log2(T) / n</text>',
    ]
    for t in _ticks(x_lo, x_hi, 0.25):
        parts.append(f'<line x1="{px(t)}" y1="{py(y_lo)}" x2="{px(t)}" y2="{py(y_lo) + 4}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{px(t)}" y="{py(y_lo) + 18}" font-size="11" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi, 0.5):
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{py(t)}" x2="{MARGIN_L}" y2="{py(t)}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py(t) + 4}" font-size="11" '
                     f'text-anchor="end">{t:g}</text>')

    series: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for attack, x, y, src in rows:
        series.setdefault((attack, src), []).append((x, y))
    legend_y = MARGIN_T + 10
    for i, ((attack, src), pts) in enumerate(sorted(series.items())):
        color = PALETTE[i % len(PALETTE)]
        pts = sorted(pts)
        if src == "measured":
            for x, y in pts:
                parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3.5" fill="{color}"/>')
        else:
            path = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         'stroke-width="2"/>')
        lx = WIDTH - MARGIN_R + 10
        parts.append(f'<rect x="{lx}" y="{legend_y - 8}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{legend_y + 2}" font-size="11">'
                     f'{escape(f"{attack} ({src})")}</text>')
        legend_y += 20
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
