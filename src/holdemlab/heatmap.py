"""Range-grid heatmaps: SVG (legible labels, legend) and PPM (no deps).

Darker cells carry more probability; shading is monotone in weight. The
169-class view draws the classic 13x13 grid (pairs on the diagonal, suited
above, offsuit below); the full view draws all 1,326 combos as a 52x52
upper triangle indexed by card.
"""
from __future__ import annotations

import numpy as np

from .rangegrid import COMBO_CARDS, CLASS_NAMES, ComboGrid

_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


class HeatmapError(ValueError):
    pass


def _shade(weight: float, wmax: float) -> tuple[int, int, int]:
    t = 0.0 if wmax <= 0 else min(1.0, weight / wmax)
    return tuple(int(round(l + (d - l) * t)) for l, d in zip(_LIGHT, _DARK))


def _class_matrix(grid: ComboGrid) -> np.ndarray:
    return grid.class_view().weights


def _combo_matrix(grid: ComboGrid) -> np.ndarray:
    m = np.zeros((52, 52))
    for idx, (a, b) in enumerate(COMBO_CARDS):
        m[a, b] = grid.weights[idx]
    return m


def render_svg(grid: ComboGrid, *, mode: str = "169", title: str = "") -> str:
    if mode == "169":
        matrix = _class_matrix(grid)
        labels = np.array(CLASS_NAMES).reshape(13, 13)
        cell = 34
    elif mode == "1326":
        matrix = _combo_matrix(grid)
        labels = None
        cell = 9
    else:
        raise HeatmapError(f"unknown heatmap mode {mode!r}")
    n = matrix.shape[0]
    wmax = float(matrix.max())
    pad = 10
    legend_h = 36
    width = n * cell + 2 * pad
    height = n * cell + 2 * pad + legend_h + (18 if title else 0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="{max(8, cell // 3)}">'
    ]
    top = pad + (18 if title else 0)
    if title:
        out.append(f'<text x="{pad}" y="{pad + 4}" font-size="12">{title}</text>')
    for r in range(n):
        for c in range(n):
            w = float(matrix[r, c])
            if mode == "1326" and c <= r:
                continue
            fill = "rgb(%d,%d,%d)" % _shade(w, wmax)
            x, y = pad + c * cell, top + r * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}" '
                f'stroke="#cccccc" stroke-width="0.5"/>'
            )
            if labels is not None:
                color = "#ffffff" if wmax > 0 and w / wmax > 0.55 else "#333333"
                out.append(
                    f'<text x="{x + cell / 2}" y="{y + cell / 2 + 3}" text-anchor="middle" '
                    f'fill="{color}">{labels[r, c]}</text>'
                )
    # legend: light-to-dark ramp, annotated with the weight range
    ly = top + n * cell + 10
    steps = 40
    lw = min(240, n * cell)
    for i in range(steps):
        fill = "rgb(%d,%d,%d)" % _shade(wmax * (i + 0.5) / steps, wmax)
        out.append(
            f'<rect x="{pad + i * lw / steps:.1f}" y="{ly}" width="{lw / steps + 0.5:.1f}" height="10" fill="{fill}"/>'
        )
    out.append(f'<text x="{pad}" y="{ly + 22}" font-size="10">0</text>')
    out.append(f'<text x="{pad + lw}" y="{ly + 22}" font-size="10" text-anchor="end">{wmax:.4g} (darker = more likely)</text>')
    out.append("</svg>")
    return "\n".join(out)


def render_ppm(grid: ComboGrid, *, mode: str = "169", cell_px: int = 12) -> str:
    """Plain ASCII PPM (P3). Dependency-free and easy to assert against."""
    matrix = _class_matrix(grid) if mode == "169" else _combo_matrix(grid)
    if mode not in ("169", "1326"):
        raise HeatmapError(f"unknown heatmap mode {mode!r}")
    n = matrix.shape[0]
    wmax = float(matrix.max())
    size = n * cell_px
    lines = ["P3", f"{size} {size}", "255"]
    for r in range(n):
        row_px: list[str] = []
        for c in range(n):
            rgb = _shade(float(matrix[r, c]), wmax)
            row_px.extend(" ".join(map(str, rgb)) for _ in range(cell_px))
        row = "  ".join(row_px)
        for _ in range(cell_px):
            lines.append(row)
    return "\n".join(lines) + "\n"
