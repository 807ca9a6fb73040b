"""Deterministic drawings of ranked graphs: ascii text and standalone SVG.

Both renderers refuse labellings that fail validation; a drawing of a broken
certificate would only lend it false authority.  Output depends on nothing
but the ranking, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from collections import Counter

from .graphs import PATH
from .verify import Ranking, validate

__all__ = ["render_ascii", "render_svg"]

_CELL = 44
_MARGIN = 26
_RADIUS = 13


def _checked(ranking: Ranking) -> None:
    bad = validate(ranking)
    if bad is not None:
        raise ValueError(
            f"refusing to draw an invalid ranking: level {bad.level} "
            f"witnesses {bad.witnesses}"
        )


def render_ascii(ranking: Ranking) -> str:
    """Text drawing: paths as 1-2-1, everything else label rows on a canvas."""
    _checked(ranking)
    g = ranking.graph
    if g.shape is not None and g.shape.family == PATH:
        return "-".join(str(l) for l in ranking.labels)
    r0, c0, r1, c1 = g.extent
    height, width = r1 - r0 + 1, c1 - c0 + 1
    cell = max(len(str(l)) for l in ranking.labels)
    canvas = [["." * cell] * width for _ in range(height)]
    for i, (r, c) in enumerate(g.coords):
        canvas[r - r0][c - c0] = str(ranking.labels[i]).rjust(cell)
    return "\n".join(" ".join(row).rstrip() for row in canvas)


def _svg_pos(rc: tuple[int, int], r0: int, c0: int) -> tuple[int, int]:
    x = _MARGIN + (rc[1] - c0) * _CELL
    y = _MARGIN + (rc[0] - r0) * _CELL
    return x, y


def render_svg(ranking: Ranking) -> str:
    """Standalone SVG: vertices at their coords, unique max highlighted.

    A legend along the bottom lists every distinct label with its
    multiplicity; for a valid ranking of a connected graph the top label
    always appears exactly once.
    """
    _checked(ranking)
    g = ranking.graph
    r0, c0, r1, c1 = g.extent
    width = (c1 - c0) * _CELL + 2 * _MARGIN
    height = (r1 - r0) * _CELL + 2 * _MARGIN + 30
    top = ranking.label_count
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for u, v in g.edges:
        xu, yu = _svg_pos(g.coords[u], r0, c0)
        xv, yv = _svg_pos(g.coords[v], r0, c0)
        parts.append(
            f'<line x1="{xu}" y1="{yu}" x2="{xv}" y2="{yv}" '
            f'stroke="#555" stroke-width="2"/>'
        )
    for i in range(g.vertex_count):
        x, y = _svg_pos(g.coords[i], r0, c0)
        label = ranking.labels[i]
        fill = "#f2b705" if label == top else "#dce8f5"
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="{_RADIUS}" fill="{fill}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x}" y="{y + 4}" font-size="12" font-family="monospace" '
            f'text-anchor="middle">{label}</text>'
        )
    legend = "  ".join(f"{l}:{c}" for l, c in sorted(Counter(ranking.labels).items()))
    parts.append(
        f'<text x="{_MARGIN}" y="{height - 10}" font-size="12" '
        f'font-family="monospace">labels {legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
