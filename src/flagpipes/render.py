"""Text and SVG pictures of pipe-dream grids.

ASCII output is the letter grid itself (one row per line, same letters as
the JSON tile encoding).  SVG draws each strand: straight segments for
crossings and half tiles, quarter-circle turns for elbows, with the pivot
elbow picked out in its own color.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .pipedream import CROSS, ELBOW, EMPTY, HLINE, PIVOT, PipeDream, VLINE

if TYPE_CHECKING:
    from .decperm import DecoratedPermutation

__all__ = ["ascii_grid", "svg_grid", "unicode_decperm"]

_OVERBAR = "̄"
_UNDERBAR = "̲"


def ascii_grid(D: PipeDream) -> str:
    """The tile letters, one row per line.

    >>> from .pipedream import construct_fpp
    >>> print(ascii_grid(construct_fpp((1, 2, 3), (3, 1, 2))))
    PEE
    .PX
    ..P
    """
    return "\n".join(D.grid)


def _tile_paths(tile: str, x: float, y: float, s: float) -> list[tuple[str, str]]:
    """(svg path data, css class) pairs for one cell at (x, y), side s."""
    r = s / 2
    cx, cy = x + r, y + r
    top = f"{cx},{y}"
    bottom = f"{cx},{y + s}"
    left = f"{x},{cy}"
    right = f"{x + s},{cy}"
    center = f"{cx},{cy}"
    turn_tr = f"M {top} Q {center} {right}"
    turn_lb = f"M {left} Q {center} {bottom}"
    if tile == PIVOT:
        return [(turn_tr, "pivot")]
    if tile == ELBOW:
        return [(turn_tr, "pipe"), (turn_lb, "pipe")]
    if tile == CROSS:
        return [(f"M {top} L {bottom}", "pipe"), (f"M {left} L {right}", "pipe")]
    if tile == HLINE:
        return [(f"M {left} L {right}", "pipe")]
    if tile == VLINE:
        return [(f"M {top} L {bottom}", "pipe")]
    if tile == EMPTY:
        return []
    raise ValueError(f"unknown tile {tile!r}")


def svg_grid(D: PipeDream, cell: int = 24) -> str:
    """A standalone SVG document for the grid.

    >>> from .pipedream import construct_fpp
    >>> svg = svg_grid(construct_fpp((1, 2), (2, 1)))
    >>> svg.startswith('<svg') and svg.count('<path') == 4
    True
    """
    k, n = len(D.pivots), D.cols
    w, h = n * cell, k * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        "<style>.cell{fill:none;stroke:#ccc;stroke-width:1}"
        ".pipe{fill:none;stroke:#1f4e8c;stroke-width:2.5;stroke-linecap:round}"
        ".pivot{fill:none;stroke:#c0392b;stroke-width:2.5;stroke-linecap:round}"
        "</style>",
    ]
    for i in range(k):
        for j in range(n):
            x, y = j * cell, i * cell
            parts.append(f'<rect class="cell" x="{x}" y="{y}" '
                         f'width="{cell}" height="{cell}"/>')
            for d, cls in _tile_paths(D.tile(i + 1, j + 1), x, y, cell):
                parts.append(f'<path class="{cls}" d="{d}"/>')
    parts.append("</svg>")
    return "".join(parts)


def unicode_decperm(w: DecoratedPermutation) -> str:
    """Display form: overbar for the over color, low line for under.

    >>> from .decperm import parse_decperm
    >>> unicode_decperm(parse_decperm("2o1u")) == "2̄" + "1̲"
    True
    """
    marks = {2: _OVERBAR, 1: _UNDERBAR}
    pieces = [f"{v}{marks[c]}" for v, c in zip(w.perm, w.color)]
    sep = "," if w.n > 9 else ""
    return sep.join(pieces)
