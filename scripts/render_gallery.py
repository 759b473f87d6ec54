#!/usr/bin/env python3
"""Render an HTML gallery of every interval pipe dream for one ground set.

Each comparable pair u <= v in Bruhat order contributes one SVG grid,
captioned with the interval, the elbow count, and the flag the dream
names: the decorated permutations of ranks 1 through n - 1 of its chain
(rank n is always the top element).  Output is a single self-contained
index.html.  The dreams come from ``enumerate_fpps`` under its
``enumerate_max_n`` guard; a size past the guard prints an error and
exits 1.

Usage:
    python3 scripts/render_gallery.py --n 3 --out build/gallery3.html
"""

from __future__ import annotations

import argparse
import sys
from html import escape
from pathlib import Path

from flagpipes.decperm import decperm_of
from flagpipes.exceptions import DomainError
from flagpipes.flagbuild import flag_of_fpp
from flagpipes.pipedream import elbow_count, enumerate_fpps, right_exit_labels
from flagpipes.render import svg_grid, unicode_decperm

CELL = 28  # pixels per grid cell


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("gallery.html"))
    return parser.parse_args(argv)


def one_line(w: tuple[int, ...]) -> str:
    sep = "," if len(w) > 9 else ""
    return sep.join(str(x) for x in w)


def main(args: argparse.Namespace) -> int:
    cards = []
    try:
        for D in enumerate_fpps(args.n):
            u = D.pivots
            exits = right_exit_labels(D)
            v = tuple(exits[i] for i in range(1, D.rows + 1))
            elbows = elbow_count(D)
            flag = " → ".join(unicode_decperm(decperm_of(P.dream))
                              for P in flag_of_fpp(D).constituents[:-1])
            caption = f"[{one_line(u)}, {one_line(v)}], {elbows} elbows"
            if flag:
                caption += f", flag {flag}"
            cards.append((elbows, u, v, svg_grid(D, cell=CELL), caption))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cards.sort()
    body = "\n".join(
        f'<figure>{svg}<figcaption>{escape(caption)}</figcaption></figure>'
        for _, _, _, svg, caption in cards)
    html = (
        "<!doctype html><meta charset='utf-8'>"
        f"<title>interval dreams on [{args.n}]</title>"
        "<style>body{font-family:sans-serif}figure{display:inline-block;"
        "margin:8px;text-align:center}figcaption{font-size:12px}</style>"
        f"<h1>{len(cards)} interval dreams on [{args.n}]</h1>\n" + body + "\n")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(html)
    print(f"wrote {len(cards)} grids to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(parse_args()))
