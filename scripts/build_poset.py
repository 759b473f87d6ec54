#!/usr/bin/env python3
"""Build the quotient posets for a range of ground-set sizes.

For each n and flavor this constructs the poset, prints element / cover /
maximal-chain counts plus a self-duality verdict, and (optionally) writes
the JSON and Graphviz forms into an output directory.

Usage:
    python3 scripts/build_poset.py --max-n 4 --out-dir build/posets
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from flagpipes.exceptions import DomainError
from flagpipes.poset import (
    build_poset,
    check_self_dual,
    export_dot,
    export_json,
    maximal_chain_count,
    missing_covers,
)


@dataclass(frozen=True)
class Config:
    min_n: int = 1
    max_n: int = 4
    flavors: tuple[str, ...] = ("representable", "matroidal")
    out_dir: Path | None = None
    dot: bool = field(default=True)


def parse_args(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=Config.min_n)
    parser.add_argument("--max-n", type=int, default=Config.max_n)
    parser.add_argument("--flavor", choices=("representable", "matroidal"),
                        help="restrict to one flavor")
    parser.add_argument("--out-dir", type=Path,
                        help="write <flavor>_<n>.json/.dot files here")
    parser.add_argument("--no-dot", action="store_true")
    args = parser.parse_args(argv)
    flavors = (args.flavor,) if args.flavor else Config.flavors
    return Config(min_n=args.min_n, max_n=args.max_n, flavors=flavors,
                  out_dir=args.out_dir, dot=not args.no_dot)


def main(cfg: Config) -> int:
    header = f"{'n':>3} {'flavor':<14} {'elems':>6} {'covers':>7} " \
             f"{'chains':>7} {'self-dual':>9} {'missing':>8}"
    print(header)
    print("-" * len(header))
    for n in range(cfg.min_n, cfg.max_n + 1):
        rep = None
        for flavor in cfg.flavors:
            poset = build_poset(n, flavor=flavor)
            chains = maximal_chain_count(poset)
            dual = check_self_dual(poset)
            if flavor == "representable":
                rep, missing = poset, ()
            else:
                missing = missing_covers(rep or build_poset(n), poset)
            print(f"{n:>3} {flavor:<14} {len(poset.decperms):>6} "
                  f"{len(poset.covers):>7} {chains:>7} {str(dual):>9} "
                  f"{len(missing):>8}")
            if cfg.out_dir is not None:
                cfg.out_dir.mkdir(parents=True, exist_ok=True)
                stem = cfg.out_dir / f"{flavor}_{n}"
                stem.with_suffix(".json").write_text(
                    json.dumps(export_json(poset), indent=2) + "\n")
                if cfg.dot:
                    stem.with_suffix(".dot").write_text(
                        export_dot(poset, dashed=missing) + "\n")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(parse_args()))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
