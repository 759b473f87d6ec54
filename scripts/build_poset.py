#!/usr/bin/env python3
"""Build the quotient posets for a range of ground-set sizes.

For each n and flavor this constructs the poset, prints element / cover /
maximal-chain counts plus a self-duality verdict, the seconds the build
took and the process's peak RSS so far, and (optionally) writes the JSON
and Graphviz forms into an output directory.  Counts are read off the
poset's compact form, so no cover pair or decorated permutation is built
unless a file is written.

Usage:
    python3 scripts/build_poset.py --max-n 4 --out-dir build/posets
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from flagpipes.exceptions import DomainError
from flagpipes.poset import (
    FLAVORS,
    build_poset,
    check_self_dual,
    export_dot,
    export_json,
    maximal_chain_count,
    missing_covers,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--flavor", choices=FLAVORS,
                        help="restrict to one flavor")
    parser.add_argument("--out-dir", type=Path,
                        help="write <flavor>_<n>.json/.dot files here")
    return parser.parse_args(argv)


def main(args: argparse.Namespace) -> int:
    header = f"{'n':>3} {'flavor':<14} {'elems':>6} {'covers':>7} " \
             f"{'chains':>7} {'self-dual':>9} {'missing':>8} " \
             f"{'build_s':>8} {'rss_mb':>7}"
    print(header)
    print("-" * len(header))
    flavors = (args.flavor,) if args.flavor else FLAVORS
    for n in range(args.min_n, args.max_n + 1):
        rep = None
        for flavor in flavors:
            start = time.perf_counter()
            poset = build_poset(n, flavor=flavor)
            seconds = time.perf_counter() - start
            chains = maximal_chain_count(poset)
            dual = check_self_dual(poset)
            if flavor == "representable":
                rep, missing = poset, ()
            else:
                missing = missing_covers(rep or build_poset(n), poset)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{n:>3} {flavor:<14} {len(poset.names):>6} "
                  f"{len(poset._csr[1]):>7} {chains:>7} {str(dual):>9} "
                  f"{len(missing):>8} {seconds:>8.2f} {rss_mb:>7.0f}")
            if args.out_dir is not None:
                args.out_dir.mkdir(parents=True, exist_ok=True)
                stem = args.out_dir / f"{flavor}_{n}"
                stem.with_suffix(".json").write_text(
                    json.dumps(export_json(poset), indent=2) + "\n")
                stem.with_suffix(".dot").write_text(
                    export_dot(poset, dashed=missing) + "\n")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(parse_args()))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
