#!/usr/bin/env python3
"""Survey elementary quotient covers across all positroids up to a size.

Enumerates every positroid on [n] for n in the requested range and reports,
per (n, rank): how many positroids there are, how their cover counts
distribute over the number of unblocked columns (the count is always
2^u - 1 for u unblocked columns), and how many have lattice-path shape.
Optionally cross-checks the covers, which are built from the cyclic
shifts, against the row-append route: a row appended along each choice of
unblocked columns and standardized, in the order of the decorated
permutations read off those dreams.

Usage:
    python3 scripts/survey_covers.py --max-n 4 --cross-check
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import combinations

from flagpipes.decperm import decperm_of
from flagpipes.exceptions import DomainError
from flagpipes.flagbuild import append_row, quotient_covers
from flagpipes.positroid import enumerate_positroids, is_lpm, standardize


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--cross-check", action="store_true",
                        help="verify covers and their order against the "
                             "row-append route")
    return parser.parse_args(argv)


def main(args: argparse.Namespace) -> int:
    mismatches = 0
    for n in range(args.min_n, args.max_n + 1):
        by_rank: dict[int, Counter] = {}
        lpm_by_rank: Counter = Counter()
        total = 0
        for P in enumerate_positroids(n):
            total += 1
            unblocked = len(P.unblocked)
            by_rank.setdefault(P.rank, Counter())[unblocked] += 1
            if is_lpm(P):
                lpm_by_rank[P.rank] += 1
            if args.cross_check and P.rank < n:
                U = P.unblocked
                appended = sorted(
                    (standardize(append_row(P.dream, C))
                     for r in range(1, len(U) + 1)
                     for C in combinations(U, r)),
                    key=lambda D: decperm_of(D).to_string())
                if [Q.dream for Q in quotient_covers(P)] != appended:
                    mismatches += 1
                    print("!! route mismatch at "
                          f"{decperm_of(P.dream).to_string()}")
        print(f"n={n}: {total} positroids")
        for rank in sorted(by_rank):
            dist = by_rank[rank]
            covers = sum((2 ** u - 1) * c for u, c in dist.items())
            spread = ", ".join(f"{u} unblocked x{c}"
                               for u, c in sorted(dist.items()))
            print(f"  rank {rank}: {sum(dist.values())} positroids, "
                  f"{lpm_by_rank[rank]} lattice-path shape, "
                  f"{covers} covers  [{spread}]")
    if args.cross_check:
        verdict = "agree everywhere" if mismatches == 0 else \
            f"{mismatches} mismatches"
        print(f"cover routes: {verdict}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main(parse_args()))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
