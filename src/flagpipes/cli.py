"""Command-line front end.

Verbs: fpp, bases, covers, covered-by, shift, decperm, poset, verify,
render, convert.  Output is JSON on stdout unless an --ascii/--svg/--dot
render is asked for.  Exit status: 0 on success, 1 when a domain rule is
violated (bad interval, malformed grid, unreadable JSON, guard exceeded,
...), 2 on usage errors.  The POSITROID_MAX_N environment variable relaxes
the enumeration guards.

Each verb imports the layers it uses when it runs, and so does each check
of ``verify``, so a process loads only what its verb, or its check, needs:
``fpp`` never loads the poset, the check suite, the matrix layer or the
renderer, and ``verify golden-grids`` loads no layer above the grids.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exceptions import DomainError

__all__ = ["main"]


def _perm_arg(text: str) -> tuple[int, ...]:
    """One-line notation: digit string up to n=9, comma-separated beyond."""
    from .perm import validate_permutation

    parts = text.split(",") if "," in text else list(text)
    try:
        w = tuple(int(p) for p in parts)
    except ValueError:
        raise DomainError(f"cannot read permutation {text!r}")
    validate_permutation(w)
    return w


def _int_set_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(p) for p in text.split(",") if p}))
    except ValueError:
        raise DomainError(f"cannot read column set {text!r}")


def _check_name_arg(text: str) -> str:
    """A check name of the verify suite; any other name is a usage error."""
    from .verify import CHECK_NAMES

    if text not in CHECK_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown check {text!r}; choose from: {', '.join(CHECK_NAMES)}")
    return text


def _jobs_arg(text: str) -> int:
    """A worker count of at least 1; anything else is a usage error."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _read_json(path: str):
    """The JSON document in a file, or on stdin for '-'; a missing,
    unreadable or malformed file is a domain error."""
    source = "stdin" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {source}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"{source} is not valid JSON: {exc}") from exc


def _dream_from_args(args):
    """A grid from --dream FILE, --decperm STR, or a u/v positional pair."""
    if args.dream is not None:
        from .serialize import parse_any

        kind, value = parse_any(_read_json(args.dream))
        if kind == "positroid":
            return value.dream
        if kind == "dream":
            return value
        raise DomainError(f"{args.dream} holds a {kind}, not a grid")
    if args.decperm is not None:
        from .decperm import parse_decperm, positroid_of

        return positroid_of(parse_decperm(args.decperm)).dream
    if args.u is not None and args.v is not None:
        from .pipedream import construct_fpp

        return construct_fpp(_perm_arg(args.u), _perm_arg(args.v))
    raise DomainError("no grid given: pass U V, --dream FILE, or --decperm STR")


def _boundary_from_args(args, k=None):
    """The decorated permutation of the grid from :func:`_dream_from_args`,
    cut to its first k rows when k is given: its last row shift, whose
    walk (:func:`~flagpipes.decperm._row_shifts`) refuses a grid that is
    not gamma-free."""
    from .decperm import _row_shifts
    from .pipedream import restrict

    D = _dream_from_args(args)
    return _row_shifts(D if k is None else restrict(D, k))[-1]


def _decperm_from_args(args):
    """The decorated permutation given by --decperm STR, or that of the
    positroid of the grid from --dream FILE or a u/v positional pair."""
    if args.decperm is not None:
        from .decperm import parse_decperm

        return parse_decperm(args.decperm)
    return _boundary_from_args(args)


def _emit(payload) -> None:
    from .serialize import to_json

    print(json.dumps(to_json(payload), indent=2))


def _draw(D, svg: bool) -> None:
    from .render import ascii_grid, svg_grid

    print(svg_grid(D) if svg else ascii_grid(D))


def _cmd_fpp(args) -> None:
    from .pipedream import construct_fpp

    D = construct_fpp(_perm_arg(args.u), _perm_arg(args.v))
    if args.ascii or args.svg:
        _draw(D, svg=args.svg)
    else:
        _emit(D)


def _cmd_render(args) -> None:
    D = _dream_from_args(args)
    _draw(D, svg=args.svg)


def _cmd_bases(args) -> None:
    from .pathgraph import bases_of
    from .pipedream import restrict

    D = _dream_from_args(args)
    _emit(bases_of(D if args.k is None else restrict(D, args.k)))


def _cmd_decperm(args) -> None:
    _emit(_boundary_from_args(args, args.k))


def _cmd_covers(args) -> None:
    from .decperm import covers_by_shift

    w = _decperm_from_args(args)
    if w.rank >= w.n:
        raise DomainError("a full-rank positroid has no covers")
    _emit(list(covers_by_shift(w)))


def _cmd_covered_by(args) -> None:
    from .decperm import covered_by_shift

    w = _decperm_from_args(args)
    _emit(list(covered_by_shift(w)))


def _cmd_shift(args) -> None:
    from .decperm import left_cyclic_shift, parse_decperm, right_cyclic_shift

    w = parse_decperm(args.decperm)
    C = _int_set_arg(args.set)
    shifted = left_cyclic_shift(w, C) if args.left else right_cyclic_shift(w, C)
    _emit(shifted)


def _cmd_poset(args) -> None:
    from .poset import (build_poset, export_dot, export_json,
                        maximal_chain_count, missing_covers)

    poset = build_poset(args.n, flavor=args.flavor)
    if args.stats:
        _emit({"elements": len(poset.decperms),
               "maxChains": maximal_chain_count(poset)})
    elif args.dot:
        dashed = (missing_covers(build_poset(args.n), poset)
                  if args.flavor == "matroidal" else ())
        print(export_dot(poset, dashed=dashed))
    else:
        _emit(export_json(poset))


def _cmd_verify(args) -> int:
    from .verify import CHECK_NAMES, DEFAULT_SEED, run_all

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(args.checks or CHECK_NAMES, jobs=args.jobs, seed=seed)
    print(json.dumps([{"name": r.name, "ok": r.ok, "detail": r.detail,
                       "seconds": round(r.seconds, 3)} for r in results],
                     indent=2))
    for r in results:
        print(r.line, file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def _cmd_convert(args) -> None:
    from .serialize import parse_any

    kind, value = parse_any(_read_json(args.file))
    _emit(value)


def _add_grid_source(sub) -> None:
    """U V, --dream and --decperm, of which at most one may be given
    (checked by :func:`_one_grid_source` after parsing)."""
    sub.add_argument("u", nargs="?", help="lower permutation, one-line")
    sub.add_argument("v", nargs="?", help="upper permutation, one-line")
    sub.add_argument("--dream", help="JSON grid or positroid file ('-' for stdin)")
    sub.add_argument("--decperm", help="boundary string such as 2o1u")
    sub.set_defaults(grid_parser=sub)


def _one_grid_source(args) -> None:
    """Refuse two or more grid sources as a usage error naming them."""
    given = [name for name, value in (("U V", args.u), ("--dream", args.dream),
                                      ("--decperm", args.decperm))
             if value is not None]
    if len(given) > 1:
        named = ", ".join(given[:-1]) + " and " + given[-1]
        args.grid_parser.error(f"one grid source allowed, got {named}")


def _add_drawing(sub, ascii_help: str) -> None:
    """--ascii and --svg, of which at most one may be given."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--ascii", action="store_true", help=ascii_help)
    group.add_argument("--svg", action="store_true", help="SVG drawing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagpipes",
        description="Pipe-dream calculus for flags of positroids.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("fpp", help="build the grid of a Bruhat interval")
    sub.add_argument("u", help="lower permutation, one-line notation")
    sub.add_argument("v", help="upper permutation, one-line notation")
    _add_drawing(sub, "letter grid")
    sub.set_defaults(func=_cmd_fpp)

    sub = verbs.add_parser("render", help="draw a stored grid")
    _add_grid_source(sub)
    _add_drawing(sub, "letter grid (default)")
    sub.set_defaults(func=_cmd_render)

    sub = verbs.add_parser("bases", help="basis family of a grid")
    _add_grid_source(sub)
    sub.add_argument("--k", type=int, help="restrict to the first k rows")
    sub.set_defaults(func=_cmd_bases)

    sub = verbs.add_parser("decperm", help="boundary permutation of a grid")
    _add_grid_source(sub)
    sub.add_argument("--k", type=int, help="restrict to the first k rows")
    sub.set_defaults(func=_cmd_decperm)

    sub = verbs.add_parser("covers", help="elementary quotient covers")
    _add_grid_source(sub)
    sub.set_defaults(func=_cmd_covers)

    sub = verbs.add_parser("covered-by", help="elements this one covers")
    _add_grid_source(sub)
    sub.set_defaults(func=_cmd_covered_by)

    sub = verbs.add_parser("shift", help="cyclic shift of a boundary string")
    sub.add_argument("--decperm", required=True)
    sub.add_argument("--set", required=True, help="comma-separated positions")
    sub.add_argument("--left", action="store_true", help="shift leftward")
    sub.set_defaults(func=_cmd_shift)

    sub = verbs.add_parser("poset", help="the quotient order on positroids")
    sub.add_argument("n", type=int)
    sub.add_argument("--flavor", default="representable",
                     choices=("representable", "matroidal"))
    form = sub.add_mutually_exclusive_group()
    form.add_argument("--stats", action="store_true",
                      help="element and chain counts only")
    form.add_argument("--dot", action="store_true", help="Graphviz output")
    sub.set_defaults(func=_cmd_poset)

    sub = verbs.add_parser("verify", help="run the published-fact checks")
    sub.add_argument("checks", nargs="*", metavar="CHECK", type=_check_name_arg,
                     help="names of the checks to run (default: all ten)")
    sub.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="worker processes, at most one per check")
    sub.add_argument("--seed", type=int,
                     help="seed of the randomized checks (default: fixed)")
    sub.set_defaults(func=_cmd_verify)

    sub = verbs.add_parser("convert", help="sniff a JSON file, re-emit canonically")
    sub.add_argument("file", help="path or '-' for stdin")
    sub.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "grid_parser"):
        _one_grid_source(args)
    try:
        out = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return out if isinstance(out, int) else 0


if __name__ == "__main__":
    sys.exit(main())
