"""JSON forms for every value the command line reads or writes.

Each ``*_to_json`` emits plain dicts/lists; the matching ``*_from_json``
rebuilds an equal value, and ``parse_any`` sniffs which kind a JSON
document holds so ``convert`` can round-trip without a type tag.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .exceptions import DomainError
from .perm import validate_permutation
from .pipedream import PipeDream

if TYPE_CHECKING:
    from .decperm import DecoratedPermutation
    from .flagbuild import FlagPositroid
    from .pathgraph import BasisSet
    from .positroid import Positroid

__all__ = [
    "dream_to_json",
    "dream_from_json",
    "basis_set_to_json",
    "basis_set_from_json",
    "positroid_to_json",
    "positroid_from_json",
    "decperm_to_json",
    "decperm_from_json",
    "flag_to_json",
    "flag_from_json",
    "parse_any",
    "to_json",
]


def _int(value, field: str) -> int:
    """An integer field of a document: a JSON boolean or a float is no
    integer, though Python's ``int()`` would read one."""
    if type(value) is not int:
        raise DomainError(f"field {field!r} needs an integer, got {value!r}")
    return value


def _stated(data: dict, field: str, actual: int) -> None:
    """Check an optional count against the one the document implies."""
    if data.get(field) is not None and _int(data[field], field) != actual:
        raise DomainError(f"stated {field} does not match the document")


def dream_to_json(D: PipeDream) -> dict:
    """Grid as rows of single tile letters.

    >>> from .pipedream import construct_fpp
    >>> dream_to_json(construct_fpp((1, 2), (2, 1)))
    {'rows': 2, 'cols': 2, 'pivots': [1, 2], 'tiles': [['P', 'E'], ['.', 'P']]}
    """
    return {
        "rows": len(D.pivots),
        "cols": D.cols,
        "pivots": list(D.pivots),
        "tiles": [list(row) for row in D.grid],
    }


def dream_from_json(data: dict) -> PipeDream:
    """Inverse of :func:`dream_to_json`.

    >>> from .pipedream import construct_fpp
    >>> D = construct_fpp((1, 2, 3), (3, 1, 2))
    >>> dream_from_json(dream_to_json(D)) == D
    True
    """
    rows = data["tiles"]
    _stated(data, "rows", len(rows))
    return PipeDream(cols=_int(data["cols"], "cols"),
                     pivots=tuple(_int(p, "pivots") for p in data["pivots"]),
                     grid=tuple("".join(row) for row in rows))


def basis_set_to_json(B: BasisSet) -> dict:
    """
    >>> from .pathgraph import basis_set
    >>> basis_set_to_json(basis_set(2, [(1,), (2,)]))
    {'n': 2, 'k': 1, 'offsetZero': False, 'bases': [[1], [2]]}
    """
    return {"n": B.n, "k": B.k, "offsetZero": B.offset_zero,
            "bases": [list(b) for b in B.bases]}


def basis_set_from_json(data: dict) -> BasisSet:
    """
    >>> from .pathgraph import basis_set
    >>> B = basis_set(3, [(1, 3), (2, 3)])
    >>> basis_set_from_json(basis_set_to_json(B)) == B
    True
    """
    from .pathgraph import basis_set

    offset_zero = data.get("offsetZero", False)
    if type(offset_zero) is not bool:
        raise DomainError("field 'offsetZero' needs true or false")
    B = basis_set(_int(data["n"], "n"),
                  [tuple(_int(e, "bases") for e in b) for b in data["bases"]],
                  offset_zero=offset_zero)
    _stated(data, "k", B.k)
    return B


def positroid_to_json(P: Positroid) -> dict:
    """The canonical dream plus an explicit rank field."""
    return dream_to_json(P.dream) | {"rank": P.rank}


def positroid_from_json(data: dict) -> Positroid:
    """
    >>> from .decperm import positroid_of, parse_decperm
    >>> P = positroid_of(parse_decperm("2o1u"))
    >>> positroid_from_json(positroid_to_json(P)) == P
    True
    """
    from .positroid import Positroid

    P = Positroid.from_dream(dream_from_json(data))
    _stated(data, "rank", P.rank)
    return P


def decperm_to_json(w: DecoratedPermutation) -> dict:
    """
    >>> from .decperm import parse_decperm
    >>> decperm_to_json(parse_decperm("2o1u"))
    {'perm': [2, 1], 'color': [2, 1]}
    """
    return {"perm": list(w.perm), "color": list(w.color)}


def decperm_from_json(data: dict) -> DecoratedPermutation:
    """
    >>> decperm_from_json({"perm": [2, 1], "color": [2, 1]}).to_string()
    '2o1u'
    """
    from .decperm import DecoratedPermutation

    return DecoratedPermutation(tuple(_int(x, "perm") for x in data["perm"]),
                                tuple(_int(c, "color") for c in data["color"]))


def flag_to_json(F: FlagPositroid) -> dict:
    """Rank list plus one positroid document per constituent."""
    return {"n": F.n, "ranks": list(F.ranks),
            "constituents": [positroid_to_json(P) for P in F.constituents]}


def flag_from_json(data: dict) -> FlagPositroid:
    """
    >>> from .pipedream import construct_fpp
    >>> from .flagbuild import flag_of_fpp
    >>> F = flag_of_fpp(construct_fpp((1, 2, 3), (3, 1, 2)))
    >>> flag_from_json(flag_to_json(F)) == F
    True
    """
    from .flagbuild import FlagPositroid

    return FlagPositroid(
        n=_int(data["n"], "n"),
        ranks=tuple(_int(r, "ranks") for r in data["ranks"]),
        constituents=tuple(positroid_from_json(p)
                           for p in data["constituents"]))


def parse_any(data):
    """Sniff which kind of value a JSON document holds.

    Returns a (kind, value) pair; kind is one of "positroid", "dream",
    "basis-set", "decperm", "flag", "poset", "matrix", "permutation".
    A document of a recognized kind with a missing or unreadable field is a
    :class:`DomainError`, like one of no recognized kind.

    >>> parse_any({"perm": [1], "color": [2]})[0]
    'decperm'
    >>> parse_any([["1", "-1/2"]])[0]
    'matrix'
    >>> parse_any({"tiles": [["P"]], "pivots": [1]})
    Traceback (most recent call last):
    ...
    flagpipes.exceptions.DomainError: the JSON document lacks the field 'cols'
    """
    try:
        return _sniff(data)
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"the JSON document lacks the field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed JSON document: {exc}") from exc


def _sniff(data):
    if isinstance(data, dict):
        if "constituents" in data:
            return "flag", flag_from_json(data)
        if "tiles" in data and "rank" in data:
            return "positroid", positroid_from_json(data)
        if "tiles" in data:
            return "dream", dream_from_json(data)
        if "bases" in data:
            return "basis-set", basis_set_from_json(data)
        if "perm" in data and "color" in data:
            return "decperm", decperm_from_json(data)
        if "nodes" in data and "covers" in data:
            return "poset", data
        if "elements" in data and "maxChains" in data:
            return "stats", data
        raise DomainError("unrecognized JSON document shape")
    if isinstance(data, str):
        from .decperm import parse_decperm

        return "decperm", parse_decperm(data)
    if isinstance(data, list):
        if data and all(isinstance(x, dict) and "perm" in x for x in data):
            return "decperm-list", tuple(decperm_from_json(x) for x in data)
        if data and all(isinstance(x, dict) and "ok" in x for x in data):
            return "report", data
        if data and all(isinstance(x, list) for x in data):
            from .ratmat import rational_matrix

            return "matrix", rational_matrix(data)
        if all(type(x) is int for x in data):
            return "permutation", validate_permutation(data)
    raise DomainError("unrecognized JSON document shape")


def _matrix_to_json(A) -> list[list[str]]:
    from .ratmat import matrix_to_json

    return matrix_to_json(A)


# (module, class, encoder) for every value type with a JSON form.  A class
# is looked up only in a module already imported: no value of a class whose
# module was never loaded can exist, so serializing never imports a layer.
_ENCODERS = (
    ("flagpipes.positroid", "Positroid", positroid_to_json),
    ("flagpipes.pipedream", "PipeDream", dream_to_json),
    ("flagpipes.pathgraph", "BasisSet", basis_set_to_json),
    ("flagpipes.decperm", "DecoratedPermutation", decperm_to_json),
    ("flagpipes.flagbuild", "FlagPositroid", flag_to_json),
    ("flagpipes.ratmat", "RationalMatrix", _matrix_to_json),
)


def to_json(value):
    """Serialize any library value parse_any can name.

    >>> from .decperm import parse_decperm
    >>> to_json(parse_decperm("1o"))
    {'perm': [1], 'color': [2]}
    """
    if isinstance(value, dict):
        return value
    if isinstance(value, (tuple, list)):
        return [x if isinstance(x, (int, str, dict)) else to_json(x)
                for x in value]
    for module, name, encode in _ENCODERS:
        cls = getattr(sys.modules.get(module), name, None)
        if cls is not None and isinstance(value, cls):
            return encode(value)
    raise DomainError(f"cannot serialize {type(value).__name__}")
