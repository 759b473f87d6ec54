"""Self-contained verification suite: ten published-fact checks.

Each check recomputes a documented fact by at least two independent routes
(fast implementation vs. brute-force re-derivation) and returns a verdict
plus a short report.  The command line exposes these as ``verify``; the
test suite asserts each one.  Checks with a stated time budget fail if
they run over it.

Each check imports the layers it uses when it runs, so a process that runs
one check loads only what that check needs.  ``run_check`` imports them
before it starts the clock, so a check's time holds no import.
"""

from __future__ import annotations

import random
import time
from importlib import import_module
from itertools import combinations, product

from .config import _Frozen
from .exceptions import DomainError

__all__ = ["CheckResult", "CHECK_NAMES", "run_check", "run_all"]

DEFAULT_SEED = 20250825


class CheckResult(_Frozen):
    _fields = ("name", "ok", "detail", "seconds")
    name: str
    ok: bool
    detail: str
    seconds: float

    def __init__(self, name: str, ok: bool, detail: str,
                 seconds: float) -> None:
        self._store(name=name, ok=ok, detail=detail, seconds=seconds)

    @property
    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark} {self.name}: {self.detail} ({self.seconds:.2f}s)"


def check_interval_fpp_count() -> tuple[bool, str]:
    """Dream enumeration counts intervals: 19 at n=3, oracle-matched at n=4."""
    from .perm import all_permutations, bruhat_leq_subword_oracle
    from .pipedream import enumerate_fpps

    three = sum(1 for _ in enumerate_fpps(3))
    four = sum(1 for _ in enumerate_fpps(4))
    oracle = sum(1 for u in all_permutations(4) for v in all_permutations(4)
                 if bruhat_leq_subword_oracle(u, v))
    ok = three == 19 and four == oracle
    return ok, f"n=3: {three} (want 19); n=4: {four} vs subword oracle {oracle}"


def check_elbow_length_law() -> tuple[bool, str]:
    """Elbow count equals the length difference on every interval of S5."""
    from .perm import _key_leq, all_permutations, key, length
    from .pipedream import construct_fpp, elbow_count

    perms = [(u, key(u), length(u)) for u in all_permutations(5)]
    intervals = [(u, v, lv - lu) for u, ku, lu in perms
                 for v, kv, lv in perms if _key_leq(ku, kv)]
    bad = sum(elbow_count(construct_fpp(u, v)) != d for u, v, d in intervals)
    return bad == 0, f"{len(intervals)} intervals in S5, {bad} violations"


def check_golden_grids() -> tuple[bool, str]:
    """Three published grids reproduced tile-for-tile."""
    from .pipedream import (construct_fpp, cross_positions, elbow_count,
                            rotate_le, word_y_of_crosses)

    D = construct_fpp((5, 3, 1, 6, 2, 7, 4), (6, 7, 3, 5, 1, 4, 2))
    big = (elbow_count(D) == 7
           and cross_positions(D) == (1, 2, 4, 5, 11)
           and word_y_of_crosses(D) == (5, 6, 3, 4, 1))
    small = construct_fpp((1, 2, 3), (3, 1, 2)).grid == ("PEE", ".PX", "..P")
    L = rotate_le(construct_fpp((3, 1, 6, 5, 4, 2), (6, 3, 4, 5, 2, 1)))
    rot = L.rows == ("XXEE", "EXE") and L.pivots == (3, 1)
    ok = big and small and rot
    return ok, f"7-elbow grid {big}, 3x3 grid {small}, rotated shape (4,3) {rot}"


def check_bases_engine() -> tuple[bool, str]:
    """Path-family bases: published lex extremes, also read off the 2-colored
    positions and their values, and constituent bases; and the necklace
    bases equal the path-family bases on every positroid with n <= 4."""
    from .decperm import (OVER, _all_decperms, _code, _necklace_bases,
                          parse_decperm, positroid_of)
    from .flagbuild import flag_of_fpp
    from .pathgraph import bases_of
    from .pipedream import construct_fpp
    from .positroid import _basis_bits

    w = parse_decperm("5o1u3u9o2u7o6u4u8u")
    lo = tuple(j for j, c in enumerate(w.color, 1) if c == OVER)
    hi = tuple(sorted(w.perm[j - 1] for j in lo))
    B = positroid_of(w).bases.bases
    extremes = (B[0], B[-1]) == (lo, hi) == ((1, 4, 6), (5, 7, 9))
    F = flag_of_fpp(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)))
    want = (((2,), (4,)), ((2, 4),), ((1, 2, 4), (2, 3, 4)))
    cons = tuple(F.constituents[k].bases.bases for k in range(3)) == want
    decperms = [w for n in range(1, 5) for w in _all_decperms(n)]
    necklaces = all(_necklace_bases(_code(w))
                    == _basis_bits(bases_of(positroid_of(w).dream))
                    for w in decperms)
    ok = extremes and cons and necklaces
    return ok, (f"lex extremes {extremes}, constituent bases {cons}, "
                f"necklace bases of {len(decperms)} positroids {necklaces}")


def check_quotient_covers() -> tuple[bool, str]:
    """Cover counts 2^|U|-1 and the quotient law for n <= 4, and the
    theorem behind ``quotient_covers`` choice by choice: appending a row
    along an unblocked choice C and standardizing gives the dream of the
    right cyclic shift along C.  Every such appended row keeps the dream
    gamma-free, which is why the row-append route needs no gamma-freeness
    sweep.  The Le dreams behind the positroids, pruned by the Le
    condition, are the gamma-free fillings of the descending pivots, dream
    for dream and in order."""
    from .decperm import decperm_of, positroid_of, right_cyclic_shift
    from .flagbuild import append_row, quotient_covers
    from .pipedream import _fillings, enumerate_le_dreams, is_gamma_free
    from .positroid import enumerate_positroids, is_quotient, standardize

    positroids = covers = appended = le = 0
    for n in range(1, 5):
        for k in range(n + 1):
            swept = [D for chosen in combinations(range(1, n + 1), k)
                     for D in _fillings(n, chosen[::-1]) if is_gamma_free(D)]
            if list(enumerate_le_dreams(n, k)) != swept:
                return False, ("Le dreams differ from the swept fillings "
                               f"at n={n}, k={k}")
            le += len(swept)
        for P in enumerate_positroids(n):
            positroids += 1
            if P.rank == n:
                if P.unblocked:
                    return False, f"full-rank positroid with unblocked columns at n={n}"
                continue
            U, w = P.unblocked, decperm_of(P.dream)
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    appended += 1
                    D = append_row(P.dream, C)
                    if not is_gamma_free(D):
                        return False, (f"append along {C} above "
                                       f"{w.to_string()} is not gamma-free")
                    if (standardize(D)
                            != positroid_of(right_cyclic_shift(w, C)).dream):
                        return False, (f"append along {C} above "
                                       f"{w.to_string()} is not the shift")
            up = quotient_covers(P)
            covers += len(up)
            if len(up) != 2 ** len(U) - 1:
                return False, f"cover count off at {w.to_string()}"
            for Q in up:
                if not is_quotient(P.bases, Q.bases):
                    return False, f"non-quotient cover above {w.to_string()}"
    return True, (f"{positroids} positroids, {covers} covers, {appended} "
                  "appended dreams gamma-free and standardized to their "
                  f"shifts, {le} Le dreams match the swept fillings")


def check_standardization() -> tuple[bool, str]:
    """Swapping adjacent pivot rows never changes bases, unblocked columns,
    or right-exit labels; checked on every partial dream with n <= 4."""
    from .pathgraph import bases_of
    from .pipedream import enumerate_partial_fpps, right_exit_labels
    from .positroid import standardize, standardize_step, unblocked_columns

    steps = fulls = 0
    for n in range(1, 5):
        for k in range(1, n + 1):
            for D in enumerate_partial_fpps(n, k):
                for i in range(1, k):
                    if D.pivots[i - 1] > D.pivots[i]:
                        continue
                    steps += 1
                    if bases_of(standardize_step(D, i)) != bases_of(D):
                        return False, f"bases changed by step {i} on {D.grid}"
                S = standardize(D)
                fulls += 1
                if (set(unblocked_columns(S)) != set(unblocked_columns(D))
                        or set(right_exit_labels(S)) != set(right_exit_labels(D))
                        or bases_of(S) != bases_of(D)):
                    return False, f"standardize changed invariants on {D.grid}"
    return True, f"{steps} single steps, {fulls} full standardizations invariant"


def check_poset_facts() -> tuple[bool, str]:
    """Published n=3 poset numbers, missing covers, self-duality, and the
    chain/dream bijection and the row shifts of every dream for n <= 4."""
    from .decperm import _row_shifts, decperm_of, parse_decperm, positroid_of
    from .pipedream import enumerate_fpps, restrict
    from .poset import (build_poset, chain_to_fpp, check_self_dual,
                        fpp_to_chain, iter_maximal_chains,
                        maximal_chain_count, missing_covers)

    posets = {(n, flavor): build_poset(n, flavor=flavor)
              for n, flavor in ((1, "representable"), (2, "representable"),
                                (3, "representable"), (3, "matroidal"),
                                (4, "representable"), (4, "matroidal"))}
    rep3, mat3 = posets[3, "representable"], posets[3, "matroidal"]
    counts = (len(rep3.elements) == 16
              and maximal_chain_count(rep3) == 19
              and maximal_chain_count(mat3) == 22)
    if not counts:
        return False, "n=3 element/chain counts off"
    missing = missing_covers(rep3, mat3)
    by_bases = []
    for a, b in missing:
        pa = positroid_of(parse_decperm(a)).bases.bases
        pb = positroid_of(parse_decperm(b)).bases.bases
        by_bases.append((pa, pb))
    wanted_pair = (((1,), (3,)), ((1, 2), (2, 3))) in by_bases
    if len(missing) != 3 or not wanted_pair:
        return False, f"missing covers {missing}"
    for n in (3, 4):
        for flavor in ("representable", "matroidal"):
            if not check_self_dual(posets[n, flavor]):
                return False, f"not self-dual at n={n} {flavor}"
    for n in range(1, 5):
        poset = posets[n, "representable"]
        chains = list(iter_maximal_chains(poset))
        dreams = list(enumerate_fpps(n))
        if len(chains) != len(dreams):
            return False, f"chain/dream counts differ at n={n}"
        images = [chain_to_fpp(chain) for chain in chains]
        if list(map(fpp_to_chain, images)) != chains:
            return False, f"chain round-trip failed at n={n}"
        if set(images) != set(dreams):  # so every dream round-trips too
            return False, f"chains do not give every dream at n={n}"
        for D in dreams:
            if _row_shifts(D) != tuple(decperm_of(restrict(D, k))
                                       for k in range(n + 1)):
                return False, f"row shifts differ from restrictions at n={n}"
    return True, ("16 elements, 19/22 chains, 3 missing, self-dual, "
                  "bijection holds, row shifts match restrictions")


def check_richardson_shadow() -> tuple[bool, str]:
    """Constituent bases equal sorted k-prefixes over the interval, n <= 4."""
    from .pathgraph import bases_of
    from .perm import _key_leq, all_permutations, key
    from .pipedream import construct_fpp, restrict

    intervals = 0
    for n in range(1, 5):
        perms = [(z, key(z)) for z in all_permutations(n)]
        leq = {(u, v) for u, ku in perms for v, kv in perms
               if _key_leq(ku, kv)}
        for u, v in sorted(leq):
            intervals += 1
            D = construct_fpp(u, v)
            inside = [z for z, _ in perms if (u, z) in leq and (z, v) in leq]
            for k in range(1, n + 1):
                want = {tuple(sorted(z[:k])) for z in inside}
                got = set(bases_of(restrict(D, k)).bases)
                if got != want:
                    return False, f"prefix mismatch at u={u} v={v} k={k}"
    return True, f"{intervals} intervals, all constituent bases match prefixes"


def _random_matrix(rng: random.Random, rows: int, cols: int):
    from fractions import Fraction

    from .ratmat import rational_matrix

    return rational_matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
          for _ in range(cols)] for _ in range(rows)])


def check_exact_linear_algebra(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Golden matrix minors, the zero-column embedding identity on 500
    random matrices, and the sign rule on every +-1 pattern up to 5x5,
    where the determinants of the leading minors are the one cross-check
    of :func:`~flagpipes.ratmat.check_sign_rule`."""
    from fractions import Fraction

    from .perm import all_permutations
    from .ratmat import (check_sign_rule, det, embed_append, flag_minors,
                         rational_matrix)

    M = rational_matrix([[0, 0, 0, 0, 1, 1, 0],
                         [0, 0, -1, -1, 0, 1, 1],
                         [1, 1, 0, 0, 0, 0, 0],
                         [0, 0, 0, 0, 0, 1, 2]])
    mm = flag_minors(M, (3, 4))
    golden = (all(v >= 0 for v in mm.values())
              and all(any(v > 0 for (r, S), v in mm.items() if r == rank)
                      for rank in (3, 4)))
    if not golden:
        return False, "golden matrix minors not nonnegative"
    rng = random.Random(seed)
    for _ in range(500):
        rows = rng.randint(2, 4)
        cols = rng.randint(rows, 6)
        A = _random_matrix(rng, rows, cols)
        B = embed_append(A)
        for (r, S), v in flag_minors(B, (rows,)).items():
            if 0 in S:
                want = det(A.submatrix(rows - 1, [c for c in S if c != 0]))
            else:
                want = det(A.submatrix(rows, S))
            if v != want:
                return False, "embedding minor identity failed"
    patterns = 0
    zero, unit = Fraction(0), {1: Fraction(1), -1: Fraction(-1)}
    for k in range(1, 6):
        for perm in all_permutations(k):
            for signs in product((1, -1), repeat=k):
                rows = [[zero] * k for _ in range(k)]
                for i in range(k):
                    rows[i][perm[i] - 1] = unit[signs[i]]
                A = rational_matrix(rows)
                patterns += 1
                rule = check_sign_rule(A)
                minors = all(
                    det(A.submatrix(i, sorted(perm[:i]))) >= 0
                    for i in range(1, k + 1))
                if rule != minors:
                    return False, f"sign rule disagreement on {perm} {signs}"
    return True, f"golden + 500 embeddings + {patterns} sign patterns"


def check_decperm_table() -> tuple[bool, str]:
    """The four-row shift table, the append/standardize pipeline, the left
    side's goldens, and cover-level self-duality, all on the running
    9-column example: each of its 15 right shifts covers it back through a
    left shift, so it lies among the covered elements of every one."""
    from .decperm import (covered_by_shift, covers_by_shift, decperm_of,
                          inverse_decperm, left_cyclic_shift,
                          left_unblocked_positions, or_set, parse_decperm,
                          positroid_of, right_cyclic_shift, tc_set,
                          unblocked_positions)
    from .flagbuild import append_row
    from .positroid import standardize

    pi = parse_decperm("5o1u3u9o2u7o6u4u8u")
    if unblocked_positions(pi) != (2, 5, 8, 9):
        return False, "unblocked positions wrong"
    table = (
        ((2, 5, 8, 9), (), (1, 3, 4, 6, 7), "5o8o3u9o1u7o6u2u4u"),
        ((2, 5, 8), (1,), (3, 4, 6, 7, 9), "4o5o3u9o1u7o6u2u8u"),
        ((5, 9), (4,), (1, 2, 3, 6, 7, 8), "5o1u3u8o9o7o6u4u2u"),
        ((8,), (1, 4), (2, 3, 5, 6, 7, 9), "4o1u3u5o2u7o6u9o8u"),
    )
    for C, T, A, out in table:
        if tc_set(pi, C) != T:
            return False, f"tail set wrong for C={C}"
        fixed = tuple(sorted(set(range(1, 10)) - set(C) - set(T)))
        if fixed != A:
            return False, f"fixed set wrong for C={C}"
        if right_cyclic_shift(pi, C).to_string() != out:
            return False, f"shift wrong for C={C}"
    P = positroid_of(pi)
    piped = decperm_of(standardize(append_row(P.dream, (5, 9))))
    if piped.to_string() != "5o1u3u8o9o7o6u4u2u":
        return False, "append/standardize pipeline wrong"
    omega = inverse_decperm(pi)
    if omega.to_string() != "2o5o3o8o1u7o6u9o4u":
        return False, "inverse decoration wrong"
    if left_unblocked_positions(omega) != (1, 2, 4, 8):
        return False, "left-unblocked positions wrong"
    if or_set(omega, (2, 8)) != (9,):
        return False, "head set wrong"
    if left_cyclic_shift(omega, (2, 8)).to_string() != "2o9o3o8o1u7o6u4u5u":
        return False, "left shift wrong"
    covers = covers_by_shift(pi)
    if len(covers) != 15:
        return False, f"{len(covers)} right shifts, expected 15"
    for q in covers:
        if pi not in covered_by_shift(q):
            return False, f"{pi.to_string()} not covered by {q.to_string()}"
    return True, ("table rows, pipeline, left goldens, and self-duality "
                  "over all 15 covers reproduce")


# Each check: its function, its time budget in seconds (None for none),
# and the layers it imports, which ``run_check`` loads before the clock
# starts.
_CHECKS = {
    "interval-fpp-count": (check_interval_fpp_count, 10.0,
                           ("perm", "pipedream")),
    "elbow-length-law": (check_elbow_length_law, 60.0,
                         ("perm", "pipedream")),
    "golden-grids": (check_golden_grids, None, ("pipedream",)),
    "bases-engine": (check_bases_engine, None,
                     ("decperm", "flagbuild", "pathgraph", "pipedream",
                      "positroid")),
    "quotient-covers": (check_quotient_covers, 120.0,
                        ("decperm", "flagbuild", "pipedream", "positroid")),
    "standardization": (check_standardization, None,
                        ("pathgraph", "pipedream", "positroid")),
    "poset-facts": (check_poset_facts, None,
                    ("decperm", "pipedream", "poset")),
    "richardson-shadow": (check_richardson_shadow, None,
                          ("pathgraph", "perm", "pipedream")),
    "exact-linear-algebra": (check_exact_linear_algebra, 30.0,
                             ("perm", "ratmat")),
    "decperm-table": (check_decperm_table, None,
                      ("decperm", "flagbuild", "positroid")),
}

CHECK_NAMES = tuple(_CHECKS)
_SEEDED = frozenset({"exact-linear-algebra"})


def run_check(name: str, seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one named check; unknown names raise KeyError.  The check's
    layers are imported first, so its time is its own work alone."""
    func, budget, layers = _CHECKS[name]
    for layer in layers:
        import_module(f"{__package__}.{layer}")
    start = time.perf_counter()
    ok, detail = func(seed) if name in _SEEDED else func()
    seconds = time.perf_counter() - start
    if budget is not None and seconds > budget:
        ok = False
        detail += f"; over the {budget:.0f}s budget"
    return CheckResult(name, ok, detail, seconds)


def run_all(names=None, jobs: int = 1,
            seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named checks (all by default), optionally across processes:
    ``jobs`` must be at least 1, and the pool never has more workers than
    there are checks.

    >>> run_all(["golden-grids"])[0].ok
    True
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    names = list(names) if names is not None else list(CHECK_NAMES)
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}")
    seeds = [seed] * len(names)
    workers = min(jobs, len(names))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_check, names, seeds))
    return [run_check(name, seed) for name in names]
