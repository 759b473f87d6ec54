"""The four benchmark workloads: inputs made from the seed, one timed pass,
and the checks on every output.

Only library calls sit inside a timed region; the checks run between them.
Every call goes through a module attribute (``pd.construct_fpp``, not a
name imported from it), so the wrappers of ``tracing.install`` see it.

enumerate  the whole ``enumerate_fpps(6)``.  perm and pipedream do the work;
           no basis, poset or matrix layer runs, so it is the null workload
           for every change to those.
poset      ``build_poset(6, "representable")`` and ``build_poset(5,
           "matroidal")`` with their chain counts and self-duality, plus the
           element streams ``enumerate_positroids(6)`` and ``(5)``: many small
           objects, where work shared across objects shows.
queries    a closed loop, one client, over single large objects (n = 8..11)
           of four kinds: interval grids, positroid covers, dense positroids,
           exact flag minors.  Per-object algorithms show here; sharing across
           objects does not.
cli        a closed loop, one client, of ``python -m flagpipes.cli``
           subprocesses over the small verbs, so start-up, import, argparse
           and JSON output are paid on every operation.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from flagpipes import cli
from flagpipes import decperm as dpm
from flagpipes import flagbuild as fb
from flagpipes import pipedream as pd
from flagpipes import poset as ps
from flagpipes import positroid as pos
from flagpipes import ratmat as rm
from flagpipes import serialize as ser
from flagpipes.config import ENV_MAX_N

from measure import Checker, Digest, Speed, check_digest

DEFAULT_SEED = 1
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())
LONG_CALL_PROBE_S = 0.2


class Pass:
    """One pass: the timed library calls as (start, seconds, is an
    operation), the output digest, and the largest child's peak RSS in KiB
    (subprocess workloads only).  ``speed``, when given, is probed between
    calls and scales the times read back."""

    def __init__(self, speed: Speed | None = None) -> None:
        self.speed = speed
        self.timings: list[tuple[float, float, bool]] = []
        self.digest = Digest()
        self.child_rss_kb = 0

    def tick(self) -> None:
        if self.speed is not None:
            self.speed.tick()

    def record(self, start: float, seconds: float, op: bool = True) -> None:
        self.timings.append((start, seconds, op))

    def timed(self, fn, *args):
        """One long call: no probe can run inside it, so probe back to back
        before and after, to know the speed at both of its ends."""
        if self.speed is not None:
            self.speed.sample_for(LONG_CALL_PROBE_S)
        t0 = time.perf_counter()
        out = fn(*args)
        self.record(t0, time.perf_counter() - t0)
        if self.speed is not None:
            self.speed.sample_for(LONG_CALL_PROBE_S)
        return out

    def _seconds(self, scaled: bool):
        speed = self.speed if scaled else None
        for start, seconds, op in self.timings:
            yield (speed.scale(start, seconds) if speed else seconds), op

    def busy(self, scaled: bool = True) -> float:
        """Library time of the whole pass."""
        return sum(s for s, _ in self._seconds(scaled))

    def latencies(self, scaled: bool = True) -> list[float]:
        return [s for s, op in self._seconds(scaled) if op]


class Workload:
    name = ""
    seeded = False  # do the inputs depend on the seed?

    def __init__(self, root: Path, seed: int, checker: Checker):
        self.root = root
        self.seed = seed
        self.checker = checker
        self.tracer = None
        self.speed: Speed | None = None

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def expected_digest(self, index: int) -> str | None:
        if index != 0 or (self.seeded and self.seed != DEFAULT_SEED):
            return None
        return DIGESTS.get(self.name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, in_process: bool = False) -> Pass:
        """One pass of the fixed work; ``in_process`` asks the subprocess
        workload to call the library instead, as the traced run does."""
        p = Pass(self.speed)
        try:
            self._pass(p, index, in_process)
        except Exception as exc:  # counted as a failure; the run goes on
            self.checker.check(False, f"{self.name} pass {index}: {exc!r}")
        check_digest(self.checker, self.expected_digest(index),
                     p.digest.hexdigest(), f"{self.name} pass {index}")
        return p

    def _pass(self, p: Pass, index: int, in_process: bool) -> None:
        raise NotImplementedError

    def _drain(self, p: Pass, items):
        """Yield what a library generator hands out, timing each item as
        one operation."""
        clock = time.perf_counter
        while True:
            p.tick()
            self.next_op()
            t0 = clock()
            try:
                item = next(items)
            except StopIteration:
                p.record(t0, clock() - t0, op=False)
                return
            p.record(t0, clock() - t0)
            self.checker.attempted += 1
            yield item


class Enumerate(Workload):
    name = "enumerate"
    N, DREAMS = 6, 98407

    def setup(self) -> None:
        sum(1 for _ in pd.enumerate_fpps(4))

    def _pass(self, p: Pass, index: int, in_process: bool) -> None:
        count = 0
        for D in self._drain(p, pd.enumerate_fpps(self.N)):
            p.digest.add((D.pivots, D.grid))
            count += 1
        self.checker.check(count == self.DREAMS,
                           f"enumerate_fpps({self.N}) gave {count} dreams")


class Poset(Workload):
    name = "poset"
    # n, flavor, elements, covers, maximal chains
    CASES = ((6, "representable", 1957, 9786, 98407),
             (5, "matroidal", 326, 1980, 13011))

    def setup(self) -> None:
        # The default guards stop at 5 / 4; this process only.
        os.environ[ENV_MAX_N] = "6"
        for flavor in ("representable", "matroidal"):
            ps.build_poset(4, flavor)

    def _pass(self, p: Pass, index: int, in_process: bool) -> None:
        check = self.checker.check
        for n, flavor, elements, covers, chains in self.CASES:
            self.next_op()
            P = p.timed(ps.build_poset, n, flavor)
            self.next_op()
            count = p.timed(ps.maximal_chain_count, P)
            self.next_op()
            dual = p.timed(ps.check_self_dual, P)
            keys = [q.key for q in self._drain(p, pos.enumerate_positroids(n))]
            check(len(P.elements) == elements,
                  f"{flavor} n={n}: {len(P.elements)} elements")
            check(len(P.covers) == covers, f"{flavor} n={n}: {len(P.covers)} covers")
            check(count == chains, f"{flavor} n={n}: {count} maximal chains")
            check(dual is True, f"{flavor} n={n}: not self-dual")
            check(sorted(keys) == sorted(q.key for q in P.elements),
                  f"{flavor} n={n}: element stream differs from the poset")
            p.digest.add((n, flavor, P.names, P.covers, count))


# --- queries ---------------------------------------------------------------

SIZES = (8, 9, 10, 11)
# Rank of the dense positroids per n: about 65, 120, 210 and 160 bases.
DENSE_RANK = {8: 4, 9: 5, 10: 6, 11: 8}


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def decorate(rng: random.Random, perm) -> tuple[int, ...]:
    """A coloring: forced off the fixed points, random on them."""
    return tuple(dpm.OVER if v > j else dpm.UNDER if v < j
                 else rng.choice((dpm.OVER, dpm.UNDER))
                 for j, v in enumerate(perm, 1))


def unblocked(perm, color) -> list[int]:
    """1-colored positions whose value is below every later 1-colored value."""
    under = [j for j, c in enumerate(color, 1) if c == dpm.UNDER]
    return [j for i, j in enumerate(under)
            if all(perm[k - 1] > perm[j - 1] for k in under[i + 1:])]


def below(rng: random.Random, v, steps: int) -> tuple[int, ...]:
    """A random u <= v: each step swaps an inverted pair, lowering length."""
    u = list(v)
    for _ in range(steps):
        pairs = [(i, j) for i in range(len(u)) for j in range(i + 1, len(u))
                 if u[i] > u[j]]
        if not pairs:
            break
        i, j = rng.choice(pairs)
        u[i], u[j] = u[j], u[i]
    return tuple(u)


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def elimination_det(rows) -> Fraction:
    """A second determinant route: plain Gaussian elimination over Fraction."""
    m = [list(map(Fraction, r)) for r in rows]
    size, result = len(m), Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for cc in range(c, size):
                m[r][cc] -= f * m[c][cc]
    return result


def minor_rows(A, r: int, labels) -> list[list[Fraction]]:
    return [[A.entry(i, j) for j in labels] for i in range(1, r + 1)]


class Queries(Workload):
    name = "queries"
    seeded = True
    BLOCKS = 32

    def setup(self) -> None:
        self.blocks = [self._block(random.Random(f"{self.seed}/{b}"))
                       for b in range(self.BLOCKS)]
        # Warm up on a block at the smallest n only, so set-up costs about
        # the same whatever the seed draws.
        warm = Pass()
        for op in self._block(random.Random(f"{self.seed}/warm"), SIZES[:1]):
            self._run(warm, op, Checker())

    def _block(self, rng: random.Random, sizes=SIZES) -> list[tuple]:
        ops = []
        for n in sizes:
            for _ in range(4):
                v = random_perm(rng, n)
                ops.append(("interval", below(rng, v, rng.randint(1, n)), v))
            for want in (2, 3, 4):
                for _ in range(2):
                    while True:
                        perm = random_perm(rng, n)
                        color = decorate(rng, perm)
                        if len(unblocked(perm, color)) == want:
                            break
                    ops.append(("positroid", perm, color))
            for _ in range(3):
                shift = n - DENSE_RANK[n]
                perm = [(j - 1 + shift) % n + 1 for j in range(1, n + 1)]
                for _ in range(rng.randint(1, 2)):
                    i = rng.randrange(n - 1)
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                ops.append(("dense", tuple(perm), decorate(rng, perm)))
            for k in (3, 5):
                A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(n)] for _ in range(k)]
                cols = random_perm(rng, k)
                G = [[0] * k for _ in range(k)]
                for i, c in enumerate(cols):
                    G[i][c - 1] = rng.choice((1, -1))
                ops.append(("minors", A, G))
        rng.shuffle(ops)
        return ops

    def _pass(self, p: Pass, index: int, in_process: bool) -> None:
        for op in self.blocks[index % self.BLOCKS]:
            self.next_op()
            self._run(p, op, self.checker)

    def _run(self, p: Pass, op: tuple, checker: Checker) -> None:
        kind = op[0]
        p.tick()
        t0 = time.perf_counter()
        try:
            out = getattr(self, "_" + kind)(*op[1:])
        except Exception as exc:
            checker.check(False, f"{kind} {op[1:]!r}: {exc!r}")
            return
        finally:
            p.record(t0, time.perf_counter() - t0)
        ok, digest_value = getattr(self, "_check_" + kind)(op, out)
        checker.check(ok, f"{kind} {op[1:]!r}: wrong output")
        p.digest.add(digest_value)

    # Each op: the library calls, timed as one operation.

    def _interval(self, u, v):
        D = pd.construct_fpp(u, v)
        return D, pd.trace_pipes(D), pd.is_gamma_free(D)

    def _positroid(self, perm, color):
        w = dpm.DecoratedPermutation(perm, color)
        P = dpm.positroid_of(w)
        back = dpm.decperm_of(P.dream)
        shifts = dpm.covers_by_shift(w)
        covers = [dpm.decperm_of(Q.dream) for Q in fb.quotient_covers(P)]
        return w, back, shifts, covers

    def _dense(self, perm, color):
        w = dpm.DecoratedPermutation(perm, color)
        P = dpm.positroid_of(w)
        return w, P, dpm.decperm_of(P.dream)

    def _minors(self, A, G):
        M = rm.rational_matrix(A)
        k = M.k
        mm = rm.flag_minors(M, range(1, k + 1))
        mb = rm.flag_minors(rm.embed_append(M), (k,))
        rule = rm.check_sign_rule(rm.rational_matrix(G))
        return M, mm, mb, rule

    # Each check: plain data and the benchmark's own arithmetic only.

    def _check_interval(self, op, out):
        _, u, v = op
        D, traces, gamma_free = out
        exits = {t.exit_index: t.label for t in traces if t.exit_side == "right"}
        ok = (gamma_free and D.pivots == u
              and len(exits) == len(v)
              and tuple(exits[i] for i in range(1, len(v) + 1)) == v
              and sum(row.count(pd.ELBOW) for row in D.grid)
              == inversions(v) - inversions(u))
        return ok, D.grid

    def _check_positroid(self, op, out):
        _, perm, color = op
        w, back, shifts, covers = out
        via_shift = [q.to_string() for q in shifts]
        via_dream = sorted(q.to_string() for q in covers)
        ok = (back == w and via_shift == via_dream
              and len(via_shift) == 2 ** len(unblocked(perm, color)) - 1)
        return ok, via_shift

    def _check_dense(self, op, out):
        _, perm, color = op
        w, P, back = out
        bases = P.bases.bases
        rank = sum(1 for c in color if c == dpm.OVER)
        ok = (back == w and P.rank == rank
              and 0 < len(bases) <= comb(len(perm), rank)
              and all(len(b) == rank for b in bases)
              and list(bases) == sorted(set(bases))
              and bases[0] == tuple(sorted(P.dream.pivots)))
        return ok, bases

    def _check_minors(self, op, out):
        _, A, G = op
        M, mm, mb, rule = out
        k, n = M.k, M.n
        want_keys = {(r, S) for r in range(1, k + 1)
                     for S in combinations(range(1, n + 1), r)}
        if set(mm) != want_keys:
            return False, None
        rng = random.Random(repr(A))
        sample = rng.sample(sorted(want_keys), min(12, len(want_keys)))
        ok = all(elimination_det(minor_rows(M, r, S)) == mm[(r, S)]
                 for r, S in sample)
        # Embedding identity: minors through the new column 0 are the
        # first-(k-1)-row minors, the others are unchanged.
        ok = ok and all(
            v == (mm[(k - 1, S[1:])] if S[0] == 0 else mm[(k, S)])
            for (_, S), v in mb.items())
        pivots = [next(j for j, x in enumerate(row, 1) if x) for row in G]
        leading = all(elimination_det([[G[i][j - 1] for j in sorted(pivots[:r])]
                                       for i in range(r)]) >= 0
                      for r in range(1, len(G) + 1))
        ok = ok and rule == leading
        return ok, (sorted(mm.items()), rule)


# --- cli -------------------------------------------------------------------

VERBS = ("fpp", "render", "decperm", "bases", "covers", "covered-by",
         "shift", "convert", "poset")


def perm_text(p) -> str:
    return "".join(map(str, p))


def child_env(root: Path) -> dict:
    """The environment of every subprocess: this checkout's src first."""
    env = dict(os.environ)
    env.pop(ENV_MAX_N, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdin_text, root: Path, env: dict):
    """Run a child to completion: (seconds, exit code, stdout, stderr, peak
    RSS KiB).  stderr is read after stdout; the CLI writes little there."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE)
    try:
        if stdin_text is not None:
            child.stdin.write(stdin_text.encode())
            child.stdin.close()
        out = child.stdout.read()
        err = child.stderr.read()
    finally:
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        child.stdout.close()
        child.stderr.close()
    seconds = time.perf_counter() - t0
    return seconds, child.returncode, out.decode(), err.decode(), usage.ru_maxrss


def call_main(argv, stdin_text):
    """``flagpipes.cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class Cli(Workload):
    name = "cli"
    seeded = True
    BLOCKS = 4
    PER_VERB = 12

    def setup(self) -> None:
        self.env = child_env(self.root)
        self.blocks = [self._block(random.Random(f"{self.seed}/{b}"))
                       for b in range(self.BLOCKS)]
        spawn(self._command(["fpp", "123", "312"]), None, self.root, self.env)

    def _command(self, argv) -> list[str]:
        return [sys.executable, "-m", "flagpipes.cli", *argv]

    def _decperm(self, rng, n, max_unblocked=None, min_rank=0):
        while True:
            perm = random_perm(rng, n)
            color = decorate(rng, perm)
            U = unblocked(perm, color)
            rank = sum(1 for c in color if c == dpm.OVER)
            if ((max_unblocked is None or 0 < len(U) <= max_unblocked)
                    and rank >= min_rank):
                return dpm.DecoratedPermutation(perm, color), U

    def _block(self, rng: random.Random) -> list[tuple]:
        ops = []
        for verb in VERBS:
            for _ in range(self.PER_VERB):
                n = rng.randint(4, 6)
                v = random_perm(rng, n)
                u = below(rng, v, rng.randint(1, n))
                stdin_text = None
                if verb == "fpp":
                    argv = ["fpp", perm_text(u), perm_text(v)]
                elif verb == "render":
                    argv = ["render", perm_text(u), perm_text(v), "--svg"]
                elif verb == "decperm":
                    argv = ["decperm", perm_text(u), perm_text(v),
                            "--k", str(rng.randint(1, n))]
                elif verb == "bases":
                    w, _ = self._decperm(rng, n)
                    argv = ["bases", "--decperm", w.to_string()]
                elif verb == "covers":
                    w, _ = self._decperm(rng, n, max_unblocked=3)
                    argv = ["covers", "--decperm", w.to_string()]
                elif verb == "covered-by":
                    w, _ = self._decperm(rng, n, min_rank=1)
                    argv = ["covered-by", "--decperm", w.to_string()]
                elif verb == "shift":
                    w, U = self._decperm(rng, n, max_unblocked=n)
                    C = sorted(rng.sample(U, rng.randint(1, len(U))))
                    argv = ["shift", "--decperm", w.to_string(),
                            "--set", ",".join(map(str, C))]
                elif verb == "convert":
                    w, _ = self._decperm(rng, n)
                    value = rng.choice((w, dpm.positroid_of(w),
                                        pd.construct_fpp(u, v)))
                    argv = ["convert", "-"]
                    stdin_text = json.dumps(ser.to_json(value))
                else:
                    argv = ["poset", "4", "--dot"]
                ops.append((tuple(argv), stdin_text))
        rng.shuffle(ops)
        return ops

    def _pass(self, p: Pass, index: int, in_process: bool) -> None:
        block = self.blocks[index % self.BLOCKS]
        results = []
        for argv, stdin_text in block:
            p.tick()
            self.next_op()
            t0 = time.perf_counter()
            if in_process:
                code, out, err = call_main(argv, stdin_text)
            else:
                _, code, out, err, rss = spawn(self._command(argv), stdin_text,
                                               self.root, self.env)
                p.child_rss_kb = max(p.child_rss_kb, rss)
            p.record(t0, time.perf_counter() - t0)
            results.append((code, out, err))
        for (argv, stdin_text), (code, out, err) in zip(block, results):
            ok = code == 0
            if ok and not in_process:
                # The child's output must be the library's, byte for byte.
                ok = call_main(argv, stdin_text) == (code, out, err)
            self.checker.check(ok, f"{' '.join(argv)}: exit {code} {err[-200:]!r}")
            p.digest.add((argv, code, out))


WORKLOADS = {w.name: w for w in (Enumerate, Poset, Queries, Cli)}
