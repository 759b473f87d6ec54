"""The benchmark's own arithmetic: percentiles, failure ratio, checks, and
the machine-speed factor that times are reported against."""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import time
from fractions import Fraction

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless at least ``MIN_BEYOND``
    samples lie strictly beyond its rank, so a tail figure always rests on
    ten or more observations."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(xs)} samples leaves {beyond} beyond "
                         f"it; need {MIN_BEYOND}")
    return xs[rank - 1]


def min_samples(q: float) -> int:
    """The fewest samples for which :func:`percentile` accepts ``q``."""
    n = MIN_BEYOND + 1
    while n - max(1, math.ceil(q / 100 * n)) < MIN_BEYOND:
        n += 1
    return n


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


class Checker:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def ratio(self) -> float:
        return failed_ratio(self.attempted, self.failed)


class Digest:
    """SHA-256 over the ordered text form of a pass's outputs."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        self._h.update(repr(value).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def check_digest(checker: Checker, expected: str | None, got: str,
                 what: str) -> None:
    """Count a digest against its stored value; nothing stored, nothing to
    check (a seed other than the default one)."""
    if expected is not None:
        checker.check(got == expected, f"{what}: digest {got} != {expected}")


def cpu_probe() -> Fraction:
    """Fixed pure-Python work that runs no flagpipes code: exact Fraction
    sums, about 5 ms.  Of the probes tried, its time followed that of
    verify, poset and enumerate work most closely as the machine sped up
    and slowed down."""
    total = Fraction(0)
    for _ in range(3):
        acc = Fraction(0)
        for k in range(1, 400):
            acc += Fraction((-1) ** k, k * k + 1)
        total += acc
    return total


class Speed:
    """How fast the machine runs right now, from a fixed probe.

    The speed of a shared machine drifts by up to a factor of two over
    seconds to minutes, far beyond any bound a benchmark can keep.  A probe
    that runs no flagpipes code is timed between operations (``tick``) and
    every raw time is divided by the factor over its span: the median of
    the probes taken from ``MARGIN`` seconds before it to ``MARGIN`` after
    (at least the ``WINDOW`` nearest), over the probe's ``nominal`` seconds.
    A reported time is therefore seconds at nominal speed; the probe never
    changes, so a change to the program still moves it fully.
    """

    WINDOW = 5
    MARGIN = 1.0

    def __init__(self, probe, nominal: float, interval: float,
                 clock=time.perf_counter):
        self.probe = probe
        self.nominal = nominal
        self.interval = interval
        self.clock = clock
        self.mids: list[float] = []
        self.seconds: list[float] = []
        self.due = -math.inf
        self._medians: dict[tuple[int, int], float] = {}

    def sample(self) -> None:
        t0 = self.clock()
        self.probe()
        t1 = self.clock()
        self.mids.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.due = t1 + self.interval
        self._medians.clear()

    def sample_for(self, seconds: float) -> None:
        """Probe back to back for ``seconds``: the speed around a long call
        made in another process, where no probe can run in between."""
        end = self.clock() + seconds
        while self.clock() < end:
            self.sample()

    def tick(self) -> None:
        if self.clock() >= self.due:
            self.sample()

    def factor(self, start: float, seconds: float) -> float:
        if not self.seconds:
            raise ValueError("no speed probe taken")
        lo = bisect.bisect_left(self.mids, start - self.MARGIN)
        hi = bisect.bisect_right(self.mids, start + seconds + self.MARGIN)
        if hi - lo < self.WINDOW:
            i = bisect.bisect(self.mids, start + seconds / 2)
            lo = max(0, min(i - self.WINDOW // 2, len(self.mids) - self.WINDOW))
            hi = lo + self.WINDOW
        median = self._medians.get((lo, hi))
        if median is None:
            median = self._medians[lo, hi] = statistics.median(self.seconds[lo:hi])
        return median / self.nominal

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at nominal speed."""
        return seconds / self.factor(start, seconds)
