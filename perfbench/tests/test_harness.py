"""The benchmark's own arithmetic: self time, percentiles, failure ratio,
digest checks, and that the tracing wrappers see calls between modules."""

import pytest

import tracing
from measure import Checker, check_digest, failed_ratio, min_samples, percentile


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer 0..10 holds mid 1..7, which holds inner 2..5.
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 5, 7, 10]))
    tracer.enter("perm.outer", "perm")
    tracer.enter("pipedream.mid", "pipedream")
    tracer.enter("perm.inner", "perm")
    tracer.leave(False)
    tracer.leave(True)
    tracer.leave(False)
    assert tracer.self_s["perm"] == pytest.approx((10 - 6) + 3)
    assert tracer.self_s["pipedream"] == pytest.approx(6 - 3)
    assert tracer.raised["pipedream"] == 1 and tracer.raised["perm"] == 0
    parents = {name: parent for _, parent, _, name, _, _ in tracer.spans}
    ids = {name: sid for sid, _, _, name, _, _ in tracer.spans}
    assert parents == {"perm.inner": ids["pipedream.mid"],
                       "pipedream.mid": ids["perm.outer"], "perm.outer": 0}


def test_span_cap_keeps_counters_exact():
    tracer = tracing.Tracer(clock=FakeClock(range(100)), span_cap=2)
    for _ in range(5):
        tracer.enter("perm.key", "perm")
        tracer.leave(False)
    assert len(tracer.spans) == 2 and tracer.dropped == 3
    assert tracer.self_s["perm"] == pytest.approx(5)


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100 and min_samples(50) == 20
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 101), 50) == 50
    with pytest.raises(ValueError):
        percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_failed_ratio():
    assert failed_ratio(8, 0) == 0
    assert failed_ratio(8, 2) == 0.25
    for bad in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            failed_ratio(*bad)


def test_tampered_digest_is_a_failure():
    checker = Checker()
    check_digest(checker, "aaaa", "aaaa", "pass 0")
    check_digest(checker, None, "anything", "other seed")
    assert (checker.attempted, checker.failed) == (1, 0)
    check_digest(checker, "aaab", "aaaa", "pass 0")
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.ratio == 0.5


def test_tampered_stored_digest_fails_a_workload_pass(monkeypatch, tmp_path):
    import workloads
    wl = workloads.Enumerate(tmp_path, 1, Checker())
    monkeypatch.setattr(wl, "N", 3)
    monkeypatch.setattr(wl, "DREAMS", 19)
    monkeypatch.setitem(workloads.DIGESTS, "enumerate", None)
    good = wl.run_pass(0).digest.hexdigest()
    assert (wl.checker.attempted, wl.checker.failed) == (19 + 1, 0)
    for stored, failures in ((good, 0), (good[::-1], 1)):
        wl.checker = Checker()
        monkeypatch.setitem(workloads.DIGESTS, "enumerate", stored)
        wl.run_pass(0)
        assert wl.checker.failed == failures


def test_install_sees_calls_between_modules_and_uninstall_restores():
    from flagpipes import perm, pipedream
    original = pipedream.bruhat_leq
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert pipedream.bruhat_leq is not original
        sum(1 for _ in pipedream.enumerate_fpps(3))
    finally:
        tracing.uninstall(undo)
    assert pipedream.bruhat_leq is original and perm.bruhat_leq is original
    metrics = tracer.metrics()
    assert metrics["pipedream.construct_fpp.calls"][0] == 19
    # 36 pairs tested by the enumerator, 19 again inside construct_fpp.
    assert metrics["perm.bruhat_leq.calls"][0] == 36 + 19
    assert metrics["perm.bruhat_leq.true_ratio"][0] == pytest.approx(38 / 55)
    assert metrics["pathgraph.calls"][0] == 0
    assert set(tracing.CALL_METRICS) <= set(metrics)


def test_speed_scales_each_time_by_the_probes_around_it():
    from measure import Speed
    # Probes of 1, 2, 4, 4, 2, 1 seconds, midpoints 0.5, 11, 22, 32, 41, 50.5.
    clock = FakeClock([0, 1, 10, 12, 20, 24, 30, 34, 40, 42, 50, 51])
    speed = Speed(probe=lambda: None, nominal=2.0, interval=0.0, clock=clock)
    for _ in range(6):
        speed.sample()
    speed.MARGIN = 0.0
    # Too few probes inside the span: the five nearest its midpoint.
    assert speed.factor(0, 0) == pytest.approx(2 / 2)  # 1, 2, 4, 4, 2
    assert speed.factor(60, 0) == pytest.approx(2 / 2)  # 2, 4, 4, 2, 1
    assert speed.scale(30, 4.0) == pytest.approx(4.0)
    # A span holding enough probes uses all of them: 2, 4, 4, 2, 1.
    assert speed.factor(5, 50) == pytest.approx(1.0)
    speed.MARGIN = 10.0
    # 1, 2, 4, 4, 2, 1 all lie within the widened span.
    assert speed.factor(20, 1) == pytest.approx(2 / 2)
    slow = Speed(probe=lambda: None, nominal=1.0, interval=0.0,
                 clock=FakeClock([0, 3, 5, 8, 10, 13]))
    for _ in range(3):
        slow.sample()
    assert slow.scale(4, 6.0) == pytest.approx(2.0)  # three times slower
