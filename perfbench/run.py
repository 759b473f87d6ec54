"""Benchmark of this checkout's flagpipes: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: enumerate, poset, queries, cli (see workloads.py).  The library is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy; subprocesses get the same ``src`` first on PYTHONPATH.

--trace 0 measures: set-up (the median of three fresh processes that import,
make the inputs and warm up), then passes of the workload's fixed work until
``--seconds`` is spent and at least 100 operations were timed, then
``flagpipes verify CHECK --jobs 1`` for each of the ten checks.  Reported times are scaled to a
nominal machine speed measured by probes run between the operations (see
``measure.Speed``); the raw times are printed above them.

--trace 1 runs one untraced and one traced pass of the same work in this
process (the cli workload calls ``flagpipes.cli.main`` instead of spawning)
and reports per-layer figures, raw, and the tracing overhead.  The last line
of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import Checker, Speed, cpu_probe, min_samples, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 3
IMPORT_PROBES = 5
VERIFY_PROBE_S = 0.2
# Nominal seconds of the two speed probes: a time reported in seconds is
# seconds on a machine that runs the probes this fast.
NOMINAL_CPU = 0.005
NOMINAL_SPAWN = 0.065
STDLIB_IMPORTS = "import argparse, dataclasses, fractions, itertools, json, re"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "poset", "queries", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "flagpipes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def provenance(flagpipes_file: str) -> list[str]:
    return [f"flagpipes: {flagpipes_file}",
            f"src digest: {src_digest()}",
            f"commit: {commit()}",
            f"python: {platform.python_version()}",
            f"nproc: {os.cpu_count()}"]


def spawn_speed(env) -> Speed:
    """Speed of starting a fresh interpreter that imports only the standard
    library: what the start-up bound metrics scale with."""
    argv = [sys.executable, "-c", STDLIB_IMPORTS]
    return Speed(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True),
                 NOMINAL_SPAWN, interval=1.0)


def setup_seconds(args, env, speed: Speed) -> list[tuple[float, float]]:
    """Fresh processes from spawn to 'ready': interpreter start-up, import,
    input generation and warm-up.  (raw, scaled) seconds of each."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                 text=True)
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        child.stdout.read()
        child.stdout.close()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        speed.sample()
        samples.append((seconds, speed.scale(t0, seconds)))
    return samples


def verify(env, checker, speed: Speed) -> tuple[float, float]:
    """``flagpipes verify CHECK --jobs 1``, one subprocess per check, each
    checked for exit 0 and its PASS line.  (raw, scaled) seconds summed over
    the ten.  One check at a time, so the CPU probe taken between them
    follows the machine's speed through the few seconds they take."""
    from flagpipes.verify import CHECK_NAMES
    from workloads import spawn
    raw = scaled = 0.0
    speed.sample_for(VERIFY_PROBE_S)
    for name in CHECK_NAMES:
        t0 = time.perf_counter()
        seconds, code, out, err, _ = spawn(
            [sys.executable, "-m", "flagpipes.cli", "verify", name, "--jobs", "1"],
            None, ROOT, env)
        speed.sample_for(VERIFY_PROBE_S)
        checker.check(code == 0 and err.startswith(f"PASS {name}:"),
                      f"verify {name}: exit {code} {err.strip()!r}")
        raw += seconds
        scaled += speed.scale(t0, seconds)
    return raw, scaled


def print_metrics(metrics: dict) -> None:
    """``metrics`` maps each name to (value, unit)."""
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def print_result(checker, metrics: dict) -> None:
    """The failures, then the result line the benchmark ends with."""
    for reason in checker.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def end_to_end(setups, passes, verify_times, rss_kb, scaled: bool) -> dict:
    """The end-to-end metrics as (value, unit); raw or at nominal speed."""
    pick = 1 if scaled else 0
    latencies = [x for p in passes for x in p.latencies(scaled)]
    return {
        "setup_s": (statistics.median(s[pick] for s in setups), "s"),
        "wall_s": (statistics.median(p.busy(scaled) for p in passes), "s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "verify_s": (verify_times[pick], "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def measured_run(args, wl, checker) -> None:
    from workloads import child_env

    env = child_env(ROOT)
    cpu = Speed(cpu_probe, NOMINAL_CPU, interval=0.25)
    spawn = spawn_speed(env)
    setups = setup_seconds(args, env, spawn)
    wl.setup()
    wl.speed = spawn if wl.name == "cli" else cpu
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(len(passes)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        samples = sum(len(p.latencies(False)) for p in passes)
        if samples >= min_samples(90) and elapsed + last > args.seconds:
            break
    wl.speed.sample()
    if wl.name == "cli":
        rss_kb = max(p.child_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verify_times = verify(env, checker, cpu)

    raw = end_to_end(setups, passes, verify_times, rss_kb, scaled=False)
    metrics = end_to_end(setups, passes, verify_times, rss_kb, scaled=True)
    print(f"passes: {len(passes)}; operations timed: "
          f"{sum(len(p.latencies(False)) for p in passes)}; set-up samples: "
          f"{', '.join(f'{s[0]:.3f}' for s in setups)} s raw")
    print(f"pass digests: {', '.join(p.digest.hexdigest() for p in passes[:3])}")
    for speed in (cpu, spawn):
        print(f"speed probe {speed.nominal * 1e3:g} ms nominal: "
              f"{len(speed.seconds)} taken, median "
              f"{statistics.median(speed.seconds) * 1e3:.2f} ms")
    print(f"failed_ratio: {checker.ratio:.6g} ({checker.failed} of "
          f"{checker.attempted})")
    print("raw (unscaled) figures:")
    print_metrics(raw)
    print("at nominal speed (reported):")
    print_metrics(metrics)
    print_result(checker, metrics)


def import_ms(env) -> float:
    """``import flagpipes.cli`` in fresh interpreters, median milliseconds."""
    code = ("import time; t = time.perf_counter(); import flagpipes.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def traced_run(args, wl, checker) -> None:
    import tracing
    from flagpipes.verify import CHECK_NAMES
    from workloads import call_main, child_env

    wl.setup()
    wl.speed = Speed(cpu_probe, NOMINAL_CPU, interval=0.25)
    plain = wl.run_pass(0, in_process=True)
    tracer = tracing.Tracer()
    wl.tracer = tracer
    undo = tracing.install(tracer)
    try:
        traced = wl.run_pass(0, in_process=True)
        if wl.name == "cli":
            tracer.op += 1
            code, out, err = call_main(["verify", "--jobs", "1"], None)
            report = json.loads(out)
            checker.check(code == 0 and len(report) == len(CHECK_NAMES)
                          and all(r["ok"] for r in report),
                          f"verify: exit {code}")
    finally:
        tracing.uninstall(undo)
        wl.tracer = None
    wl.speed.sample()

    metrics = tracer.metrics()
    metrics["cli.import_ms"] = (import_ms(child_env(ROOT)), "ms")
    overhead = traced.busy() - plain.busy()
    metrics["trace.overhead_s"] = (overhead, "s")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} beyond the cap, "
          f"written to {spans_path.relative_to(ROOT)}")
    print(f"wall_s untraced {plain.busy():.3f} s, traced {traced.busy():.3f} s, "
          f"tracing overhead {overhead:.3f} s at nominal speed "
          f"({traced.busy(False) - plain.busy(False):.3f} s raw)")
    print(f"failed_ratio: {checker.ratio:.6g} ({checker.failed} of "
          f"{checker.attempted})")
    total = sum(tracer.self_s.values()) or 1.0
    print(f"  {'layer':<10} {'calls':>10} {'self_s':>10} {'share':>7} {'raised':>7}")
    for layer in tracing.LAYERS:
        calls = metrics[f"{layer}.calls"][0]
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"  {layer:<10} {calls:>10} {self_s:>10.4f} "
              f"{self_s / total:>7.1%} {metrics[f'{layer}.raised'][0]:>7}")
    print_metrics(metrics)
    print_result(checker, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every child it starts, so the speed
    # probes run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "flagpipes" / "__init__.py").is_file():
        return fail(f"no flagpipes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flagpipes
    if Path(flagpipes.__file__).resolve().parent != SRC / "flagpipes":
        return fail(f"imported {flagpipes.__file__}, not this checkout")

    from workloads import WORKLOADS
    checker = Checker()
    wl = WORKLOADS[args.workload](ROOT, args.seed, checker)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    for line in provenance(flagpipes.__file__):
        print(line)
    print(f"workload: {args.workload}; seed: {args.seed}; "
          f"seconds: {args.seconds:g}; trace: {args.trace}")
    if args.trace:
        traced_run(args, wl, checker)
    else:
        measured_run(args, wl, checker)
    return 0


if __name__ == "__main__":
    sys.exit(main())
