"""Opt-in span tracing of the flagpipes layers, installed from outside.

``install`` wraps the public functions, the public methods and the
constructors of the public classes of every layer module, and rebinds every
``from .x import y`` copy of a wrapped function inside the package, so calls
between modules are seen too.  Nothing inside ``src/`` knows about it, and
``uninstall`` puts the originals back.

A span records name, start, end, parent span and the operation id the
benchmark set before the call.  Self time is computed online: a span's
duration minus the durations of its direct children, so nested calls in the
same layer are not counted twice.  Spans are kept in memory up to a cap and
written out at the end; the counters are exact whatever the cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType

from flagpipes.verify import CHECK_NAMES

LAYERS = ("perm", "pipedream", "pathgraph", "positroid", "decperm",
          "flagbuild", "poset", "ratmat", "serialize", "render", "verify",
          "cli")

# Result observers: span name -> function of the result giving the counter
# to add to and the amount.
RESULT_COUNTS = {
    "perm.bruhat_leq": lambda r: ("perm.bruhat_leq.true", bool(r)),
    "positroid.is_quotient": lambda r: ("positroid.is_quotient.true", bool(r)),
    "pathgraph.admissible_collections": lambda r: ("pathgraph.families", len(r)),
    "pathgraph.bases_of": lambda r: ("pathgraph.bases", len(r.bases)),
    "ratmat.flag_minors": lambda r: ("ratmat.minors", len(r)),
    "poset.build_poset": lambda r: ("poset.covers_emitted", len(r.covers)),
    "verify.run_check": lambda r: (f"verify.check_s.{r.name}", r.seconds),
}

# Extra per-layer call counts: metric name -> span name.
CALL_METRICS = {
    "perm.bruhat_leq.calls": "perm.bruhat_leq",
    "perm.key.calls": "perm.key",
    "pipedream.construct_fpp.calls": "pipedream.construct_fpp",
    "pipedream.dreams_built": "pipedream.PipeDream.__init__",
    "pathgraph.bases_of.calls": "pathgraph.bases_of",
    "positroid.from_dream.calls": "positroid.Positroid.from_dream",
    "positroid.standardize.calls": "positroid.standardize",
    "positroid.is_quotient.calls": "positroid.is_quotient",
    "positroid.subset_rank.calls": "positroid.subset_rank",
    "decperm.decperm_of.calls": "decperm.decperm_of",
    "decperm.covers_by_shift.calls": "decperm.covers_by_shift",
    "decperm.positroid_of.calls": "decperm.positroid_of",
    "flagbuild.quotient_covers.calls": "flagbuild.quotient_covers",
    "flagbuild.append_row.calls": "flagbuild.append_row",
    "ratmat.det.calls": "ratmat.det",
    "ratmat.flag_minors.calls": "ratmat.flag_minors",
}

COUNTER_METRICS = ("pathgraph.families", "poset.covers_emitted",
                   "ratmat.minors")


def _ratio(num: float, den: float) -> float:
    """A ratio that reads 0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Span stack, per-layer self time, call and exception counts."""

    def __init__(self, clock=time.perf_counter, span_cap: int = 100_000):
        self.clock = clock
        self.span_cap = span_cap
        self.op = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str, layer: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, parent, name, layer,
                            self.clock(), 0.0])

    def leave(self, raised: bool) -> None:
        end = self.clock()
        sid, parent, name, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][5] += duration
        if raised:
            self.raised[layer] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, parent, self.op, name, start, end))
        else:
            self.dropped += 1

    def observe(self, name: str, result) -> None:
        counter, amount = RESULT_COUNTS[name](result)
        self.counts[counter] += amount

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(c for name, c in self.calls.items()
                   if name.startswith(prefix))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this tracer can give, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls(layer), "count")
            out[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0), "s")
            out[f"{layer}.raised"] = (self.raised.get(layer, 0), "count")
        for metric, name in CALL_METRICS.items():
            out[metric] = (self.calls.get(name, 0), "count")
        for metric in COUNTER_METRICS:
            out[metric] = (self.counts.get(metric, 0), "count")
        for check in CHECK_NAMES:
            metric = f"verify.check_s.{check}"
            out[metric] = (self.counts.get(metric, 0.0), "s")
        c = self.calls
        out["perm.bruhat_leq.true_ratio"] = (_ratio(
            self.counts["perm.bruhat_leq.true"], c["perm.bruhat_leq"]), "ratio")
        out["positroid.is_quotient.true_ratio"] = (_ratio(
            self.counts["positroid.is_quotient.true"],
            c["positroid.is_quotient"]), "ratio")
        out["pipedream.dreams_built_per_result"] = (_ratio(
            c["pipedream.PipeDream.__init__"], c["pipedream.construct_fpp"]),
            "ratio")
        out["pathgraph.families_per_basis"] = (_ratio(
            self.counts["pathgraph.families"], self.counts["pathgraph.bases"]),
            "ratio")
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    calls, enter, leave = tracer.calls, tracer.enter, tracer.leave
    observe = name in RESULT_COUNTS

    if inspect.isgeneratorfunction(fn):
        # One call per generator; one span per resume, so the work done
        # while the caller iterates lands in this layer.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                enter(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    leave(False)
                    return
                except BaseException:
                    leave(True)
                    raise
                leave(False)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            leave(True)
            raise
        leave(False)
        if observe:
            tracer.observe(name, result)
        return result
    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer; return the undo list for :func:`uninstall`."""
    undo: list[tuple] = []
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"flagpipes.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                _wrap_class(tracer, layer, obj, undo)
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                wrapped[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}",
                                               layer, obj))
    for name, module in list(sys.modules.items()):
        if not name.startswith("flagpipes"):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])
    return undo


def _wrap_class(tracer: Tracer, layer: str, cls: type, undo: list) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            replacement = type(member)(_wrap(tracer, name, layer,
                                             member.__func__))
        elif isinstance(member, FunctionType):
            replacement = _wrap(tracer, name, layer, member)
        else:
            continue
        undo.append((cls, attr, member))
        setattr(cls, attr, replacement)


def uninstall(undo: list[tuple]) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
