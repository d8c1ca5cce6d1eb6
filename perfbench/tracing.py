"""Spans recorded from outside the program.

A Tracer wraps public functions of the xpq modules in place, so the program's
own code stays untouched. Every call of a wrapped function becomes one span
with a name, start, end, parent span and run id; spans stay in memory until
the run writes them to its side file. Layer metrics are computed from the
spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Highest first; ms_tail reports the first one with >= TAIL_BEYOND calls above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# What an observer may raise when the function it reads has changed shape.
OBSERVER_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    error: str | None = None  # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one run, single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.broken: set[str] = set()  # targets whose observer failed
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id, error))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span; observe(args, kwargs, result) returns counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    increments = observe(args, kwargs, result)
                except OBSERVER_ERRORS:
                    self.broken.add(name)
                else:
                    for counter, amount in increments.items():
                        self.count(counter, amount)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps(asdict(s)) + "\n")


def resolve(target: str):
    """The function `xpq.<target>` names, or None if it no longer exists."""
    module_name, _, attr = ("xpq." + target).rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


@contextmanager
def installed(tracer: Tracer, targets: dict):
    """Wrap each target (name -> observer or None) wherever an xpq module holds it.

    Modules that did `from .x import f` hold their own reference to f, so every
    loaded xpq module is patched, not only the defining one. Yields the set of
    target names that no longer exist; their metrics are reported as absent.
    Originals are restored on exit.
    """
    absent = set()
    patched = []
    try:
        for name, observe in targets.items():
            original = resolve(name)
            if original is None:
                absent.add(name)
                continue
            wrapper = tracer.wrap(name, original, observe)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "xpq" and not mod_name.startswith("xpq."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls beyond it.

    Nearest-rank percentiles; (0.0, 0.0) when there are too few calls for any.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct * n / 100.0, 9))
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return 0.0, 0.0


class Summary:
    """Per-name aggregates over a finished run's spans and counters."""

    def __init__(self, tracer: Tracer):
        self.counters = tracer.counters
        own = self_times(tracer.spans)
        self._by_name: dict[str, list[Span]] = {}
        self._self: dict[str, float] = {}
        for s in tracer.spans:
            self._by_name.setdefault(s.name, []).append(s)
            self._self[s.name] = self._self.get(s.name, 0.0) + own[s.id]

    def spans(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.spans(name))

    def errors(self, name: str, error: str) -> int:
        return sum(s.error == error for s in self.spans(name))

    def s(self, name: str) -> float:
        return sum(s.duration for s in self.spans(name))

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def ms_p50(self, name: str) -> float:
        spans = self.spans(name)
        return 1000.0 * statistics.median(s.duration for s in spans) if spans else 0.0

    def ms_tail(self, name: str) -> tuple[float, float]:
        value, pct = tail([s.duration for s in self.spans(name)])
        return 1000.0 * value, pct
