"""Span recorder for the traced benchmark run.

The recorder instruments symgen from outside.  Each traced function is
replaced, for as long as the recorder is entered, by a wrapper installed
under every name callers look it up by: the defining module, every symgen
module that imported it by name (``dcenum.todd_coxeter``,
``groupfile.derive_rules``, ``cli.load_bundled``, ...) and, for methods,
the class.  Leaving the recorder puts the originals back, so untraced code
runs exactly the program's own functions.

A span is (id, parent id, name, start, end); spans stay in memory until
``write`` is called at the end of the run.  A layer's self time is the
span duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from symgen import cli, dcenum, fpgroup, groupfile, progenitor, symrep
from symgen.groupfile import GroupSpecFile
from symgen.perm import PermGroup


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _canon_steps(fn, args, kwargs):
    # canon's public trace= list gets one entry for the input and one per
    # rewrite step; supply a list when the caller did not.
    trace = args[3] if len(args) > 3 else kwargs.get("trace")
    if trace is None:
        trace = []
        kwargs = dict(kwargs, trace=trace)
    before = len(trace)
    result = fn(*args, **kwargs)
    return result, {"symrep.canon_steps": len(trace) - before - 1}


def _count_result(counter: str, measure: Callable):
    def call(fn, args, kwargs):
        result = fn(*args, **kwargs)
        return result, {counter: measure(result)}
    return call


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), None


@dataclass(frozen=True)
class Target:
    """A traced function: span name, where it is defined, how to call it."""

    name: str
    owner: object
    attr: str
    call: Callable = _plain


TARGETS = (
    Target("groupfile.load", groupfile, "load_bundled"),
    Target("groupfile.build_context", GroupSpecFile, "build_context"),
    Target("progenitor.derive_rules", progenitor, "derive_rules",
           _count_result("progenitor.rules_base", lambda r: len(r.rules))),
    Target("progenitor.build_presentation", progenitor, "build_presentation"),
    Target("symrep.canon", symrep, "canon", _canon_steps),
    Target("symrep.mult", symrep, "mult"),
    Target("symrep.per2sym", symrep, "per2sym"),
    Target("symrep.sym2per", symrep, "sym2per"),
    Target("symrep.cenelt", symrep, "cenelt"),
    Target("perm.contains", PermGroup, "__contains__"),
    Target("perm.centralizer", PermGroup, "centralizer"),
    Target("perm.order", PermGroup, "order"),
    Target("fpgroup.todd_coxeter", fpgroup, "todd_coxeter",
           _count_result("fpgroup.cosets", lambda r: r.index)),
    Target("fpgroup.coset_action", fpgroup, "coset_action"),
    Target("dcenum.build_image", dcenum, "build_image"),
    Target("dcenum.double_cosets", dcenum, "double_cosets",
           _count_result("dcenum.double_cosets.nodes", lambda r: len(r.nodes))),
    Target("dcenum.emit_graph", dcenum, "emit_graph"),
    Target("cli.main", cli, "main"),
)


def _lookup_sites(target: Target) -> list[tuple[object, str]]:
    """Every (namespace, attribute) through which callers reach the target."""
    if isinstance(target.owner, type):
        return [(target.owner, target.attr)]
    original = getattr(target.owner, target.attr)
    sites = []
    for name, module in sorted(sys.modules.items()):
        if name != "symgen" and not name.startswith("symgen."):
            continue
        for attr, value in vars(module).items():
            if value is original:
                sites.append((module, attr))
    return sites


class Recorder:
    """Collects spans while entered; re-entrant per section, not nested."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        if self._patches:
            raise RuntimeError("recorder is already installed")
        for target in TARGETS:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            for owner, attr in _lookup_sites(target):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, call = target.name, target.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result, extra = call(fn, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, start, end))
            if extra:
                counts.update(extra)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": [[s.id, s.parent, s.name, s.start, s.end]
                                 for s in self.spans]}, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> tuple[dict[str, float], Counter]:
    """Total self time and span count per span name."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for s in spans:
        own = (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        totals[s.name] = totals.get(s.name, 0.0) + own
        calls[s.name] += 1
    return totals, calls


def top_level_time(spans: Iterable[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)
