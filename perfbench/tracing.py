"""In-memory span recorder that wraps named functions and restores them after.

A span is (name, start_ns, end_ns, parent, op, meta, error).  ``parent`` is
the index of the enclosing span (-1 at the top); ``op`` is the index of the
top-level span, so every span of one benchmark operation shares it.  The
recorder is single-threaded, like the program it measures.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int
    meta: object
    error: bool


class Target(NamedTuple):
    """One name to wrap: ``owner.attr`` is replaced while the tracer is on.

    ``meter(args, kwargs)`` returns the span's ``meta`` (rows, work, ...).
    """

    owner: object
    attr: str
    span: str
    meter: Optional[Callable] = None


class Tracer:
    """Context manager: install wrappers on enter, restore originals on exit.

    It may be entered several times; spans accumulate across entries.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for t in self.targets:
                original = t.owner.__dict__[t.attr]
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(t.span, original, t.meter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _wrap(self, name, original, meter):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = stack[0] if stack else index
            stack.append(index)
            meta = meter(args, kwargs) if meter is not None else None
            error = True
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, op, meta, error)

        traced.__wrapped__ = original
        return traced

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), default=_jsonable) + "\n")


def _jsonable(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def children_of(spans):
    """Direct child indices of each span, in start order."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, kids=None):
    """Each span's duration minus the part of it its child spans cover (ns)."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for s, k in zip(spans, kids):
        inner = covered_ns([(spans[c].start, spans[c].end) for c in k], s.start, s.end)
        out.append(s.end - s.start - inner)
    return out
