"""Outside-in tracing: spans around calls into each layer, recorded from the
benchmark's own files.

A :class:`Tracer` swaps a layer's public functions for wrappers that open a
span per call, keeps the spans in memory, and puts the originals back when
the traced pass ends.  Nothing under ``src/`` is edited; which functions get
wrapped, and under which span name, is listed in ``stack.trace_points``.

A span is ``[name, start, end, parent]`` with ``parent`` an index into the
same list (-1 for the root).  A layer's *self* time is its spans' duration
minus the part their child spans cover, so self times add up to the root
span exactly; *busy* time is the duration of a layer's outermost spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Union

Span = List  # [name, start, end, parent]
Namer = Union[str, Callable[..., str]]


class TracePoint(NamedTuple):
    """One function to wrap: ``getattr(owner, attr)`` becomes a span.

    ``name`` is the span name, or a callable of the call's positional
    arguments returning it (one class, several instances).  ``count``, when
    given, is called as ``count(counts, name, args, kwargs, result)`` after
    each call and adds to the tracer's counters, so work is counted where it
    happens.
    """

    owner: object
    attr: str
    name: Namer
    count: Optional[Callable] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._installed: List = []

    # -- recording -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: Namer,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` bracketed by a span.  Written out flat, without the
        context manager, because the op-level wrappers run a few hundred
        times per tick and their cost is the tracing overhead."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed if fixed is not None else name(*args)
            record = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, label, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------------

    def install(self, points: Iterable[TracePoint]) -> None:
        for point in points:
            original = vars(point.owner)[point.attr]
            setattr(point.owner, point.attr,
                    self.wrap(original, point.name, point.count))
            self._installed.append((point.owner, point.attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, points: Iterable[TracePoint]):
        self.install(points)
        try:
            yield self
        finally:
            self.restore()

    def dump(self, path: str) -> None:
        """Write the spans (times relative to the first) and the counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump({
                "spans": [[n, s - origin, e - origin, p]
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts),
            }, handle)


# -- span arithmetic ---------------------------------------------------------------


class Profile:
    """Self and busy seconds per span name, from a finished span list.
    Every duration is multiplied by ``scale`` (host to reference seconds)."""

    def __init__(self, spans: List[Span], scale: float = 1.0):
        self.spans = spans
        self.scale = scale
        child_time = [0.0] * len(spans)
        # Names of each span's ancestors, as a bit set over the name table.
        bit = {}
        self._ancestors = [0] * len(spans)
        for index, (name, start, end, parent) in enumerate(spans):
            bit.setdefault(name, 1 << len(bit))
            if parent >= 0:
                child_time[parent] += (end - start) * scale
                self._ancestors[index] = (
                    self._ancestors[parent] | bit[spans[parent][0]])
        self._bit = bit
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(spans, child_time):
            self.self_s[name] += (end - start) * scale - covered
            self.calls[name] += 1

    def _mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= self._bit.get(name, 0)
        return mask

    def durations(self, names: Iterable[str],
                  under: Iterable[str] = (),
                  not_under: Iterable[str] = ()) -> List[float]:
        """Durations of the outermost spans named in ``names`` (a span
        nested in another of the set is already inside its duration),
        optionally only those with (``under``) or without (``not_under``)
        an ancestor of the given names."""
        names = set(names)
        own = self._mask(names)
        need = self._mask(under)
        avoid = self._mask(not_under)
        if under and not need:
            return []
        return [
            (end - start) * self.scale
            for (name, start, end, _), anc in zip(self.spans, self._ancestors)
            if name in names and not anc & own
            and (not need or anc & need) and not anc & avoid
        ]

    def busy(self, names: Iterable[str], **where) -> float:
        return sum(self.durations(names, **where))

    def self_time(self, names: Iterable[str]) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def total_self(self) -> float:
        return sum(self.self_s.values())
