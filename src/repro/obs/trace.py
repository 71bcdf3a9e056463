"""Structured span/event tracer with deterministic JSONL export.

The tracer answers "what happened, in what order, inside what" — the
questions the flat metrics registry cannot.  A *span* brackets one phase of
work (a pipeline tick, one speculate/fit/verify/commit phase, a fused
verification pass); an *event* marks a point occurrence (a request
admitted, a request retired).  Both carry an ``attrs`` dict of structured
facts.

Determinism is the load-bearing property: exported records contain **no
wall-clock values** — ordering is a process-local monotonic sequence
number (``seq``), and every attribute is a seed-derived quantity (token
counts, tree shapes, request ids, iteration indices).  A seeded workload
therefore exports byte-identical JSONL on every run, which is what lets CI
diff traces instead of eyeballing them.  Host time is still *measured*:
each span observes its :func:`time.perf_counter` delta into the metrics
registry histogram ``<span-name>.host_seconds``, which is reported by
``repro metrics`` but never written into the trace.

Recording is off by default (the metrics side stays always-on and cheap);
``repro trace`` and the trace tests arm it via :meth:`Tracer.enable` or the
:func:`tracing` context manager.  Like the registry, the tracer is **not
thread-safe** — the span stack is a plain list.

Export schema (one JSON object per line, keys sorted, compact separators —
see ``docs/observability.md``):

``{"attrs": {...}, "end": 9, "id": 2, "kind": "span", "name": "...",
"parent": 1, "seq": 3}``
``{"attrs": {...}, "kind": "event", "name": "...", "seq": 5, "span": 2}``
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Optional, Union

from repro.obs.registry import DEFAULT_TIME_BUCKETS, REGISTRY

Attr = Union[int, float, str, bool, None]


class SpanHandle:
    """A live span: amend its attributes before it closes with :meth:`set`."""

    __slots__ = ("name", "span_id", "parent_id", "seq", "attrs", "_t0")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 seq: int, attrs: Dict[str, Attr], t0: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self.attrs = attrs
        self._t0 = t0

    def set(self, **attrs: Attr) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)


class _NullSpan:
    """The disabled-tracer span: swallows attributes, costs a method call."""

    __slots__ = ()

    def set(self, **attrs: Attr) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Span/event recorder feeding deterministic JSONL.

    Args:
        registry: Metrics registry that receives ``<name>.host_seconds``
            histogram observations for every span (defaults to the
            process-wide one).  Timing runs even while record-keeping is
            disabled, so phase-latency histograms are always populated.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else REGISTRY
        self.enabled = False
        self._records: List[Dict[str, object]] = []
        self._stack: List[int] = []  # open span ids
        self._next_span_id = 0
        self._next_seq = 0

    # -- lifecycle ----------------------------------------------------------------

    def enable(self, on: bool = True) -> None:
        """Turn record-keeping on/off (timing histograms are unaffected)."""
        self.enabled = on

    def reset(self) -> None:
        """Drop all records and restart ids/sequence numbers from zero."""
        self._records = []
        self._stack = []
        self._next_span_id = 0
        self._next_seq = 0

    def _seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- recording ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Attr) -> Iterator[SpanHandle]:
        """Bracket one phase of work; always times it, records if enabled."""
        timer = self.registry.histogram(
            f"{name}.host_seconds", buckets=DEFAULT_TIME_BUCKETS
        )
        t0 = time.perf_counter()
        if not self.enabled:
            try:
                yield _NULL_SPAN
            finally:
                timer.observe(time.perf_counter() - t0)
            return
        span_id = self._next_span_id
        self._next_span_id += 1
        handle = SpanHandle(
            name=name,
            span_id=span_id,
            parent_id=self._stack[-1] if self._stack else None,
            seq=self._seq(),
            attrs=dict(attrs),
            t0=t0,
        )
        self._stack.append(span_id)
        try:
            yield handle
        finally:
            self._stack.pop()
            timer.observe(time.perf_counter() - t0)
            self._records.append({
                "kind": "span",
                "seq": handle.seq,
                "end": self._seq(),
                "id": handle.span_id,
                "parent": handle.parent_id,
                "name": handle.name,
                "attrs": handle.attrs,
            })

    def event(self, name: str, **attrs: Attr) -> None:
        """Record a point occurrence inside the current span (if enabled)."""
        if not self.enabled:
            return
        self._records.append({
            "kind": "event",
            "seq": self._seq(),
            "span": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": dict(attrs),
        })

    # -- export -------------------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """All records in ``seq`` (i.e. start) order."""
        return sorted(self._records, key=lambda r: r["seq"])

    def to_jsonl(self) -> str:
        """The trace as JSONL: one sorted-key compact object per line."""
        return "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.records()
        )

    def export_jsonl(self, stream: IO[str]) -> int:
        """Write :meth:`to_jsonl` (newline-terminated); returns #records."""
        text = self.to_jsonl()
        if text:
            stream.write(text + "\n")
        return len(self._records)


#: The process-wide tracer the instrumented layers record into.
TRACER = Tracer()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable ``tracer`` (default: the global one) for a ``with`` block,
    starting from a clean slate; restores the previous enabled state."""
    target = tracer if tracer is not None else TRACER
    previous = target.enabled
    target.reset()
    target.enable(True)
    try:
        yield target
    finally:
        target.enable(previous)
