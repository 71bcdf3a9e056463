"""Unified observability: one metrics registry + one tracer for the system.

Everything the system measures or counts about itself — verified tokens
per step, per-phase host latency, arena residency — flows through this
package.  Modeled A10 seconds do not: the paper-figure benchmarks read
them from :meth:`repro.cluster.simulator.ServingSimulator.replay`'s return
value.  The package holds:

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms
  (:data:`REGISTRY`), deterministic under seeds;
* :mod:`repro.obs.trace` — structured spans/events (:data:`TRACER`) with
  byte-deterministic JSONL export;
* :mod:`repro.obs.workload` — the seeded toy serving stack every ``repro``
  serving verb builds (:func:`~repro.obs.workload.build_workload`), and the
  reference workload ``repro trace`` / ``repro metrics`` (and the trace
  golden tests) observe.

See ``docs/observability.md`` for the naming convention
(``repro.<layer>.<metric>``), the trace schema, and how to add a metric.
"""

from repro.obs.registry import (
    Counter,
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.trace import SpanHandle, Tracer, TRACER, tracing

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SpanHandle",
    "Tracer",
    "TRACER",
    "tracing",
    "reset_observability",
]


def reset_observability() -> None:
    """Zero the registry and clear the tracer (tests, CLI runs)."""
    REGISTRY.reset()
    TRACER.reset()
