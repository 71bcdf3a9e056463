"""Process-wide metrics registry: counters, gauges, histograms.

One registry (:data:`REGISTRY`) is the single accumulation point for every
quantitative fact the system measures about itself — operation counts from
the model primitives (via the :mod:`repro.model.perf` shim), pipeline-phase
latencies, serving admission/retirement and KV-arena residency.  The paper's
evaluation is entirely about measured behaviour (verified tokens per step,
per-iteration latency, speedup over incremental decoding); this module is
where those measurements live between the hot path that produces them and
the reporting/CI layers that consume them.  Modeled seconds from the A10
cost model (:mod:`repro.cluster`) are never recorded here.

Design constraints, in priority order:

* **Determinism** — recorded *values* must never contain wall-clock
  timestamps.  Durations are :func:`time.perf_counter` deltas observed into
  histograms (whose bucket layout is fixed at registration), and logical
  clocks (iterations, pipeline ticks) are plain counters, so a seeded run
  produces the same counter/gauge values every time; only the
  ``host_seconds`` histograms vary run-to-run, and nothing byte-compared
  reads them.
* **Hot-path cost** — a counter increment is one attribute add.  Metric
  objects are interned (``counter(name)`` returns the same object every
  call), so instrumented modules look them up once at import time.
* **Simplicity over concurrency** — the registry is **not thread-safe**:
  increments are plain Python ``+=`` on shared objects, unguarded by locks.
  The decode loop is single-threaded by construction (NumPy substrate), and
  a lock per ``add_gemm`` would cost more than the GEMM accounting itself.
  If a threaded execution surface lands, it must shard registries per
  thread and merge snapshots.

Naming convention: ``repro.<layer>.<metric>`` with layers such as
``model``, ``engine``, ``verify``, ``serving``, ``bench`` (see
``docs/observability.md``).  Names are validated at registration so typos
fail loudly instead of creating orphan series.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: ``repro.<layer>.<metric>`` — dot-separated lowercase segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Default histogram bucket upper bounds for host-time observations
#: (seconds).  Chosen to resolve toy-substrate phase latencies (tens of
#: microseconds) through full-workload replays (tens of seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Default buckets for small-count observations (tree sizes, tokens/step).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not match the "
            f"'repro.<layer>.<metric>' convention (lowercase dotted "
            f"segments)"
        )
    return name


class Counter:
    """A monotonically non-decreasing count (events, tokens, FLOPs)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def _reset(self) -> None:
        self.value = 0

    def _as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (residency, queue depth).

    ``set_max`` implements high-water marks: the gauge keeps the largest
    value ever set through it (until :meth:`MetricsRegistry.reset`).
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, amount: Number) -> None:
        self.value += amount

    def set_max(self, value: Number) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        if value > self.value:
            self.value = value

    def _reset(self) -> None:
        self.value = 0

    def _as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram of observations.

    Buckets are *upper bounds* with less-than-or-equal semantics: an
    observation ``v`` lands in the first bucket whose bound satisfies
    ``v <= bound``; values above the last bound land in the implicit
    overflow bucket.  Bucket boundaries are fixed at registration —
    re-registering the same name with different bounds is an error, so
    every consumer of a series sees the same layout.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = ""):
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} bucket bounds must be strictly "
                f"increasing: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # +overflow
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def _as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Interning container for every metric in the process.

    **Not thread-safe** — see the module docstring.  All mutation is plain
    unguarded attribute arithmetic; callers own serialization if they ever
    introduce threads.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers (and may set ``help`` / buckets), subsequent calls
    return the interned object, so modules can resolve their metrics once
    at import time and :meth:`reset` zeroes values *in place* without
    invalidating those references.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._reset_hooks: List[Callable[[], None]] = []

    # -- registration -------------------------------------------------------------

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name} is a {existing.kind}, not a "
                    f"{cls.kind}"
                )
            if cls is Histogram and "buckets" in kwargs:
                bounds = tuple(float(b) for b in kwargs["buckets"])
                if bounds != existing.bounds:
                    raise ValueError(
                        f"histogram {name} already registered with buckets "
                        f"{existing.bounds}, not {bounds}"
                    )
            return existing
        metric = cls(_check_name(name), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  help: str = "") -> Histogram:
        """Get-or-create; ``buckets`` defaults to the time buckets at
        registration and is only *checked* when passed explicitly, so
        re-fetching an interned histogram needs no bucket knowledge."""
        if buckets is None:
            existing = self._metrics.get(name)
            if isinstance(existing, Histogram):
                return existing
            buckets = DEFAULT_TIME_BUCKETS
        return self._get_or_create(Histogram, name, buckets=buckets,
                                   help=help)

    # -- inspection ---------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy of every metric, keyed by name (sorted)."""
        return {name: self._metrics[name]._as_dict()
                for name in sorted(self._metrics)}

    def delta(self, earlier: Dict[str, Dict[str, object]]
              ) -> Dict[str, Dict[str, object]]:
        """Counter/histogram growth since ``earlier`` (a snapshot).

        Gauges are point-in-time by nature and carry their *current* value.
        Metrics absent from ``earlier`` are treated as starting from zero.
        """
        current = self.snapshot()
        out: Dict[str, Dict[str, object]] = {}
        for name, now in current.items():
            then = earlier.get(name)
            if now["kind"] == "counter" and then is not None:
                out[name] = {"kind": "counter",
                             "value": now["value"] - then["value"]}
            elif now["kind"] == "histogram" and then is not None:
                out[name] = {
                    "kind": "histogram",
                    "buckets": now["buckets"],
                    "counts": [a - b for a, b in
                               zip(now["counts"], then["counts"])],
                    "sum": now["sum"] - then["sum"],
                    "count": now["count"] - then["count"],
                }
            else:
                out[name] = now
        return out

    def on_reset(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every :meth:`reset`.  A gauge kept by
        ``add`` is a level (rows held), not a rate: its owner restores it
        from the live state, since zeroing it would send it negative when
        that state is later given back."""
        self._reset_hooks.append(hook)

    def reset(self) -> None:
        """Zero every metric in place (interned references stay valid),
        then run the :meth:`on_reset` hooks."""
        for metric in self._metrics.values():
            metric._reset()
        for hook in self._reset_hooks:
            hook()

    def to_json(self, snapshot: Optional[Dict] = None, indent: int = 2) -> str:
        """The registry (or a given snapshot) as deterministic JSON."""
        return json.dumps(snapshot if snapshot is not None else
                          self.snapshot(), indent=indent, sort_keys=True)


#: The process-wide registry every instrumented module adds into.
REGISTRY = MetricsRegistry()
