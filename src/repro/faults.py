"""Seeded, deterministic fault injection for the serving runtime.

The paper's serving substrate (section 5.1) assumes every admitted request
runs to completion; production serving cannot.  This module makes failure
a first-class, *tested* code path: a :class:`FaultInjector` draws one
seeded decision per check point, and the serving stack —
:class:`~repro.serving.manager.RequestManager` and
:class:`~repro.engine.pipeline.DecodePipeline` — is taught to survive what
fires: preempt-and-requeue, bounded retry with backoff-in-iterations, and
graceful speculation fallback.  See ``docs/fault_tolerance.md``.

Determinism contract: each :class:`FaultKind` gets its *own* RNG stream,
seeded from ``(seed, crc32(kind))``.  Decisions at one site therefore never
shift another site's stream, and a run is fully determined by (seed, rate,
workload): the ``n``-th check of a given kind always sees the same draw.
That is what lets the chaos parity suite pin bit-identical outputs against
the fault-free run.  Every check and every injection is counted in the
``repro.faults.*`` metrics, and injected faults emit ``repro.faults.inject``
trace events.
"""

from __future__ import annotations

import enum
import zlib
from typing import Dict

import numpy as np

from repro.obs import REGISTRY, TRACER


class FaultKind(enum.Enum):
    """The failure modes the injector can simulate.

    Attributes:
        SPECULATION: The SSM fleet fails to speculate (speculator crash,
            draft-model OOM); the pipeline tick degrades to incremental
            decoding.
        VERIFICATION: The verification backend fails (fused kernel fault);
            the tick degrades to incremental decoding.
        SESSION: A transient per-request session error (lost connection,
            worker restart); the manager retries with backoff-in-iterations
            and eventually marks the request FAILED.
        KV_PRESSURE: A simulated KV-memory pressure spike; the manager
            preempts a victim request to shed load.
    """

    SPECULATION = "speculation"
    VERIFICATION = "verification"
    SESSION = "session"
    KV_PRESSURE = "kv_pressure"


class FaultError(RuntimeError):
    """A transient fault a session factory raises at admission; the
    manager retries the request with backoff."""


_CHECKS = REGISTRY.counter(
    "repro.faults.checks", help="fault-injection decision points evaluated")
_INJECTED = REGISTRY.counter(
    "repro.faults.injected", help="faults injected (all kinds)")
_BY_KIND = {
    kind: REGISTRY.counter(
        f"repro.faults.{kind.value}",
        help=f"injected {kind.value.replace('_', ' ')} faults",
    )
    for kind in FaultKind
}


class FaultInjector:
    """Draws per-kind seeded decisions and records what fires.

    Args:
        rate: Per-check fire probability in ``[0, 1]``, for every kind.
        seed: Master seed; each kind's stream derives from it.
    """

    def __init__(self, rate: float = 0.0, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self._streams = {
            kind: np.random.default_rng(
                [seed, zlib.crc32(kind.value.encode("ascii"))])
            for kind in FaultKind
        }
        self.checks: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self.injected: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}

    def _decide(self, kind: FaultKind) -> bool:
        """One seeded draw for ``kind`` (overridable by scripted test doubles)."""
        if self.rate <= 0.0:
            return False
        return float(self._streams[kind].random()) < self.rate

    def should_fire(self, kind: FaultKind, **context) -> bool:
        """Whether a fault of ``kind`` fires at this check point.

        ``context`` keys (request id, iteration, ...) are attached to the
        ``repro.faults.inject`` trace event when the fault fires.
        """
        self.checks[kind] += 1
        _CHECKS.inc()
        if not self._decide(kind):
            return False
        self.injected[kind] += 1
        _INJECTED.inc()
        _BY_KIND[kind].inc()
        TRACER.event("repro.faults.inject", kind=kind.value, **context)
        return True

    @property
    def total_injected(self) -> int:
        """Faults injected across all kinds since construction."""
        return sum(self.injected.values())
