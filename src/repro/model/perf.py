"""Operation counters for the decoding hot path (registry shim).

The fused-batching work (block-sparse attention over a shared KV arena)
makes claims that are easy to regress silently: "score FLOPs only inside
each request's own block", "no per-step KV copies", "allocation-free
steady-state masks".
This module threads cheap integer counters through the primitives so those
claims are *asserted* by the ``perf_smoke`` tier-1 tests and *reported* by
``benchmarks/bench_batched_fused.py`` — the NumPy analogue of a CUDA
profiler's achieved-FLOPs/bytes-moved columns.

Since the unified observability layer landed, this module is a thin shim:
the counts live in the process-wide metrics registry
(:data:`repro.obs.REGISTRY`) as ``repro.model.<counter>`` series, where
``repro metrics`` and the CI perf gate read them alongside everything else.
The legacy surface is unchanged — ``add_*`` helpers, :func:`reset`,
:data:`COUNTERS` attribute access, and::

    with perf.track() as c:
        verifier.verify_batch(trees, caches, samplings, rngs)
    assert c.kv_bytes_copied == 0

``track`` measures the *delta* over its body, so nesting and unrelated
background accumulation are both safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields

from repro.obs import REGISTRY


@dataclass
class PerfCounters:
    """A point-in-time copy (or delta) of the hot-path operation counts.

    Attributes:
        gemm_flops: Multiply-add FLOPs (counted as 2*m*n*k) spent in
            ``linear_forward`` — QKV/output projections, MLP, LM head.
        attn_score_flops: FLOPs spent forming attention scores and the
            weighted value sum (2 * 2 * heads * n_q * n_k * d_head).
        kv_bytes_copied: Bytes of cached keys/values copied to stage
            attention inputs (the block gathers of every paged-cache layer
            view).  Zero-copy views (contiguous and arena caches) count
            nothing; post-verification compaction is excluded (it is
            bounded by the accepted path, not the batch).
        mask_cells_allocated: Cells of freshly allocated attention-mask
            buffers.  Steady-state decode with reused (``out=``) buffers
            allocates none.
        hot_alloc_events: Tracked hot-path buffer allocations — scratch
            arena growth (:class:`repro.model.scratch.ScratchArena`) plus
            fresh (non-``out=``) mask buffers.  ``DecodePipeline.tick``
            folds the per-tick delta into ``repro.engine.tick.allocs``,
            which CI gates to zero on steady-state ticks.
        hot_alloc_bytes: Bytes requested by those allocations.
    """

    gemm_flops: int = 0
    attn_score_flops: int = 0
    kv_bytes_copied: int = 0
    mask_cells_allocated: int = 0
    hot_alloc_events: int = 0
    hot_alloc_bytes: int = 0

    def snapshot(self) -> "PerfCounters":
        """An independent copy of these counts."""
        return PerfCounters(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counts accumulated since ``earlier`` was snapshotted."""
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


#: The registry series backing each legacy counter field, interned once.
_METRICS = {
    f.name: REGISTRY.counter(f"repro.model.{f.name}")
    for f in fields(PerfCounters)
}


class _RegistryView:
    """Live attribute view over the registry-backed hot-path counters.

    ``perf.COUNTERS.gemm_flops`` reads the registry series
    ``repro.model.gemm_flops`` at access time — the legacy accumulator
    object, now a window onto the shared registry.
    """

    def __getattr__(self, name: str) -> int:
        try:
            return _METRICS[name].value
        except KeyError:
            raise AttributeError(name) from None

    def snapshot(self) -> PerfCounters:
        """An independent :class:`PerfCounters` copy of the current counts."""
        return PerfCounters(
            **{name: metric.value for name, metric in _METRICS.items()}
        )

    def delta(self, earlier: PerfCounters) -> PerfCounters:
        """Counts accumulated since ``earlier`` was snapshotted."""
        return self.snapshot().delta(earlier)


#: The global accumulator the primitives add into (registry-backed view).
COUNTERS = _RegistryView()


def reset() -> None:
    """Zero the hot-path counters (tests and benchmarks start fresh).

    Only the ``repro.model.*`` operation counters are touched; use
    :func:`repro.obs.reset_observability` to zero the whole registry.
    """
    for metric in _METRICS.values():
        metric.value = 0


@contextmanager
def track():
    """Yield a :class:`PerfCounters` that, on exit, holds the body's delta.

    The yielded object is filled in place when the ``with`` block exits, so
    it can be inspected after the block.
    """
    before = COUNTERS.snapshot()
    result = PerfCounters()
    try:
        yield result
    finally:
        after = COUNTERS.delta(before)
        for f in fields(PerfCounters):
            setattr(result, f.name, getattr(after, f.name))


def add_gemm(m: int, k: int, n: int) -> None:
    """Record one ``(m, k) @ (k, n)`` GEMM."""
    _METRICS["gemm_flops"].value += 2 * m * k * n


def add_attention(n_heads: int, n_q: int, n_k: int, d_head: int) -> None:
    """Record one masked attention block (scores + weighted sum)."""
    _METRICS["attn_score_flops"].value += 2 * 2 * n_heads * n_q * n_k * d_head


def add_kv_copy(n_bytes: int) -> None:
    """Record bytes of K/V copied to stage an attention input."""
    _METRICS["kv_bytes_copied"].value += n_bytes


def add_mask_alloc(cells: int, itemsize: int = 8) -> None:
    """Record a freshly allocated mask buffer of ``cells`` cells.

    A fresh mask is also a hot-path allocation event, so it is charged to
    :func:`add_hot_alloc` as well (scratch-backed ``out=`` masks charge
    nothing here — their rare growth is counted by the arena itself).
    """
    _METRICS["mask_cells_allocated"].value += cells
    add_hot_alloc(cells * itemsize)


def add_mask_cells(cells: int) -> None:
    """Record mask cells whose allocation was already counted elsewhere.

    :class:`~repro.model.scratch.ScratchArena` charges its own growth to
    :func:`add_hot_alloc`; mask scratches layered on the arena use this to
    keep ``mask_cells_allocated`` accurate without double-counting the
    allocation event."""
    _METRICS["mask_cells_allocated"].value += cells


def add_hot_alloc(n_bytes: int) -> None:
    """Record one tracked hot-path buffer allocation of ``n_bytes``."""
    _METRICS["hot_alloc_events"].value += 1
    _METRICS["hot_alloc_bytes"].value += n_bytes
