"""Shared KV arena: one preallocated slab per layer for a whole batch.

Staging a batch's attention inputs by concatenating every request's keys
and values per layer per step costs O(total cached KV) of copying on every
decoding iteration, and a paged cache pays a block gather per layer view.
The arena removes the copies at the source:

* :class:`BatchArena` owns, per transformer layer, one preallocated
  ``(capacity, n_heads, d_head)`` key slab and value slab shared by all
  requests in a batch;
* :meth:`BatchArena.new_sequence` carves a contiguous *row range* out of the
  slab and returns an :class:`ArenaKVCache` — a drop-in
  :class:`~repro.model.kv_cache.KVCache` whose per-layer buffers are NumPy
  views into the slab.  ``append`` writes through to the slab, ``view`` is a
  zero-copy slice, and ``keep_rows`` compacts in place, so every engine,
  verifier and speculator runs unmodified (same contract as
  :class:`~repro.model.paged_cache.PagedSequenceCache`);
* the block-sparse fused decode path
  (:meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks`)
  then reads each request's keys directly from its arena range — the
  batched step never materializes a concatenated KV tensor.

Allocation is first-fit over free row ranges with coalescing on release,
which is plenty for the serving manager's churn (requests allocate full
``max_seq_len`` ranges by default, like the contiguous cache).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro import sanitizer
from repro.model.config import ModelConfig
from repro.model.kv_cache import LayerKV
from repro.obs import REGISTRY

# Aggregated across every arena in the process (see docs/observability.md).
_ALLOCATIONS = REGISTRY.counter(
    "repro.model.arena.allocations", help="row ranges carved for requests")
_RELEASES = REGISTRY.counter(
    "repro.model.arena.releases", help="row ranges returned to free lists")
_ROWS_USED = REGISTRY.gauge(
    "repro.model.arena.rows_used", help="slab rows currently carved out")
_BYTES_RESIDENT = REGISTRY.gauge(
    "repro.model.arena.bytes_resident",
    help="K/V bytes of currently carved-out rows across all layers")
_BYTES_HIGH_WATER = REGISTRY.gauge(
    "repro.model.arena.bytes_high_water",
    help="largest bytes_resident seen since the last registry reset")
_ROWS_COMPACTED = REGISTRY.counter(
    "repro.model.arena.rows_compacted",
    help="slab rows moved by post-verification keep_rows compaction")


class BatchArena:
    """Preallocated per-layer KV slabs shared by a batch of requests.

    Args:
        config: Model architecture (layer count, heads, head dim, dtype).
        capacity: Total slab rows per layer.  Defaults to
            ``max_requests * config.max_seq_len``.
        max_requests: Sizing shorthand when ``capacity`` is not given.
    """

    def __init__(self, config: ModelConfig, capacity: int = 0,
                 max_requests: int = 8):
        if capacity <= 0:
            capacity = max_requests * config.max_seq_len
        self.config = config
        self.capacity = capacity
        shape = (capacity, config.n_heads, config.d_head)
        self._keys = [
            np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)
        ]
        self._values = [
            np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)
        ]
        # K/V bytes one slab row occupies across all layers (both slabs).
        self.row_bytes = (
            2 * config.n_layers * config.n_heads * config.d_head
            * np.dtype(config.dtype).itemsize
        )
        # Free row ranges, kept sorted and coalesced: list of (start, stop).
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        # Ranges currently owned by live ArenaKVCaches; the sanitizer checks
        # every new registration against these for overlap.
        self._live: List[Tuple[int, int]] = []

    # -- allocation ---------------------------------------------------------------

    @property
    def free_rows(self) -> int:
        return sum(stop - start for start, stop in self._free)

    @property
    def used_rows(self) -> int:
        return self.capacity - self.free_rows

    def utilization(self) -> float:
        """Fraction of slab rows currently carved out to requests."""
        return self.used_rows / self.capacity

    def new_sequence(self, capacity: int = 0) -> "ArenaKVCache":
        """Carve a row range for one request (first-fit).

        Args:
            capacity: Rows to reserve; defaults to ``config.max_seq_len``
                (a full contiguous-cache worth, the serving default).
        """
        capacity = capacity or self.config.max_seq_len
        if capacity > self.config.max_seq_len:
            raise ValueError(
                f"capacity {capacity} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        for i, (start, stop) in enumerate(self._free):
            if stop - start >= capacity:
                if stop - start == capacity:
                    del self._free[i]
                else:
                    self._free[i] = (start + capacity, stop)
                return ArenaKVCache(self, start, start + capacity)
        raise MemoryError(
            f"KV arena exhausted: no free range of {capacity} rows "
            f"({self.free_rows} rows free, fragmented over "
            f"{len(self._free)} ranges)"
        )

    def register(self, start: int, stop: int) -> None:
        """Record ``[start, stop)`` as owned by a live request cache.

        Called by :class:`ArenaKVCache` on construction.  Under
        ``REPRO_SANITIZE`` the new range is checked for overlap against
        every live range — two requests sharing slab rows would silently
        read each other's keys/values.
        """
        sanitizer.guard_disjoint_ranges("KV arena", self._live, (start, stop))
        self._live.append((start, stop))
        _ALLOCATIONS.inc()
        _ROWS_USED.add(stop - start)
        _BYTES_RESIDENT.add((stop - start) * self.row_bytes)
        _BYTES_HIGH_WATER.set_max(_BYTES_RESIDENT.value)

    def release(self, start: int, stop: int) -> None:
        """Return a row range to the free list, coalescing neighbours."""
        if not 0 <= start <= stop <= self.capacity:
            raise ValueError(f"invalid arena range [{start}, {stop})")
        if (start, stop) in self._live:
            self._live.remove((start, stop))
        for free_start, free_stop in self._free:
            if start < free_stop and free_start < stop:
                raise ValueError(
                    f"double free of arena rows [{start}, {stop})"
                )
        _RELEASES.inc()
        _ROWS_USED.add(start - stop)
        _BYTES_RESIDENT.add((start - stop) * self.row_bytes)
        self._free.append((start, stop))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for rng_start, rng_stop in self._free:
            if merged and rng_start == merged[-1][1]:
                merged[-1] = (merged[-1][0], rng_stop)
            else:
                merged.append((rng_start, rng_stop))
        self._free = merged


class ArenaKVCache:
    """One request's KV cache as a view into a :class:`BatchArena`.

    Same surface as :class:`~repro.model.kv_cache.KVCache` (``layers``,
    ``length``, ``capacity``, ``truncate``, ``keep_rows``, ``snapshot`` /
    ``restore``) plus ``free()`` for request retirement, mirroring
    :class:`~repro.model.paged_cache.PagedSequenceCache`.
    """

    def __init__(self, arena: BatchArena, start: int, stop: int):
        self.arena = arena
        self.config = arena.config
        self._start = start
        self._stop = stop
        self._freed = False
        arena.register(start, stop)
        self.layers: List[LayerKV] = [
            LayerKV.from_buffers(
                arena._keys[i][start:stop], arena._values[i][start:stop]
            )
            for i in range(arena.config.n_layers)
        ]

    @property
    def row_range(self) -> Tuple[int, int]:
        """This request's ``[start, stop)`` rows in the arena slab."""
        return self._start, self._stop

    @property
    def length(self) -> int:
        return self.layers[0].length

    @property
    def capacity(self) -> int:
        return self._stop - self._start

    def truncate(self, length: int) -> None:
        for layer in self.layers:
            layer.truncate(length)

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        _ROWS_COMPACTED.inc(len(rows) * len(self.layers))
        for layer in self.layers:
            layer.keep_rows(base, rows)

    def snapshot(self) -> int:
        return self.length

    def restore(self, snapshot: int) -> None:
        self.truncate(snapshot)

    def free(self) -> None:
        """Return this request's rows to the arena (idempotent)."""
        if self._freed:
            return
        self.arena.release(self._start, self._stop)
        self._freed = True
        for layer in self.layers:
            layer.length = 0
