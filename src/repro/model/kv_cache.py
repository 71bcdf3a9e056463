"""The KV cache: a row range of a preallocated per-layer slab.

SpecInfer's tree-parallel decoding (paper section 4.2) appends the keys and
values for *all* tokens of a speculated token tree in DFS order, then — after
verification — compacts the cache so that only the verified path remains.
Every cache in this repository does that over rows of a shared slab:

* :class:`BatchArena` owns, per transformer layer, one preallocated
  ``(capacity, n_heads, d_head)`` key slab and value slab;
* :meth:`BatchArena.new_sequence` carves a contiguous *row range* out of the
  slabs and returns a :class:`KVCache` whose per-layer :class:`LayerKV`
  buffers are NumPy views into them.  :meth:`LayerKV.append` writes through
  to the slab, :meth:`LayerKV.view` is a zero-copy slice,
  :func:`compact` moves a batch of caches down to their accepted tree paths
  (the "DFS update" in Figure 4) and :meth:`KVCache.truncate` rolls back;
* :meth:`~repro.model.transformer.TransformerLM.new_cache` is the whole of a
  private arena; a serving batch shares one arena, so the block-sparse fused
  decode path (:meth:`~repro.model.transformer.TransformerLM.
  forward_masked_blocks`) reads each request's keys straight from its rows
  and never materializes a concatenated KV tensor;
* a default-size request occupies one *slot*, rows ``[s·n, (s+1)·n)`` for
  ``n = max_seq_len`` (:attr:`KVCache.slot`), so a batch of them is also one
  ``(slots, n, h, d_head)`` view of each slab: a forward of small blocks
  stores and scores all of them at once (slot-major).

Allocation is first-fit over free row ranges with coalescing on release,
which is plenty for the serving manager's churn (requests allocate full
``max_seq_len`` ranges by default).
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitizer
from repro.model.config import ModelConfig
from repro.obs import REGISTRY
from repro.sanitizer import tensor_contract

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
    help="slab rows post-verification compaction moved, times layers")

#: Every arena alive in the process, so a registry reset can recompute the
#: level gauges from the rows they hold.
_ARENAS: "weakref.WeakSet[BatchArena]" = weakref.WeakSet()


def _restore_levels() -> None:
    """After a registry reset: ``rows_used`` and ``bytes_resident`` are
    the rows live arenas hold, and the high-water mark restarts there."""
    arenas = list(_ARENAS)
    _ROWS_USED.set(sum(arena.used_rows for arena in arenas))
    _BYTES_RESIDENT.set(sum(arena.used_rows * arena.row_bytes
                            for arena in arenas))
    _BYTES_HIGH_WATER.set(_BYTES_RESIDENT.value)


REGISTRY.on_reset(_restore_levels)


class LayerKV:
    """Key/value rows of one transformer layer for one request.

    ``keys`` and ``values`` are ``(capacity, n_heads, d_head)`` views of a
    :class:`BatchArena`'s slabs (writes go straight to the slab; ``view()``
    slices it with no copy); ``length`` counts the live rows.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        if keys.shape != values.shape or keys.ndim != 3:
            raise ValueError(
                f"key/value buffers must share a (capacity, heads, d_head) "
                f"shape; got {keys.shape} and {values.shape}"
            )
        self._keys = keys
        self._values = values
        self.length = 0

    @property
    def capacity(self) -> int:
        return self._keys.shape[0]

    @tensor_contract(keys={"ndim": 3}, values={"ndim": 3})
    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append ``(n, h, d_head)`` keys/values at the current end."""
        n = keys.shape[0]
        if self.length + n > self.capacity:
            raise ValueError(
                f"KV cache overflow: length {self.length} + {n} new tokens "
                f"exceeds capacity {self.capacity}"
            )
        self._keys[self.length : self.length + n] = keys
        self._values[self.length : self.length + n] = values
        self.length += n

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of the live region."""
        return self._keys[: self.length], self._values[: self.length]

    def truncate(self, length: int) -> None:
        """Forget all entries past ``length``."""
        if not 0 <= length <= self.length:
            raise ValueError(
                f"cannot truncate to {length}; current length {self.length}"
            )
        self.length = length


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
        # Ranges currently owned by live KVCaches; the sanitizer checks
        # every new registration against these for overlap.
        self._live: List[Tuple[int, int]] = []
        _ARENAS.add(self)

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

    def slabs(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Layer ``layer``'s whole ``(capacity, h, d_head)`` key and value
        slabs (the slot-major forward stores and reads through these)."""
        return self._keys[layer], self._values[layer]

    def new_sequence(self, capacity: int = 0) -> "KVCache":
        """Carve a row range for one request (first-fit).

        Args:
            capacity: Rows to reserve; defaults to ``config.max_seq_len``
                (one slot, the serving default).
        """
        capacity = capacity or self.config.max_seq_len
        if capacity < 0:
            raise ValueError(f"capacity {capacity} is negative")
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
                return KVCache(self, start, start + capacity)
        raise MemoryError(
            f"KV arena exhausted: no free range of {capacity} rows "
            f"({self.free_rows} rows free, fragmented over "
            f"{len(self._free)} ranges)"
        )

    def register(self, start: int, stop: int) -> None:
        """Record ``[start, stop)`` as owned by a live request cache.

        Called by :class:`KVCache` on construction.  Under
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


class KVCache:
    """One request's KV cache: rows ``[start, stop)`` of a
    :class:`BatchArena`, one :class:`LayerKV` view per layer.

    Built by :meth:`BatchArena.new_sequence`.  The rows go back to the
    arena on :meth:`free` or when the cache is collected.
    """

    def __init__(self, arena: BatchArena, start: int, stop: int):
        self.arena = arena
        self.config = arena.config
        self._start = start
        self._stop = stop
        arena.register(start, stop)
        self._release = weakref.finalize(self, arena.release, start, stop)
        self.layers: List[LayerKV] = [
            LayerKV(keys[start:stop], values[start:stop])
            for keys, values in zip(arena._keys, arena._values)
        ]

    @property
    def row_range(self) -> Tuple[int, int]:
        """This request's ``[start, stop)`` rows in the arena slab."""
        return self._start, self._stop

    @property
    def length(self) -> int:
        """Number of cached positions (identical across layers)."""
        return self.layers[0].length

    @property
    def capacity(self) -> int:
        return self._stop - self._start

    @property
    def slot(self) -> Optional[int]:
        """``s`` when this live cache is exactly slot ``s`` of its arena —
        rows ``[s·n, (s+1)·n)`` for ``n = max_seq_len``, the default
        request size — else ``None``.  The slot-major forward addresses a
        batch by slot."""
        rows = self.config.max_seq_len
        if (not self._release.alive or self._stop - self._start != rows
                or self._start % rows):
            return None
        return self._start // rows

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions."""
        for layer in self.layers:
            layer.truncate(length)

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        """Compact every layer past ``base`` down to the given relative
        rows; see :func:`compact`."""
        compact([self], [base], [rows])

    def snapshot(self) -> int:
        """Return a token describing the current state (just the length)."""
        return self.length

    def restore(self, snapshot: int) -> None:
        """Restore a state captured by :meth:`snapshot`.

        Only valid if nothing before ``snapshot`` positions was compacted
        since — which holds for the speculate/verify loop, where compaction
        only ever touches positions past the verified prefix.
        """
        self.truncate(snapshot)

    def free(self) -> None:
        """Return this request's rows to the arena (idempotent).

        The layer views are detached too: the arena may hand these rows to
        another request, and a stale handle must not write into them (a
        later ``append`` overflows a zero-row buffer, ``keep_rows`` raises).
        """
        if not self._release.alive:
            return
        self._release()
        empty = np.zeros((0, self.config.n_heads, self.config.d_head),
                         dtype=self.config.dtype)
        self.layers = [LayerKV(empty, empty) for _ in self.layers]


def compact(caches: Sequence[KVCache], bases: Sequence[int],
            rows: Sequence[Sequence[int]]) -> None:
    """Compact each cache's region past ``bases[i]`` to its relative rows
    ``rows[i]``, in order: one gather and one scatter per layer slab of
    each arena for the whole batch, of the rows that actually move."""
    moves = {}  # arena id -> (arena, source rows, destination rows)
    for cache, base, keep in zip(caches, bases, rows):
        if not cache._release.alive:
            raise ValueError(
                f"arena rows [{cache._start}, {cache._stop}) were freed")
        region = cache.length - base
        start = cache._start + base
        for place, row in enumerate(map(int, keep)):
            if not 0 <= row < region:
                raise ValueError(
                    f"row {row} out of range for region of size {region}")
            if row != place:
                _, src, dst = moves.setdefault(
                    id(cache.arena), (cache.arena, [], []))
                src.append(start + row)
                dst.append(start + place)
    for arena, src, dst in moves.values():
        _ROWS_COMPACTED.inc(len(dst) * arena.config.n_layers)
        for slabs in (arena._keys, arena._values):
            for slab in slabs:
                slab[dst] = slab[src]
    for cache, base, keep in zip(caches, bases, rows):
        for layer in cache.layers:
            layer.length = base + len(keep)
