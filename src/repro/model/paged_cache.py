"""Paged KV-cache pool (vLLM-style block allocation).

The paper's comparison systems (vLLM in particular) manage KV memory as
fixed-size blocks assigned to sequences through block tables, which removes
per-request contiguous reservations and lets many requests share one pool.
This module provides that substrate:

* :class:`PagedKVPool` owns the backing storage — per layer, a
  ``(num_blocks, block_size, heads, d_head)`` tensor pair plus a free list;
* :class:`PagedSequenceCache` is one sequence's view: a block table plus a
  length, exposing the *same* interface as :class:`~repro.model.kv_cache.KVCache`
  (``layers[i].append/view``, ``truncate``, ``keep_rows``, snapshots), so
  every engine, verifier and speculator in this repository runs unmodified
  on paged storage — including tree-parallel decoding with path compaction.

Reads gather blocks into a contiguous array (the NumPy analogue of paged
attention's block-indexed loads); every layer view's gather is charged to
``repro.model.kv_bytes_copied``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.model import perf
from repro.model.config import ModelConfig
from repro.sanitizer import tensor_contract


class PagedKVPool:
    """Shared block pool for the KV caches of many sequences.

    Args:
        config: Model architecture (defines per-token KV shape).
        num_blocks: Blocks in the pool (per layer).
        block_size: Tokens per block.
    """

    def __init__(self, config: ModelConfig, num_blocks: int,
                 block_size: int = 16):
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.config = config
        self.num_blocks = num_blocks
        self.block_size = block_size
        shape = (num_blocks, block_size, config.n_heads, config.d_head)
        self._keys = [
            np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)
        ]
        self._values = [
            np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)
        ]
        self._free: List[int] = list(range(num_blocks))[::-1]

    # -- allocation ---------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - len(self._free)

    def allocate_block(self) -> int:
        """Take one block from the free list."""
        if not self._free:
            raise MemoryError("paged KV pool exhausted")
        return self._free.pop()

    def release_blocks(self, blocks: Sequence[int]) -> None:
        """Return blocks to the free list."""
        for block in blocks:
            if not 0 <= block < self.num_blocks:
                raise ValueError(f"invalid block id {block}")
            if block in self._free:
                raise ValueError(f"double free of block {block}")
            self._free.append(block)

    def new_sequence(self, capacity: int = 0) -> "PagedSequenceCache":
        """A fresh sequence cache over this pool."""
        return PagedSequenceCache(self, capacity=capacity)

    def utilization(self) -> float:
        """Fraction of pool blocks currently allocated."""
        return self.used_blocks / self.num_blocks


class _PagedLayerView:
    """Adapter giving one (sequence, layer) the ``LayerKV`` interface."""

    def __init__(self, cache: "PagedSequenceCache", layer: int):
        self._cache = cache
        self._layer = layer

    @property
    def length(self) -> int:
        return self._cache.length

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @tensor_contract(keys={"ndim": 3}, values={"ndim": 3})
    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._cache._append_layer(self._layer, keys, values)

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._cache._view_layer(self._layer)

    def truncate(self, length: int) -> None:
        # Length bookkeeping is sequence-wide; KVCache.truncate calls each
        # layer, so only the last layer's call commits the new length.
        self._cache._truncate_layer(self._layer, length)

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        self._cache._keep_rows_layer(self._layer, base, rows)


class PagedSequenceCache:
    """One sequence's KV cache backed by pool blocks.

    Drop-in replacement for :class:`~repro.model.kv_cache.KVCache`: exposes
    ``layers``, ``length``, ``capacity``, ``truncate``, ``keep_rows``,
    ``snapshot``/``restore`` and ``free`` (which returns the blocks).
    """

    def __init__(self, pool: PagedKVPool, capacity: int = 0):
        self.pool = pool
        self._capacity = capacity or pool.config.max_seq_len
        if self._capacity > pool.config.max_seq_len:
            raise ValueError(
                f"capacity {self._capacity} exceeds max_seq_len "
                f"{pool.config.max_seq_len}"
            )
        self._block_table: List[int] = []
        self._length = 0
        self._lengths_per_layer = [0] * pool.config.n_layers
        self.layers = [
            _PagedLayerView(self, i) for i in range(pool.config.n_layers)
        ]

    # -- KVCache-compatible surface ---------------------------------------------------

    @property
    def length(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def block_table(self) -> Tuple[int, ...]:
        return tuple(self._block_table)

    def snapshot(self) -> int:
        return self._length

    def restore(self, snapshot: int) -> None:
        self.truncate(snapshot)

    def truncate(self, length: int) -> None:
        if not 0 <= length <= self._length:
            raise ValueError(
                f"cannot truncate to {length}; current length {self._length}"
            )
        self._set_length(length)

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        for layer in range(self.pool.config.n_layers):
            self._keep_rows_layer(layer, base, rows)

    def free(self) -> None:
        """Release every block back to the pool (request retirement)."""
        self.pool.release_blocks(self._block_table)
        self._block_table = []
        self._length = 0
        self._lengths_per_layer = [0] * self.pool.config.n_layers

    # -- internals ------------------------------------------------------------------

    def _slot(self, position: int) -> Tuple[int, int]:
        """(block id, offset) for an absolute token position."""
        block_idx, offset = divmod(position, self.pool.block_size)
        return self._block_table[block_idx], offset

    def _ensure_blocks(self, length: int) -> None:
        needed = -(-length // self.pool.block_size)  # ceil division
        while len(self._block_table) < needed:
            self._block_table.append(self.pool.allocate_block())

    def _set_length(self, length: int) -> None:
        """Commit a new sequence length, releasing now-unused blocks."""
        self._length = length
        self._lengths_per_layer = [length] * self.pool.config.n_layers
        needed = -(-length // self.pool.block_size)
        if len(self._block_table) > needed:
            self.pool.release_blocks(self._block_table[needed:])
            del self._block_table[needed:]

    def _append_layer(self, layer: int, keys: np.ndarray,
                      values: np.ndarray) -> None:
        n = keys.shape[0]
        start = self._lengths_per_layer[layer]
        if start + n > self._capacity:
            raise ValueError(
                f"paged cache overflow: length {start} + {n} exceeds "
                f"capacity {self._capacity}"
            )
        self._ensure_blocks(start + n)
        for i in range(n):
            block, offset = self._slot(start + i)
            self.pool._keys[layer][block, offset] = keys[i]
            self.pool._values[layer][block, offset] = values[i]
        self._lengths_per_layer[layer] = start + n
        # Sequence length follows the furthest layer (all layers advance in
        # lock-step during a forward pass; the last layer commits).
        self._length = max(self._length, min(self._lengths_per_layer))

    def _gather(self, layer: int, positions: np.ndarray,
                source: List[np.ndarray]) -> np.ndarray:
        blocks = np.array(
            [self._slot(int(p))[0] for p in positions], dtype=np.intp
        )
        offsets = np.array(
            [self._slot(int(p))[1] for p in positions], dtype=np.intp
        )
        return source[layer][blocks, offsets]

    def _view_layer(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        n = self._lengths_per_layer[layer]
        positions = np.arange(n)
        keys = self._gather(layer, positions, self.pool._keys)
        values = self._gather(layer, positions, self.pool._values)
        perf.add_kv_copy(keys.nbytes + values.nbytes)
        return keys, values

    def _truncate_layer(self, layer: int, length: int) -> None:
        if not 0 <= length <= self._lengths_per_layer[layer]:
            raise ValueError(
                f"cannot truncate layer {layer} to {length}"
            )
        self._lengths_per_layer[layer] = length
        if all(l == length for l in self._lengths_per_layer):
            self._set_length(length)

    def _keep_rows_layer(self, layer: int, base: int,
                         rows: Sequence[int]) -> None:
        rows = list(rows)
        region = self._lengths_per_layer[layer] - base
        for r in rows:
            if not 0 <= r < region:
                raise ValueError(
                    f"row {r} out of range for region of size {region}"
                )
        src_positions = np.array([base + r for r in rows], dtype=np.intp)
        kept_k = self._gather(layer, src_positions, self.pool._keys)
        kept_v = self._gather(layer, src_positions, self.pool._values)
        for i in range(len(rows)):
            block, offset = self._slot(base + i)
            self.pool._keys[layer][block, offset] = kept_k[i]
            self.pool._values[layer][block, offset] = kept_v[i]
        self._truncate_layer(layer, base + len(rows))
