"""Per-layer key/value cache with append, rollback and snapshotting.

SpecInfer's tree-parallel decoding (paper section 4.2) appends the keys and
values for *all* tokens of a speculated token tree in DFS order, then — after
verification — rolls the cache back so that only the verified path remains.
This module implements that contract:

* :meth:`KVCache.append` adds keys/values for new positions,
* :meth:`KVCache.truncate` drops everything past a verified length,
* :meth:`KVCache.keep_rows` compacts the cache down to the accepted tree
  path after verification (the "DFS update" in Figure 4).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.model.config import ModelConfig
from repro.sanitizer import tensor_contract


class LayerKV:
    """Key/value tensors for a single transformer layer.

    Backed by pre-allocated buffers of shape ``(capacity, n_heads, d_head)``
    with an explicit length, mirroring how real serving systems slab-allocate
    cache memory.
    """

    def __init__(self, capacity: int, n_heads: int, d_head: int, dtype: str):
        self._keys = np.zeros((capacity, n_heads, d_head), dtype=dtype)
        self._values = np.zeros((capacity, n_heads, d_head), dtype=dtype)
        self.length = 0

    @classmethod
    @tensor_contract(keys={"ndim": 3}, values={"ndim": 3})
    def from_buffers(cls, keys: np.ndarray, values: np.ndarray) -> "LayerKV":
        """A layer cache over externally owned ``(capacity, h, d_head)``
        buffers — the hook :class:`~repro.model.arena.BatchArena` uses to
        make request caches *views* into a shared slab (writes go straight
        to the slab; ``view()`` slices it with no copy)."""
        if keys.shape != values.shape or keys.ndim != 3:
            raise ValueError(
                f"key/value buffers must share a (capacity, heads, d_head) "
                f"shape; got {keys.shape} and {values.shape}"
            )
        layer = cls.__new__(cls)
        layer._keys = keys
        layer._values = values
        layer.length = 0
        return layer

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

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        """Compact the region past ``base`` down to the given relative rows.

        After tree verification only the accepted root-to-leaf path survives;
        ``rows`` are indices (relative to ``base``) of the surviving tokens in
        the order they should occupy positions ``base, base+1, ...``.
        """
        rows = list(rows)
        for r in rows:
            if not 0 <= r < self.length - base:
                raise ValueError(
                    f"row {r} out of range for region of size {self.length - base}"
                )
        idx = np.asarray(rows, dtype=np.intp) + base
        self._keys[base : base + len(rows)] = self._keys[idx]
        self._values[base : base + len(rows)] = self._values[idx]
        self.length = base + len(rows)


class KVCache:
    """A stack of :class:`LayerKV`, one per transformer layer."""

    def __init__(self, config: ModelConfig, capacity: int = 0):
        capacity = capacity or config.max_seq_len
        if capacity > config.max_seq_len:
            raise ValueError(
                f"capacity {capacity} exceeds max_seq_len {config.max_seq_len}"
            )
        self.config = config
        self.layers: List[LayerKV] = [
            LayerKV(capacity, config.n_heads, config.d_head, config.dtype)
            for _ in range(config.n_layers)
        ]

    @property
    def length(self) -> int:
        """Number of cached positions (identical across layers)."""
        return self.layers[0].length

    @property
    def capacity(self) -> int:
        return self.layers[0].capacity

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions."""
        for layer in self.layers:
            layer.truncate(length)

    def keep_rows(self, base: int, rows: Sequence[int]) -> None:
        """Compact every layer; see :meth:`LayerKV.keep_rows`."""
        for layer in self.layers:
            layer.keep_rows(base, rows)

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
