"""Batched cross-request tree verification (one fused pass per iteration).

The serving runtime (section 5.1) advances a whole batch per iteration; the
real system verifies *all* requests' token trees in one fused kernel — the
per-iteration latency the cost model charges as a single step.  This module
realizes that at the NumPy level with two interchangeable execution paths:

* **block-sparse** (default): the batch's tree tokens are concatenated into
  one :meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks`
  call — QKV/MLP GEMMs batched across the whole batch, attention computed
  per request block against that request's own cache rows (zero-copy views;
  see :class:`~repro.model.arena.BatchArena`).  The cross-request score
  blocks, which are ``-inf`` by construction, are never computed and the
  dense ``(Σnᵢ, Σkᵢ)`` mask is never materialized: per-step cost is
  ``O(Σ nᵢ·kᵢ)`` instead of ``O((Σnᵢ)·(Σkᵢ))``.
* **dense** (reference): one ``forward_masked`` call under a block-diagonal
  mask over a :class:`_ConcatLayerView` façade that concatenates every
  request's keys/values per layer.  Kept as the equivalence baseline the
  tests compare against — it is the semantics, the block-sparse path is the
  fast implementation.

``verify_batch`` is bit-equivalent to per-request verification on either
path — tested — and exists so batching fidelity is a property of the
implementation, not an assumption of the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model import perf
from repro.model.attention import NEG_INF, MaskScratch
from repro.model.config import ModelConfig
from repro.model.sampling import SamplingConfig
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.tree.masks import linearize, topology_causal_mask
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.greedy import verify_greedy
from repro.verify.naive import verify_naive_sampling
from repro.verify.result import VerificationResult
from repro.verify.stochastic import verify_stochastic


@dataclass
class _BatchItem:
    tree: TokenTree
    cache: object
    lin: object
    prefix_len: int


@dataclass(frozen=True)
class _BatchLayout:
    """Per-step batch geometry, computed once and passed down.

    Re-deriving lengths inside the layer loop costs O(batch) per access
    (and O(batch · layers) per step); everything the fused pass needs is a
    pure function of the batch composition, so it is computed here exactly
    once per iteration.

    Attributes:
        new_counts: Tree tokens per request.
        priors: Cache length per request on entry.
        row_offsets: Query-row start per request in the concatenated token
            axis (plus a final total — ``len == batch + 1``).
        col_offsets: Key-column start per request in the dense combined
            layout (``[prefix rows | new rows]`` per request, batch order).
        n_total: ``Σ new_counts``.
        k_total: ``Σ (priors + new_counts)``.
    """

    new_counts: Tuple[int, ...]
    priors: Tuple[int, ...]
    row_offsets: Tuple[int, ...]
    col_offsets: Tuple[int, ...]
    n_total: int
    k_total: int

    @classmethod
    def from_items(cls, items: Sequence[_BatchItem]) -> "_BatchLayout":
        new_counts = tuple(item.lin.num_tokens for item in items)
        priors = tuple(item.prefix_len for item in items)
        row_offsets = [0]
        col_offsets = [0]
        for count, prior in zip(new_counts, priors):
            row_offsets.append(row_offsets[-1] + count)
            col_offsets.append(col_offsets[-1] + prior + count)
        return cls(
            new_counts=new_counts,
            priors=priors,
            row_offsets=tuple(row_offsets),
            col_offsets=tuple(col_offsets),
            n_total=row_offsets[-1],
            k_total=col_offsets[-1],
        )

    @property
    def block_cells(self) -> int:
        """Score cells inside the per-request diagonal blocks."""
        return sum(
            n * (p + n) for n, p in zip(self.new_counts, self.priors)
        )

    @property
    def cross_cells(self) -> int:
        """Score cells *between* requests — masked to ``-inf`` always."""
        return self.n_total * self.k_total - self.block_cells


class _ConcatLayerView:
    """Presents several requests' caches as one layer to the transformer.

    ``append`` splits the batch's new rows back to the per-request caches;
    ``view`` concatenates every request's (prefix + new) rows in request
    order — the layout the combined mask is built against.  Part of the
    dense reference path; the copies it performs are counted so the
    benchmark can report what the block-sparse path saves.
    """

    def __init__(self, layer_index: int, caches: Sequence,
                 layout: _BatchLayout,
                 arena: Optional[ScratchArena] = None):
        self._layer = layer_index
        self._caches = caches
        self._layout = layout
        self._arena = arena
        self._appended = 0

    @property
    def length(self) -> int:
        return sum(self._layout.priors) + self._appended

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        offset = 0
        for cache, count in zip(self._caches, self._layout.new_counts):
            cache.layers[self._layer].append(
                keys[offset : offset + count],
                values[offset : offset + count],
            )
            offset += count
        if offset != keys.shape[0]:
            raise ValueError(
                f"appended {keys.shape[0]} rows but batch expects {offset}"
            )
        self._appended += offset

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = []
        values = []
        for cache in self._caches:
            k, v = cache.layers[self._layer].view()
            keys.append(k)
            values.append(v)
        total = sum(k.shape[0] for k in keys)
        if self._arena is not None and total:
            # Concatenate into persistent scratch views: the staging *copy*
            # still happens (and is still charged to kv_bytes_copied — it is
            # exactly the cost the block-sparse path removes) but the
            # staging *buffers* are reused across layers and steps, so the
            # dense path no longer also pays an allocation per layer per
            # step.  Trailing dims are bounded exactly so the views are
            # contiguous; successive layers overwrite the same two buffers,
            # which is safe because each layer's attention consumes its
            # concatenated K/V before the next layer's view() call.
            tail = keys[0].shape[1:]
            k_out = self._arena.take("dense.k", (total,) + tail,
                                     keys[0].dtype, bound=(0,) + tail)
            v_out = self._arena.take("dense.v", (total,) + tail,
                                     values[0].dtype, bound=(0,) + tail)
            stacked = (np.concatenate(keys, axis=0, out=k_out),
                       np.concatenate(values, axis=0, out=v_out))
        else:
            stacked = (
                np.concatenate(keys, axis=0),  # lint: allow-alloc scratch reuse disabled; copy perf-counted below
                np.concatenate(values, axis=0),  # lint: allow-alloc scratch reuse disabled; copy perf-counted below
            )
        perf.add_kv_copy(stacked[0].nbytes + stacked[1].nbytes)
        return stacked


class _ConcatCache:
    """Cache façade over a batch of per-request caches (dense path).

    Only the surface ``forward_masked`` touches is provided (``length``,
    ``layers``); compaction happens afterwards on the real caches.
    """

    def __init__(self, config: ModelConfig, caches: Sequence,
                 layout: _BatchLayout,
                 arena: Optional[ScratchArena] = None):
        self._length = sum(layout.priors)
        self.layers = [
            _ConcatLayerView(i, list(caches), layout, arena=arena)
            for i in range(config.n_layers)
        ]

    @property
    def length(self) -> int:
        return self._length


class BatchedTreeVerifier:
    """Verifies many requests' token trees in one fused decoding pass.

    Args:
        model: The LLM.
        sampling: Decoding mode shared by the batch (greedy or stochastic).
        rng: Randomness for stochastic verification.
        use_naive_sampling: Swap MSS for the Table 3 baseline.
        mode: ``"block"`` (default) runs the block-sparse fused path;
            ``"dense"`` runs the reference dense-fused path (one combined
            block-diagonal mask over concatenated caches).  Both produce
            identical :class:`VerificationResult`s.
        reuse_scratch: Reuse one :class:`ScratchArena` of persistent
            token/position/mask/QKV/attention/logits buffers across
            iterations, making the steady-state fused tick allocation-free
            (``repro.engine.tick.allocs == 0``).  ``False`` allocates fresh
            buffers every call — bit-identical results, exercised by the
            scratch on/off equivalence suite.
    """

    MODES = ("block", "dense")

    def __init__(
        self,
        model: TransformerLM,
        sampling: Optional[SamplingConfig] = None,
        rng: Optional[np.random.Generator] = None,
        use_naive_sampling: bool = False,
        mode: str = "block",
        reuse_scratch: bool = True,
    ):
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.model = model
        self.sampling = sampling or SamplingConfig(greedy=True)
        self.rng = rng or np.random.default_rng(0)
        self.use_naive_sampling = use_naive_sampling
        self.mode = mode
        self.reuse_scratch = reuse_scratch
        # One arena backs every persistent per-step buffer: index vectors,
        # per-batch-slot topology masks (block path), the combined
        # block-diagonal mask and concatenated-K/V staging (dense path),
        # and the model's QKV/attention/logits staging.  Reused across
        # iterations so the steady state allocates no tracked buffers.
        self._arena: Optional[ScratchArena] = (
            ScratchArena() if reuse_scratch else None
        )
        self._mask_scratches: List[MaskScratch] = []
        self._dense_scratch = (
            MaskScratch(model.config.dtype, arena=self._arena,
                        tag="dense_mask")
            if reuse_scratch else None
        )

    def verify_batch(
        self,
        trees: Sequence[TokenTree],
        caches: Sequence,
    ) -> List[VerificationResult]:
        """One fused decode over the batch, then per-request verification.

        Args:
            trees: One speculated tree per request.
            caches: The matching per-request KV caches (contiguous, arena
                or paged); each is compacted to its accepted path on return.

        Returns:
            Per-request :class:`VerificationResult`, batch order.
        """
        if len(trees) != len(caches):
            raise ValueError(
                f"{len(trees)} trees but {len(caches)} caches"
            )
        if not trees:
            return []
        items = [
            _BatchItem(
                tree=tree,
                cache=cache,
                lin=linearize(tree),
                prefix_len=cache.length,
            )
            for tree, cache in zip(trees, caches)
        ]
        layout = _BatchLayout.from_items(items)
        if self.mode == "dense":
            logits = self._decode_dense(items, caches, layout)
        else:
            logits = self._decode_blocks(items, caches, layout)

        results: List[VerificationResult] = []
        for i, item in enumerate(items):
            output = TreeDecodeOutput(
                lin=item.lin,
                logits=logits[layout.row_offsets[i] : layout.row_offsets[i + 1]],
                prefix_len=item.prefix_len,
            )
            result = self._verify(output, item.tree)
            accepted_slots = [
                item.lin.slot_of[node] for node in result.accepted_nodes
            ]
            item.cache.keep_rows(item.prefix_len, accepted_slots)
            results.append(result)
        return results

    # -- internals ------------------------------------------------------------------

    def _gather_inputs(self, items: Sequence[_BatchItem],
                       layout: _BatchLayout) -> Tuple[np.ndarray, np.ndarray]:
        """The batch's tokens and depth-based positions, written into
        reused arena views (no per-step concatenation)."""
        if self._arena is not None:
            tokens = self._arena.take("tokens", (layout.n_total,), np.intp)
            positions = self._arena.take("positions", (layout.n_total,),
                                         np.intp)
        else:
            tokens = np.empty(layout.n_total, dtype=np.intp)
            positions = np.empty(layout.n_total, dtype=np.intp)
        for i, item in enumerate(items):
            lo, hi = layout.row_offsets[i], layout.row_offsets[i + 1]
            tokens[lo:hi] = item.lin.tokens
            positions[lo:hi] = item.lin.depths
            positions[lo:hi] += item.prefix_len
        return tokens, positions

    def _slot_mask_out(self, i: int, rows: int,
                       cols: int) -> Optional[np.ndarray]:
        """Slot ``i``'s reused mask view, or ``None`` without scratch."""
        if self._arena is None:
            return None
        while len(self._mask_scratches) <= i:
            # Columns are bounded by the sequence capacity, so the per-slot
            # buffer is allocated at its worst-case width once; rows (tree
            # size) grow pow2 and settle after the first few ticks.
            self._mask_scratches.append(MaskScratch(
                self.model.config.dtype, arena=self._arena,
                tag=f"mask{len(self._mask_scratches)}",
                bound=(0, self.model.config.max_seq_len),
            ))
        return self._mask_scratches[i].take(rows, cols)

    def _decode_blocks(self, items: Sequence[_BatchItem], caches: Sequence,
                       layout: _BatchLayout) -> np.ndarray:
        """Block-sparse fused decode: one pass, per-request attention."""
        dtype = self.model.config.dtype
        tokens, positions = self._gather_inputs(items, layout)
        masks = [
            topology_causal_mask(
                item.lin, item.prefix_len, dtype=dtype,
                out=self._slot_mask_out(
                    i, layout.new_counts[i],
                    layout.priors[i] + layout.new_counts[i],
                ),
            )
            for i, item in enumerate(items)
        ]
        return self.model.forward_masked_blocks(
            tokens, positions, masks, caches, priors=layout.priors,
            scratch=self._arena,
        )

    def _decode_dense(self, items: Sequence[_BatchItem], caches: Sequence,
                      layout: _BatchLayout) -> np.ndarray:
        """Dense-fused reference decode under one block-diagonal mask."""
        tokens, positions, mask = self._combine(items, layout)
        concat = _ConcatCache(self.model.config, caches, layout,
                              arena=self._arena)
        # Every score cell outside the diagonal blocks is guaranteed-masked
        # cross-request work; charge it so regressions are measurable.
        perf.add_cross_request_scores(
            self.model.config.n_heads,
            layout.cross_cells * self.model.config.n_layers,
            self.model.config.d_head,
        )
        return self.model.forward_masked(tokens, positions, mask, concat,
                                         scratch=self._arena)

    def _combine(self, items: Sequence[_BatchItem], layout: _BatchLayout):
        """Concatenated tokens/positions and the block-diagonal mask.

        Key columns are laid out per request as [prefix rows | new rows],
        requests in batch order — matching ``_ConcatLayerView.view``.
        """
        dtype = self.model.config.dtype
        tokens, positions = self._gather_inputs(items, layout)
        if self._dense_scratch is not None:
            mask = self._dense_scratch.take(layout.n_total, layout.k_total)
        else:
            perf.add_mask_alloc(layout.n_total * layout.k_total)
            mask = np.empty((layout.n_total, layout.k_total), dtype=dtype)
        mask[:] = NEG_INF
        for i, item in enumerate(items):
            row = layout.row_offsets[i]
            col = layout.col_offsets[i]
            n = layout.new_counts[i]
            width = layout.priors[i] + n
            topology_causal_mask(
                item.lin, item.prefix_len, dtype=dtype,
                out=mask[row : row + n, col : col + width],
            )
        return tokens, positions, mask

    def _verify(self, output: TreeDecodeOutput,
                tree: TokenTree) -> VerificationResult:
        if self.sampling.greedy:
            return verify_greedy(output, tree)
        if self.use_naive_sampling:
            return verify_naive_sampling(output, tree, self.sampling,
                                         self.rng)
        return verify_stochastic(output, tree, self.sampling, self.rng)
