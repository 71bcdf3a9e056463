"""Batched cross-request tree verification (one fused pass per iteration).

The serving runtime (section 5.1) advances a whole batch per iteration; the
real system verifies *all* requests' token trees in one fused kernel — the
per-iteration latency the cost model charges as a single step.  This module
is that pass, and the only tree verifier in the repository: the batch's tree
tokens are concatenated into one
:meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks` call —
QKV/MLP GEMMs batched across the whole batch, attention computed per request
block against that request's own cache rows (zero-copy views; see
:class:`~repro.model.arena.BatchArena`).  The cross-request score blocks,
which are ``-inf`` by construction, are never computed and no dense
``(Σnᵢ, Σkᵢ)`` mask is materialized: per-step cost is ``O(Σ nᵢ·kᵢ)``.

Each tree is then verified under its own request's
:class:`~repro.model.sampling.SamplingConfig` and RNG, so a batch may mix
greedy and stochastic requests.  A batch of one scores the same tokens,
positions and mask that :func:`~repro.verify.decode.tree_parallel_decode`
does, and ``verify_batch`` gives each request exactly the result and cache
rows it gets alone — tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.attention import MaskScratch
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
        n_total: ``Σ new_counts``.
    """

    new_counts: Tuple[int, ...]
    priors: Tuple[int, ...]
    row_offsets: Tuple[int, ...]
    n_total: int

    @classmethod
    def from_items(cls, items: Sequence[_BatchItem]) -> "_BatchLayout":
        new_counts = tuple(item.lin.num_tokens for item in items)
        row_offsets = [0]
        for count in new_counts:
            row_offsets.append(row_offsets[-1] + count)
        return cls(
            new_counts=new_counts,
            priors=tuple(item.prefix_len for item in items),
            row_offsets=tuple(row_offsets),
            n_total=row_offsets[-1],
        )


class BatchedTreeVerifier:
    """Verifies many requests' token trees in one fused decoding pass.

    Args:
        model: The LLM.
        use_naive_sampling: Swap MSS for the Table 3 baseline.
        reuse_scratch: Reuse one :class:`ScratchArena` of persistent
            token/position/mask/QKV/attention/logits buffers across
            iterations, making the steady-state fused tick allocation-free
            (``repro.engine.tick.allocs == 0``).  ``False`` allocates fresh
            buffers every call — bit-identical results, exercised by the
            scratch on/off equivalence suite.
    """

    def __init__(
        self,
        model: TransformerLM,
        use_naive_sampling: bool = False,
        reuse_scratch: bool = True,
    ):
        self.model = model
        self.use_naive_sampling = use_naive_sampling
        self.reuse_scratch = reuse_scratch
        # One arena backs every persistent per-step buffer: index vectors,
        # per-batch-slot topology masks and the model's QKV/attention/logits
        # staging.  Reused across iterations so the steady state allocates
        # no tracked buffers.
        self._arena: Optional[ScratchArena] = (
            ScratchArena() if reuse_scratch else None
        )
        self._mask_scratches: List[MaskScratch] = []

    def verify_batch(
        self,
        trees: Sequence[TokenTree],
        caches: Sequence,
        samplings: Sequence[SamplingConfig],
        rngs: Sequence[np.random.Generator],
    ) -> List[VerificationResult]:
        """One fused decode over the batch, then per-request verification.

        Args:
            trees: One speculated tree per request.
            caches: The matching per-request KV caches (contiguous, arena
                or paged); each is compacted to its accepted path on return.
            samplings: Each request's decoding mode (greedy, MSS or — with
                ``use_naive_sampling`` — naive sampling).
            rngs: Each request's verification randomness, consumed in batch
                order (one generator may serve several requests; greedy
                requests draw nothing).

        Returns:
            Per-request :class:`VerificationResult`, batch order.
        """
        if not len(trees) == len(caches) == len(samplings) == len(rngs):
            raise ValueError(
                f"{len(trees)} trees but {len(caches)} caches, "
                f"{len(samplings)} sampling configs and {len(rngs)} rngs"
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
        logits = self._decode_blocks(items, caches, layout)

        results: List[VerificationResult] = []
        for i, (item, sampling, rng) in enumerate(zip(items, samplings, rngs)):
            output = TreeDecodeOutput(
                lin=item.lin,
                logits=logits[layout.row_offsets[i] : layout.row_offsets[i + 1]],
                prefix_len=item.prefix_len,
            )
            result = self._verify(output, item.tree, sampling, rng)
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

    def _verify(self, output: TreeDecodeOutput, tree: TokenTree,
                sampling: SamplingConfig,
                rng: np.random.Generator) -> VerificationResult:
        if sampling.greedy:
            return verify_greedy(output, tree)
        if self.use_naive_sampling:
            return verify_naive_sampling(output, tree, sampling, rng)
        return verify_stochastic(output, tree, sampling, rng)
