"""Batched cross-request tree verification (at most two fused passes per
iteration).

The serving runtime (section 5.1) advances a whole batch per iteration; the
real system verifies *all* requests' token trees in one fused kernel — the
per-iteration latency the cost model charges as a single step.  This module
is the only tree verifier in the repository.  A pass concatenates the
batch's tree tokens into one
:meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks` call —
QKV/MLP GEMMs batched across the whole batch, attention computed per request
block against that request's own cache rows (zero-copy views; see
:class:`~repro.model.kv_cache.BatchArena`).  The cross-request score blocks,
which are ``-inf`` by construction, are never computed and no dense
``(Σnᵢ, Σkᵢ)`` mask is materialized: per-pass cost is ``O(Σ nᵢ·kᵢ)``.

Verification is lazy at fan-outs.  At most one child of a node can be
accepted, so scoring every subtree below a fan-out wastes all but one of
them.  Pass 1 scores each tree's trunk — the root's single-child chain down
to its first fan-out (:meth:`~repro.tree.token_tree.TokenTree.trunk`), the
whole tree when it is a chain — and walks it.  A walk that accepts a child
``w`` below the fan-out pauses there; pass 2 is one more forward, over only
those requests, that scores ``w``'s subtree as an ordinary tree rooted at
``w`` on the cache already compacted to the accepted path, and the walk
resumes at ``w``.  Drafting is lazy the same way: a tree may arrive with
its fan-out's children as leaves, and before pass 2 ``verify_batch`` asks
its ``resume`` callback for the subtrees below the paused walks' nodes
(:mod:`repro.speculate.packed`).  A node's logits depend only on the prefix and its
ancestors (Definition 4.1), which pass 2 lays out contiguously as
incremental decoding does, so every accepted path and bonus token is the one
a single pass over the whole tree gives.

A pass gathers each part's layout from its tree's arrays
(:func:`~repro.tree.masks.linearize`), takes the greedy argmax once over
its logits, and compacts all its caches in one call
(:func:`~repro.model.kv_cache.compact`, one gather and scatter per slab).

Each tree is verified under its own request's
:class:`~repro.model.sampling.SamplingConfig` and RNG, so a batch may mix
greedy and stochastic requests, and ``verify_batch`` gives each request
exactly the result and cache rows it gets alone — tested.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import sanitizer
from repro.model.attention import MaskScratch
from repro.model.kv_cache import compact
from repro.model.sampling import SamplingConfig
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.tree.masks import LinearizedTree, linearize, topology_causal_mask
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.greedy import verify_greedy
from repro.verify.naive import verify_naive_sampling
from repro.verify.result import VerificationResult
from repro.verify.stochastic import verify_stochastic

# Interned once at import; REGISTRY.reset() zeroes these in place.
_ROWS_SCORED = REGISTRY.counter(
    "repro.verify.fused.tokens_scored",
    help="tree rows the LLM forwarded, summed over both verification passes")
_SECOND_PASSES = REGISTRY.counter(
    "repro.verify.fused.second_passes",
    help="verify_batch calls that ran a second forward for paused walks")


class BatchedTreeVerifier:
    """Verifies many requests' token trees in at most two fused decoding
    passes (see the module docstring).

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
        resume: Optional[Callable[[List[int], List[int]],
                                  List[TokenTree]]] = None,
    ) -> List[VerificationResult]:
        """Lazy fused decode over the batch, then per-request verification.

        Args:
            trees: One speculated tree per request.
            caches: The matching per-request KV caches; each is compacted
                to its accepted path on return.
            samplings: Each request's decoding mode (greedy, MSS or — with
                ``use_naive_sampling`` — naive sampling).
            rngs: Each request's verification randomness (greedy requests
                draw nothing).  One generator may serve several requests;
                it is then consumed pass-major: every pass-1 walk in batch
                order, then the resumed walks in batch order.
            resume: Called before pass 2 with the paused requests' batch
                indices and the node each walk paused at; returns those
                requests' trees with the subtrees below the nodes complete
                (drafted lazily, and fitted to the compacted caches).
                Node indices up to each paused node must not change.
                ``None``: the trees already hold every subtree.

        Returns:
            Per-request :class:`VerificationResult`, batch order.
        """
        if not len(trees) == len(caches) == len(samplings) == len(rngs):
            raise ValueError(
                f"{len(trees)} trees but {len(caches)} caches, "
                f"{len(samplings)} sampling configs and {len(rngs)} rngs"
            )
        results: List[Optional[VerificationResult]] = [None] * len(trees)
        trees = list(trees)
        # Pass 1 scores every trunk; pass 2 the whole subtree below each
        # paused walk, so no walk pauses twice.
        parts = [(i, tree.trunk()) for i, tree in enumerate(trees)]
        while parts:
            for i, _ in parts:
                sanitizer.guard_tree(trees[i])
            lins = [linearize(trees[i], nodes) for i, nodes in parts]
            held = [caches[i] for i, _ in parts]
            priors = [cache.length for cache in held]
            logits = self._decode_blocks(lins, held, priors)
            greedy = logits.argmax(axis=-1)
            _ROWS_SCORED.inc(len(logits))
            paused = []
            kept = []
            lo = 0
            for (i, _), lin, prior in zip(parts, lins, priors):
                hi = lo + lin.num_tokens
                output = TreeDecodeOutput(lin=lin, logits=logits[lo:hi],
                                          prefix_len=prior,
                                          greedy=greedy[lo:hi])
                lo = hi
                result = self._verify(output, trees[i], samplings[i],
                                      rngs[i], results[i])
                kept.append([slot for slot
                             in lin.slot_of[result.accepted_nodes].tolist()
                             if slot >= 0])
                results[i] = result
                if result.paused:
                    paused.append((i, result.accepted_nodes[-1]))
            # Every cache of the pass, down to its accepted rows at once.
            compact(held, priors, kept)
            if paused:
                _SECOND_PASSES.inc()
                if resume is not None:
                    indices = [i for i, _ in paused]
                    for i, tree in zip(indices, resume(
                            indices, [node for _, node in paused])):
                        trees[i] = tree
            parts = [(i, trees[i].dfs_order(node)) for i, node in paused]
        return results

    # -- internals ------------------------------------------------------------------

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

    def _decode_blocks(self, lins: Sequence[LinearizedTree],
                       caches: Sequence, priors: List[int]) -> np.ndarray:
        """Block-sparse fused decode: one pass, per-request attention, the
        inputs concatenated into reused arena views."""
        counts = [lin.num_tokens for lin in lins]
        rows = sum(counts)
        if self._arena is not None:
            tokens = self._arena.take("tokens", (rows,), np.intp)
            positions = self._arena.take("positions", (rows,), np.intp)
        else:
            tokens = np.empty(rows, dtype=np.intp)
            positions = np.empty(rows, dtype=np.intp)
        np.concatenate([lin.tokens for lin in lins], out=tokens)
        np.concatenate([lin.depths for lin in lins], out=positions)
        positions += np.array(priors).repeat(counts)
        dtype = self.model.config.dtype
        masks = [
            topology_causal_mask(
                lin, prior, dtype=dtype,
                out=self._slot_mask_out(i, count, prior + count))
            for i, (lin, prior, count) in enumerate(zip(lins, priors, counts))
        ]
        return self.model.forward_masked_blocks(
            tokens, positions, masks, caches, priors=priors,
            scratch=self._arena,
        )

    def _verify(self, output: TreeDecodeOutput, tree: TokenTree,
                sampling: SamplingConfig, rng: np.random.Generator,
                result: Optional[VerificationResult],
                ) -> VerificationResult:
        if sampling.greedy:
            return verify_greedy(output, tree, result)
        if self.use_naive_sampling:
            return verify_naive_sampling(output, tree, sampling, rng, result)
        return verify_stochastic(output, tree, sampling, rng, result)
