"""The learning-based speculator façade (paper sections 2-3).

A :class:`Speculator` owns one or more SSMs plus their KV caches and turns
the current generation state into a speculated token tree each iteration:

* one SSM  -> expansion-based construction (top-k tree under ⟨k1…km⟩),
* many SSMs -> merge-based construction: each SSM expands its own tree
  (typically a narrow one) and the trees are merged per Definition 3.2.

The speculator mirrors the verified sequence in every SSM's cache.  The
decode pipeline drafts every speculator's tree through the packed level loop
(:mod:`repro.speculate.packed`), which reads the SSMs, caches and configs
from :meth:`Speculator.packed_expansion_states`; the protocol is::

    spec.advance(prompt)                 # verified prefix, pending excluded
    tree = packed.speculate_batch(...)   # drafted to the first fan-out
    ... pass 1 walks the trunk; packed.speculate_batch(..., below=...)
    ... drafts below each paused walk's node; pass 2; packed.close()
    ... restores the caches
    spec.advance([pending] + accepted)   # queue them; no SSM runs here

``advance`` only records the tokens — the prompt included: the decode
pipeline's prompt pass queues it, so admitting a request runs no SSM.  They
reach the SSM caches with the next forward pass that would have needed them
anyway: the packed drafter takes the queue and scores it in the same
level-0 call as the new root — so a tick never pays an SSM forward of its
own for mirroring.  :meth:`Speculator.speculate` is the depth-first
reference the packed trees are tested against (``repro tree`` draws with it
too); it and :meth:`Speculator.prefill` flush the queue with one prefill.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

import numpy as np

from repro.model.kv_cache import BatchArena, KVCache
from repro.model.coupled import CoupledCache, CoupledSSM
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.tree.token_tree import TokenTree, merge_trees

#: Per transformer, the arena every speculator's mirror cache of it is a
#: slot of, replaced by one twice the size when full.
_MIRROR_ARENAS: "weakref.WeakKeyDictionary[TransformerLM, BatchArena]" = (
    weakref.WeakKeyDictionary()
)


def _mirror_slot(model: TransformerLM) -> KVCache:
    arena = _MIRROR_ARENAS.get(model)
    if arena is None or arena.free_rows < model.config.max_seq_len:
        slots = 8 if arena is None else 2 * arena.capacity // (
            model.config.max_seq_len)
        arena = _MIRROR_ARENAS[model] = BatchArena(model.config,
                                                   max_requests=slots)
    return arena.new_sequence()


def mirror_cache(ssm):
    """A fresh cache mirroring the verified prefix in ``ssm``.

    A transformer (or a coupled SSM's base) mirrors into a default-size slot
    of an arena its every speculator shares, so the packed drafter
    (:mod:`repro.speculate.packed`) appends a batch's tree rows in place
    and scores them slot-major.
    """
    if isinstance(ssm, CoupledSSM):
        return CoupledCache(base_cache=_mirror_slot(ssm.base))
    return _mirror_slot(ssm)


class Speculator:
    """Drives SSMs to produce speculated token trees.

    Args:
        ssms: One or more small speculative models (``TransformerLM`` or
            ``CoupledSSM``).  With several SSMs, per-SSM trees are merged.
        config: Expansion configuration applied to each SSM.

    Proposals are drawn from each SSM's softmax at temperature 1.

    Raises:
        TypeError: An SSM is neither a ``TransformerLM`` nor a
            ``CoupledSSM`` (the packed drafter scores only those).
    """

    def __init__(
        self,
        ssms: Sequence,
        config: Optional[ExpansionConfig] = None,
    ):
        if not ssms:
            raise ValueError("speculator needs at least one SSM")
        for ssm in ssms:
            if not isinstance(ssm, (TransformerLM, CoupledSSM)):
                raise TypeError(
                    f"an SSM must be a TransformerLM or a CoupledSSM, "
                    f"got {type(ssm).__name__}")
        self.ssms = list(ssms)
        self.config = config or ExpansionConfig.paper_default()
        # Depth of the most recent speculation (per-call plans change it
        # tick-to-tick; ``speculation_latency_steps`` reports it).
        self._last_depth: Optional[int] = None
        self._mirror()
        # Per-SSM staging arenas for the mirror prefill: without them, every
        # flush allocates a fresh cross mask and forward buffers inside each
        # SSM.
        self._arenas = [ScratchArena() for _ in self.ssms]
        self._prefix_len = 0
        # Verified tokens :meth:`advance` recorded that no SSM cache holds
        # yet (counted in ``_prefix_len``).
        self._queued: List[int] = []
        # Cost accounting for the cluster model: SSM decode steps issued in
        # the most recent speculation, per SSM (all SSMs run in data
        # parallel, so the latency-relevant figure is the max over SSMs).
        self.last_ssm_steps: List[int] = [0] * len(self.ssms)

    # -- cache mirroring -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all mirrored state (new request)."""
        self.release()
        self._mirror()
        self._prefix_len = 0
        self._queued = []

    def _mirror(self) -> None:
        """Fresh mirror caches, whose arena slots go back on
        :meth:`release` or when the caches are collected."""
        self._caches = [mirror_cache(ssm) for ssm in self.ssms]

    def release(self) -> None:
        """Give the mirror caches' arena slots back (the request is done;
        a later :meth:`reset` takes fresh ones)."""
        for cache in self._caches:
            cache.free()

    def prefill(self, tokens: Sequence[int]) -> None:
        """Mirror the verified prompt prefix into every SSM cache, behind
        whatever :meth:`advance` queued — one SSM prefill for both."""
        tokens = list(tokens)
        arr = np.asarray(self._queued + tokens, dtype=np.intp)
        self._prefix_len += len(tokens)
        self._queued = []
        if arr.size == 0:
            return
        for ssm, cache, arena in zip(self.ssms, self._caches, self._arenas):
            ssm.prefill(arr, cache, scratch=arena)

    def advance(self, tokens: Sequence[int]) -> None:
        """Extend the verified prefix by newly accepted tokens.

        Runs no SSM: the tokens are queued, and mirrored by whichever comes
        first of the next packed level-0 call (:meth:`take_queued`), the
        next :meth:`speculate`, and the next :meth:`prefill`.
        """
        self._queued.extend(int(token) for token in tokens)
        self._prefix_len += len(tokens)

    def take_queued(self) -> List[int]:
        """Hand over the queued tokens to a caller that will append them to
        every cache :meth:`packed_expansion_states` returned, ahead of the
        root, in its own forward pass."""
        queued, self._queued = self._queued, []
        return queued

    @property
    def prefix_len(self) -> int:
        """Number of verified tokens mirrored into the SSM caches or queued
        to be."""
        return self._prefix_len

    # -- packed (cross-request) expansion seam -----------------------------------------

    def packed_expansion_states(self, plan=None):
        """``(ssm, cache, config)`` per SSM, for the packed drafter
        (:mod:`repro.speculate.packed`), which expands each SSM level by
        level and merges the trees.  The caches returned do not hold the
        queued tokens yet — the packer owes them a :meth:`take_queued`.

        Args:
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan`; its expansion profile replaces the static config
                for this tick (exactly as :meth:`speculate` applies it, so
                packed and depth-first trees stay identical).
        """
        planned = plan is not None and getattr(plan, "speculative", False)
        self._last_depth = plan.depth if planned else None
        config = self.expansion_config(plan)
        return [(ssm, cache, config)
                for ssm, cache in zip(self.ssms, self._caches)]

    def expansion_config(self, plan=None) -> ExpansionConfig:
        """The configuration every SSM expands under: ``plan``'s shape when
        it speculates, else the static one."""
        if plan is not None and getattr(plan, "speculative", False):
            return ExpansionConfig(tuple(plan.widths))
        return self.config

    def record_packed_speculation(self, ssm_index: int,
                                  scored_nodes: int) -> None:
        """Update cost accounting after packed expansion scored
        ``scored_nodes`` tree nodes of SSM ``ssm_index``: one SSM decode
        step per internal node, as :meth:`speculate` counts them, but only
        for the nodes the lazy draft scored (its first stage and the
        subtrees below paused walks)."""
        self.last_ssm_steps[ssm_index] = scored_nodes

    # -- speculation ------------------------------------------------------------------

    def speculate(
        self,
        pending_token: int,
        stochastic: bool = False,
        rng: "np.random.Generator" = None,
        plan: Optional["TreePlan"] = None,
    ) -> TokenTree:
        """Produce a speculated token tree rooted at ``pending_token``,
        depth-first (:func:`expand_token_tree` per SSM, then
        :func:`merge_trees`).

        The decode pipeline never calls this: it drafts through
        :class:`~repro.speculate.packed.PackedSpeculator`, which builds the
        same trees level by level.  This is the reference the packed trees
        are tested against, and what ``repro tree`` and the merge-vs-expand
        ablation draw with.

        Tokens :meth:`advance` queued are mirrored first; beyond that the
        SSM caches are left unchanged (snapshot/restore inside expansion).

        Args:
            pending_token: The tree root (last generated token).
            stochastic: Sample proposals from the SSM distributions instead
                of taking top-k — required for distribution-preserving
                stochastic decoding (see :func:`expand_token_tree`).
            rng: Randomness for stochastic proposals.
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan`.  The plan's shape/budget overrides the
                construction-time configuration *for this call only* —
                the planner re-sizes speculation tick-to-tick without
                rebuilding the speculator or disturbing its caches.
        """
        self.prefill(())
        trees: List[TokenTree] = []
        for ssm_id, (ssm, cache, config) in enumerate(
                self.packed_expansion_states(plan)):
            tree = expand_token_tree(
                ssm,
                pending_token,
                cache,
                config,
                stochastic=stochastic,
                rng=rng,
            )
            # Internal nodes each cost one SSM decode step.
            self.last_ssm_steps[ssm_id] = len(tree) - len(tree.leaves())
            trees.append(tree)
        if len(trees) == 1:
            return trees[0]
        return merge_trees(trees)

    def speculation_latency_steps(self) -> int:
        """Sequential SSM decode steps of the last speculation.

        SSMs run data-parallel on different GPUs (section 5.1), so latency is
        governed by the *deepest* single-SSM expansion, which for a static
        config is its depth; the width-k branching at one level is served by
        batching candidate branches, and the dominant term is tree depth.
        When a per-tick plan drove the last speculation, its depth governs.
        """
        if self._last_depth is not None:
            return self._last_depth
        return self.config.depth
