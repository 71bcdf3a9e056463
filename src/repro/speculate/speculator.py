"""The learning-based speculator façade (paper sections 2-3).

A :class:`Speculator` owns one or more SSMs plus their KV caches and turns
the current generation state into a speculated token tree each iteration:

* one SSM  -> expansion-based construction (top-k tree under ⟨k1…km⟩),
* many SSMs -> merge-based construction: each SSM expands its own tree
  (typically a narrow one) and the trees are merged per Definition 3.2.

The speculator mirrors the verified sequence in every SSM's cache.  The
engine protocol is::

    spec.advance(prompt)                 # verified prefix, pending excluded
    tree = spec.speculate(pending)       # caches restored afterwards
    ... verifier accepts some tokens ...
    spec.advance([pending] + accepted)   # queue them; no SSM runs here

``advance`` only records the tokens — the prompt included: the decode
pipeline's prompt pass queues it, so admitting a request runs no SSM.  They
reach the SSM caches with the next forward pass that would have needed them
anyway: packed expansion (:mod:`repro.speculate.packed`) takes the queue and
scores it in the same level-0 call as the new root, and
:meth:`Speculator.speculate` / :meth:`Speculator.prefill` flush it with one
prefill before doing anything else — so a tick never pays an SSM forward of
its own for mirroring.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.model.scratch import ScratchArena
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.tree.token_tree import TokenTree, merge_trees


class Speculator:
    """Drives SSMs to produce speculated token trees.

    Args:
        ssms: One or more small speculative models (``TransformerLM`` or
            ``CoupledSSM``).  With several SSMs, per-SSM trees are merged.
        config: Expansion configuration applied to each SSM.
        per_ssm_configs: Optional per-SSM override of ``config`` (merge-based
            speculation often gives each boost-tuned SSM a plain sequence).
        temperature: Temperature of the recorded SSM proposal distributions.
    """

    def __init__(
        self,
        ssms: Sequence,
        config: Optional[ExpansionConfig] = None,
        per_ssm_configs: Optional[Sequence[ExpansionConfig]] = None,
        temperature: float = 1.0,
        adaptive: Optional["AdaptiveConfig"] = None,
    ):
        if not ssms:
            raise ValueError("speculator needs at least one SSM")
        self.ssms = list(ssms)
        self.adaptive = adaptive
        self.config = config or ExpansionConfig.paper_default()
        if per_ssm_configs is not None and len(per_ssm_configs) != len(self.ssms):
            raise ValueError(
                f"per_ssm_configs has {len(per_ssm_configs)} entries for "
                f"{len(self.ssms)} SSMs"
            )
        self.per_ssm_configs = (
            list(per_ssm_configs)
            if per_ssm_configs is not None
            else [self.config] * len(self.ssms)
        )
        self.temperature = temperature
        # Depth of the most recent speculation (per-call plans change it
        # tick-to-tick; ``speculation_latency_steps`` reports it).
        self._last_depth: Optional[int] = None
        self._caches = [ssm.new_cache() for ssm in self.ssms]
        # Per-SSM staging arenas for the mirror prefill: without them, every
        # flush allocates a fresh cross mask and forward buffers inside each
        # SSM.
        self._arenas = [ScratchArena() for _ in self.ssms]
        self._prefix_len = 0
        # Verified tokens :meth:`advance` recorded that no SSM cache holds
        # yet (counted in ``_prefix_len``).
        self._queued: List[int] = []
        # Cost accounting for the cluster model: SSM decode steps issued in
        # the most recent speculate() call (all SSMs run in data parallel, so
        # the latency-relevant figure is the max over SSMs).
        self.last_ssm_steps: List[int] = [0] * len(self.ssms)

    # -- cache mirroring -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all mirrored state (new request)."""
        self._caches = [ssm.new_cache() for ssm in self.ssms]
        self._prefix_len = 0
        self._queued = []

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
        the cache :meth:`packed_expansion_state` returned, ahead of the
        root, in its own forward pass."""
        queued, self._queued = self._queued, []
        return queued

    @property
    def prefix_len(self) -> int:
        """Number of verified tokens mirrored into the SSM caches or queued
        to be."""
        return self._prefix_len

    # -- packed (cross-request) expansion seam -----------------------------------------

    def packed_expansion_state(self, plan=None):
        """``(ssm, cache, config)`` when packed expansion may drive this
        speculator, else ``None``.

        Packed draft scoring (:mod:`repro.speculate.packed`) replays the
        expansion of a *single* statically-configured SSM as
        level-synchronous tree-parallel decode; merge-based (multi-SSM) and
        adaptive speculators keep their own loop.  The cache returned does
        not hold the queued tokens yet — the packer owes them a
        :meth:`take_queued`.

        Args:
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan`; its expansion profile replaces the static config
                for this tick (exactly as :meth:`speculate` would apply it,
                so packed and per-session trees stay bit-identical).
        """
        if self.adaptive is not None or len(self.ssms) != 1:
            return None
        config = self._effective_config(self.per_ssm_configs[0], plan)
        self._last_depth = (
            config.depth
            if plan is not None and getattr(plan, "speculative", False)
            else None
        )
        return self.ssms[0], self._caches[0], config

    @staticmethod
    def _effective_config(config: ExpansionConfig, plan) -> ExpansionConfig:
        """The static config, unless a per-tick plan overrides the shape."""
        if plan is None or not getattr(plan, "speculative", False):
            return config
        return ExpansionConfig(tuple(plan.widths))

    def record_packed_speculation(self, scored_nodes: int) -> None:
        """Update cost accounting after packed expansion scored
        ``scored_nodes`` tree nodes.

        Mirrors :meth:`speculate`'s bookkeeping: one SSM decode step per
        internal node (every scored node gets children), so the cluster
        cost model prices a packed tick identically to the per-session
        loop it replaced.
        """
        self.last_ssm_steps[0] = scored_nodes

    # -- speculation ------------------------------------------------------------------

    def speculate(
        self,
        pending_token: int,
        stochastic: bool = False,
        rng: "np.random.Generator" = None,
        plan: Optional["TreePlan"] = None,
    ) -> TokenTree:
        """Produce a speculated token tree rooted at ``pending_token``.

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
        planned = plan is not None and getattr(plan, "speculative", False)
        plan_budget = int(plan.budget) if planned else None
        trees: List[TokenTree] = []
        for ssm_id, (ssm, cache, cfg) in enumerate(
            zip(self.ssms, self._caches, self.per_ssm_configs)
        ):
            if self.adaptive is not None:
                from repro.speculate.adaptive import expand_token_tree_adaptive

                tree = expand_token_tree_adaptive(
                    ssm,
                    pending_token,
                    cache,
                    self.adaptive,
                    ssm_id=ssm_id,
                    temperature=self.temperature,
                    stochastic=stochastic,
                    rng=rng,
                    max_tokens=plan_budget,
                )
            else:
                tree = expand_token_tree(
                    ssm,
                    pending_token,
                    cache,
                    self._effective_config(cfg, plan),
                    ssm_id=ssm_id,
                    temperature=self.temperature,
                    stochastic=stochastic,
                    rng=rng,
                )
            # Internal nodes each cost one SSM decode step.
            self.last_ssm_steps[ssm_id] = sum(
                1 for n in range(len(tree)) if tree.nodes[n].children
            )
            trees.append(tree)
        if planned:
            self._last_depth = (
                min(plan.depth, self.adaptive.max_depth)
                if self.adaptive is not None
                else plan.depth
            )
        else:
            self._last_depth = None
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
        if self.adaptive is not None:
            return self.adaptive.max_depth
        return max(
            (cfg.depth for cfg in self.per_ssm_configs),
            default=0,
        )
