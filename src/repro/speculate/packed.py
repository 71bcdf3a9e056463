"""Packed cross-request draft scoring (level-synchronous tree expansion).

The per-session speculation loop (:func:`repro.speculate.expansion.
expand_token_tree`) drives its SSM depth-first: one ``decode`` call — one
``(1, d) @ (d, 3d)`` GEMM per layer — per tree node per request, with cache
snapshot/restore around every branch, after one more SSM forward per request
to mirror the tokens the previous tick committed.  On a serving batch of
``B`` requests that is ``O(B · nodes)`` tiny GEMMs per tick.

This module replaces that loop with **level-synchronous packed expansion**:
a tick issues exactly ``depth`` SSM forwards for the whole batch, greedy or
sampling, and none anywhere else.

* Every request's frontier at depth ``d`` is scored in **one**
  :meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks` call
  over the shared SSM — the QKV/MLP/LM-head GEMMs batch across all live
  requests and all sibling branches.
* Instead of snapshot/restore replay, all tree rows stay in the SSM cache
  under a per-level topology mask (each frontier node attends to the
  verified prefix plus its own ancestors), and the cache is truncated back
  to the prefix once the tree is built.
* **The mirror prefill rides level 0.**  ``Speculator.advance`` only queues
  the tokens a tick committed; the next level-0 call scores
  ``[queued…, root]`` under a causal block, and the slot's prefix (and a
  coupled SSM's token context) moves past the queued rows, which the final
  truncation therefore keeps.  Whoever reaches the SSM cache first flushes
  the queue: here :meth:`~repro.speculate.speculator.Speculator.take_queued`,
  on the per-session path ``Speculator.speculate`` (one prefill, as before).
* **Proposal math runs once per level**: one temperature divide, one
  ``stable_softmax``, one ``top_k_tokens`` / ``inverse_cdf_tokens`` over the
  level's ``(rows, vocab)`` float64 logits, and masks filled from per-slot
  arrays of ancestor columns that grow by one column per level.

Stochastic requests are packed like greedy ones because a sampled tree no
longer depends on visiting order.  Per call a request draws one block of
``config.max_tree_tokens()`` uniforms from its own stream — a size fixed by
the expansion config, whatever the tree turns out to be — and a node reads
the entries its level and child-rank path select
(:meth:`~repro.speculate.expansion.ExpansionConfig.level_offsets`); a
duplicate draw merges into the child its first occurrence made, which keeps
that first draw's path.  ``expand_token_tree(stochastic=True)`` indexes the
same block the same way, so a request's tree is a function of (its stream,
the config) and not of traversal order, batch composition, slot order, or
whether it fell back this tick.

Equivalence rests on the tree-attention property the repo already tests
(Definition 4.1): scoring a node under the topology-aware causal mask
computes what sequentially decoding its root-to-node path computes, with
total GEMM FLOPs unchanged (the packing is over the ``m`` axis, which
:func:`repro.model.perf.add_gemm` is linear in).  Tree tokens, shape and
child order match the depth-first loop exactly, and recorded proposal
distributions to the last few ulps — BLAS runs a one-row product through a
different kernel (GEMV) than a many-row one, which is the only arithmetic
the two paths do not share.  Node *numbering* differs (BFS insertion
order), which no consumer observes: verification runs over the structural
DFS linearization.

Scope — everything else falls back to the per-session loop, counted by
``repro.speculate.packed.fallbacks`` with one
``repro.speculate.packed.fallback`` trace event naming the cause:

* ``multi_ssm`` / ``adaptive``: merge-based and adaptive speculators keep
  their own loop (one static config on one SSM is what a level is);
* ``model_type``: the SSM is neither a :class:`TransformerLM` nor a
  :class:`~repro.model.coupled.CoupledSSM` (whose perturbation is a pure
  function of the path context and is replayed per node);
* ``capacity``: the SSM cache cannot hold the queued tokens plus the whole
  scored frontier at once (``prefix + queued + scored-node bound >
  capacity``); near end-of-context the depth-first loop's per-branch
  capacity check is the right tool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from repro.model.attention import NEG_INF, MaskScratch, cross_mask
from repro.model.coupled import CoupledSSM
from repro.model.layers import stable_softmax
from repro.model.sampling import inverse_cdf_tokens, top_k_tokens
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY, TRACER
from repro.speculate.expansion import ExpansionConfig
from repro.tree.token_tree import TokenTree

_PACKED_REQUESTS = REGISTRY.counter(
    "repro.speculate.packed.requests",
    help="requests speculated via packed cross-request expansion")
_PACKED_LEVELS = REGISTRY.counter(
    "repro.speculate.packed.levels",
    help="fused level-expansion passes issued")
_PACKED_FALLBACKS = REGISTRY.counter(
    "repro.speculate.packed.fallbacks",
    help="requests that fell back to the per-session expansion loop")


def scored_node_bound(config: ExpansionConfig) -> int:
    """Upper bound on nodes packed expansion scores (appends) for ``config``.

    Nodes at depths ``0 .. m-1`` are scored (the deepest level is proposed
    but never expanded): ``1 + k1 + k1·k2 + … + k1⋯k_{m-1}``.
    """
    total = 1
    frontier = 1
    for width in config.widths[:-1]:
        frontier *= width
        total += frontier
    return total


class _Slot:
    """Per-request expansion state inside one packed group.

    The frontier — the nodes scored at the current level — is held as
    parallel arrays, one entry per node: its tree index, its token, the
    tree-region cache columns it attends to (ancestors, then itself) and,
    when sampling, its path index into the request's uniform block.

    Constructing a slot commits the request to the packed path for this
    call: it takes the speculator's queued tokens (level 0 will mirror
    them) and, when sampling, draws the call's uniform block from the
    request's stream.
    """

    def __init__(self, state, ssm, cache, config: ExpansionConfig):
        spec = state.speculator
        self.state = state
        self.ssm = ssm
        self.config = config
        self.temperature = max(spec.temperature, 1e-8)
        self.queued = spec.take_queued()
        if isinstance(ssm, CoupledSSM):
            self.base_cache = cache.base_cache
            cache.context.extend(self.queued)
            self.entry_context: Optional[List[int]] = list(cache.context)
        else:
            self.base_cache = cache
            self.entry_context = None
        # The verified prefix once level 0 has appended the queued rows.
        self.prefix = self.base_cache.length + len(self.queued)
        self.tree = TokenTree(state.pending)
        self.scored = 0
        self.nodes: List[int] = [0]
        self.tokens: List[int] = [state.pending]
        self.columns = np.full((1, 1), self.prefix, dtype=np.intp)
        self.uniforms = None
        if not state.sampling.greedy:
            self.uniforms = state.rng.random(config.max_tree_tokens())
            self.offsets = config.level_offsets()
            self.paths = np.zeros(1, dtype=np.intp)

    def live_at(self, level: int) -> bool:
        return bool(self.nodes) and level < self.config.depth

    def rows_at(self, level: int) -> int:
        """Rows this slot contributes to the level's forward pass."""
        return len(self.nodes) + (len(self.queued) if level == 0 else 0)

    def fill(self, level: int, tokens: np.ndarray, positions: np.ndarray,
             mask: np.ndarray) -> None:
        """Write this slot's block of the level's forward inputs."""
        if level == 0:
            # ``[queued…, root]`` after the cached prefix: a causal block.
            prior = self.base_cache.length
            tokens[:-1] = self.queued
            tokens[-1] = self.tokens[0]
            positions[:] = np.arange(prior, prior + len(tokens))
            cross_mask(len(tokens), prior + len(tokens), prior,
                       dtype=mask.dtype, out=mask)
            return
        # Frontier node j attends to the verified prefix, its scored
        # ancestors' rows, and itself — never to siblings or to other
        # branches' rows (the per-level topology-aware causal mask).
        tokens[:] = self.tokens
        positions[:] = self.prefix + level
        mask[:, : self.prefix] = 0.0
        mask[:, self.prefix:] = NEG_INF
        mask[np.arange(len(self.nodes))[:, None], self.columns] = 0.0

    def context_for(self, node: int) -> List[int]:
        """Token context the coupled perturbation is keyed by at ``node``."""
        path = self.tree.path_to(node)
        return self.entry_context + [self.tree.nodes[n].token for n in path]

    def level_uniforms(self, level: int, out: np.ndarray) -> None:
        """This level's draws, one row of ``width`` uniforms per node."""
        width = self.config.widths[level]
        first = self.offsets[level] + self.paths * width
        out[:, :width] = self.uniforms[first[:, None] + np.arange(width)]

    def grow(self, level: int, probs: np.ndarray,
             candidates: np.ndarray) -> None:
        """Record the level's proposals and make its candidates the next
        frontier (``probs`` / ``candidates``: one row per frontier node)."""
        tree = self.tree
        width = self.config.widths[level]
        expandable = level + 1 < self.config.depth
        nodes: List[int] = []
        tokens: List[int] = []
        parents: List[int] = []
        ranks: List[int] = []
        drawn = candidates[:, :width].tolist()
        for j, node in enumerate(self.nodes):
            tree.set_proposal(node, 0, probs[j])
            for rank, token in enumerate(drawn[j]):
                known = len(tree)
                child = tree.add_child(node, token, ssm_id=0)
                if expandable and len(tree) > known:
                    # (a duplicate draw merges into its first occurrence)
                    nodes.append(child)
                    tokens.append(token)
                    parents.append(j)
                    ranks.append(rank)
        self.scored += len(self.nodes)
        # Row of the next frontier's node i in the cache: the rows scored so
        # far, then i.
        columns = np.empty((len(nodes), level + 2), dtype=np.intp)
        columns[:, :-1] = self.columns[parents]
        columns[:, -1] = self.prefix + self.scored + np.arange(len(nodes))
        if self.uniforms is not None:
            self.paths = self.paths[parents] * width + ranks
        self.nodes, self.tokens, self.columns = nodes, tokens, columns

    def finish(self) -> None:
        """Truncate the SSM cache back to the verified prefix."""
        self.base_cache.truncate(self.prefix)
        self.state.speculator.record_packed_speculation(self.scored)


class PackedSpeculator:
    """Cross-request packed draft scoring with per-request fallback.

    One instance lives on the :class:`~repro.engine.pipeline.DecodePipeline`
    and persists its scratch arenas across ticks, so the steady-state
    speculate phase allocates no tracked buffers (masks and index vectors
    come from the same grow-once :class:`ScratchArena` discipline as the
    verify phase).
    """

    def __init__(self):
        self._arenas: "WeakKeyDictionary[TransformerLM, ScratchArena]" = (
            WeakKeyDictionary()
        )
        self._mask_scratches: (
            "WeakKeyDictionary[TransformerLM, List[MaskScratch]]"
        ) = WeakKeyDictionary()

    # -- eligibility -----------------------------------------------------------------

    def _slot_for(self, state, plan=None) -> Union[
            str, Tuple[TransformerLM, _Slot]]:
        """``(base model, slot)`` when ``state`` is packed-eligible, else
        the fallback cause."""
        spec = state.speculator
        packed = spec.packed_expansion_state(plan)
        if packed is None:
            return "adaptive" if spec.adaptive is not None else "multi_ssm"
        ssm, cache, config = packed
        if isinstance(ssm, CoupledSSM):
            base = ssm.base
        elif isinstance(ssm, TransformerLM):
            base = ssm
        else:
            return "model_type"
        if (spec.prefix_len + scored_node_bound(config)
                > cache.capacity):
            return "capacity"
        return base, _Slot(state, ssm, cache, config)

    # -- the packed loop -------------------------------------------------------------

    def speculate_batch(self, states: Sequence, fallback,
                        plan=None) -> List[TokenTree]:
        """One tree per state; ineligible states run ``fallback(state)``.

        Args:
            states: Unfinished decode states that draft this tick (each
                has a speculator).
            fallback: ``state -> TokenTree`` — the per-session path.
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan` applied to every packed slot (the fallback path
                applies the same plan inside ``Speculator.speculate``, so
                both paths build identical trees).
        """
        trees: List[Optional[TokenTree]] = [None] * len(states)
        groups: Dict[int, Tuple[TransformerLM, List[_Slot]]] = {}
        for i, state in enumerate(states):
            eligible = self._slot_for(state, plan)
            if isinstance(eligible, str):
                _PACKED_FALLBACKS.inc()
                TRACER.event("repro.speculate.packed.fallback",
                             cause=eligible)
                trees[i] = fallback(state)
                continue
            base, slot = eligible
            trees[i] = slot.tree
            groups.setdefault(id(base), (base, []))[1].append(slot)
        for base, slots in groups.values():
            self._expand_group(base, slots)
            _PACKED_REQUESTS.inc(len(slots))
        return trees

    def _expand_group(self, base: TransformerLM,
                      slots: List[_Slot]) -> None:
        """Level-synchronous expansion of every slot against ``base``."""
        arena = self._arenas.get(base)
        if arena is None:
            arena = ScratchArena()
            self._arenas[base] = arena
            self._mask_scratches[base] = []
        scratches = self._mask_scratches[base]
        level = 0
        while True:
            live = [slot for slot in slots if slot.live_at(level)]
            if not live:
                break
            self._score_level(base, arena, scratches, live, level)
            level += 1
        for slot in slots:
            slot.finish()

    def _score_level(self, base: TransformerLM, arena: ScratchArena,
                     scratches: List[MaskScratch], live: List[_Slot],
                     level: int) -> None:
        """Score every live slot's frontier in one fused pass, then expand."""
        _PACKED_LEVELS.inc()
        offsets = [0]
        for slot in live:
            offsets.append(offsets[-1] + slot.rows_at(level))
        tokens = arena.take("pk.tokens", (offsets[-1],), np.intp)
        positions = arena.take("pk.positions", (offsets[-1],), np.intp)
        while len(scratches) < len(live):
            scratches.append(MaskScratch(
                base.config.dtype, arena=arena,
                tag=f"pk.mask{len(scratches)}",
                bound=(0, base.config.max_seq_len),
            ))
        masks = []
        priors = []
        for b, slot in enumerate(live):
            lo, hi = offsets[b], offsets[b + 1]
            prior = slot.base_cache.length
            mask = scratches[b].take(hi - lo, prior + hi - lo)
            slot.fill(level, tokens[lo:hi], positions[lo:hi], mask)
            masks.append(mask)
            priors.append(prior)
        logits = base.forward_masked_blocks(
            tokens, positions, masks, [slot.base_cache for slot in live],
            priors=priors, scratch=arena,
        )
        if level == 0:
            # Only the roots propose; the queued rows are now mirrored.
            logits = logits[np.asarray(offsets[1:]) - 1]
            offsets = list(range(len(live) + 1))
        # The level's proposal math, once over all frontier rows.  The copy
        # is the trees' own: ``logits`` is arena memory the next level
        # overwrites, and each row outlives the tick's speculate phase.
        scaled = np.array(logits, dtype=np.float64)
        for b, slot in enumerate(live):
            if slot.entry_context is not None:
                # Replay the coupled perturbation the sequential loop
                # applies inside decode(); it is a pure function of
                # (seed, token context), so per-node replay is exact.
                for j, node in enumerate(slot.nodes):
                    row = offsets[b] + j
                    scaled[row] = slot.ssm._perturb(logits[row],
                                                    slot.context_for(node))
        counts = np.diff(offsets)
        scaled /= np.repeat([slot.temperature for slot in live],
                            counts)[:, None]
        probs = stable_softmax(scaled, out=scaled)
        # A batch may mix decoding modes and widths: each rule runs once at
        # the widest width any of its slots needs, and a slot reads its own
        # leading columns (top-k is a prefix of top-(k+1); unread uniforms
        # stay zero).
        width = max(slot.config.widths[level] for slot in live)
        ranked = sampled = None
        if any(slot.uniforms is None for slot in live):
            ranked = top_k_tokens(probs, width)
        if any(slot.uniforms is not None for slot in live):
            uniforms = np.zeros((len(probs), width))
            for b, slot in enumerate(live):
                if slot.uniforms is not None:
                    slot.level_uniforms(
                        level, uniforms[offsets[b] : offsets[b + 1]])
            sampled = inverse_cdf_tokens(probs, uniforms)
        for b, slot in enumerate(live):
            lo, hi = offsets[b], offsets[b + 1]
            chosen = ranked if slot.uniforms is None else sampled
            slot.grow(level, probs[lo:hi], chosen[lo:hi])
