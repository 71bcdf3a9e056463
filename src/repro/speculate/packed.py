"""Packed cross-request draft scoring (level-synchronous tree expansion).

This is the one drafter the decode pipeline runs.  Its reference, the
depth-first loop (:func:`repro.speculate.expansion.expand_token_tree`),
drives an SSM one ``decode`` call — one ``(1, d) @ (d, 3d)`` GEMM per layer
— per tree node per request, with cache snapshot/restore around every
branch; on a serving batch of ``B`` requests that is ``O(B · nodes)`` tiny
GEMMs per tick.  **Level-synchronous packed expansion** builds the same
trees in exactly ``depth`` SSM forwards per group for the whole batch,
greedy or sampling, and runs the SSM nowhere else.

* Every request's frontier at depth ``d`` is scored in **one**
  :meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks` call
  over the shared SSM — the QKV/MLP/LM-head GEMMs batch across all live
  requests and all sibling branches.
* Instead of snapshot/restore replay, all tree rows stay in the SSM cache
  under a per-level topology mask (each frontier node attends to the
  verified prefix plus its own ancestors), and the cache is truncated back
  to the prefix once the tree is built.  Each request's mirror cache is a
  slot of one arena per SSM (:func:`~repro.speculate.speculator.
  mirror_cache`), so every level's forward can score all requests
  slot-major, one attention per layer
  (:data:`~repro.model.transformer.SLOT_BLOCK_CELLS`).
* **The mirror prefill rides level 0.**  ``Speculator.advance`` only queues
  the tokens a tick committed; the next level-0 call scores
  ``[queued…, root]`` under a causal block, and the slot's prefix (and a
  coupled SSM's token context) moves past the queued rows, which the final
  truncation therefore keeps (:meth:`~repro.speculate.speculator.
  Speculator.take_queued`).
* **The bookkeeping runs once per level, not once per request.**  The
  frontier of every request is one set of arrays (owning slot, tree node,
  token, ancestor rows, path index); the level's mask is filled by array
  ops from them; the proposal math is one ``stable_softmax`` and one
  ``top_k_tokens`` / ``inverse_cdf_tokens`` over the level's ``(rows,
  vocab)`` logits; and a level appends every request's new nodes to the
  group's tree arrays in one scatter per field, after dropping duplicate
  sampled draws by (parent, token).  Only sampled
  requests keep proposal rows (only ``verify_stochastic`` reads them).

Stochastic requests are packed like greedy ones because a sampled tree no
longer depends on visiting order.  Per call a request draws one block of
``config.max_tree_tokens()`` uniforms from its own stream — a size fixed by
the expansion config, whatever the tree turns out to be — and a node reads
the entries its level and child-rank path select
(:meth:`~repro.speculate.expansion.ExpansionConfig.level_offsets`); a
duplicate draw merges into the child its first occurrence made, which keeps
that first draw's path.  ``expand_token_tree(stochastic=True)`` indexes the
same block the same way, so a request's tree is a function of (its stream,
the config) and not of traversal order, batch composition or slot order.

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

Every speculator is packed.  A merge-based one (several SSMs) puts one slot
per SSM in the group of that SSM's base, all under its configuration, and
its tree is :func:`~repro.tree.token_tree.merge_trees` of its slots'
trees (Definition 3.2); slots are built request by request, SSM by SSM, so
each SSM draws its uniform block from the request's stream where the
depth-first loop does.  An SSM is a :class:`TransformerLM` or a
:class:`~repro.model.coupled.CoupledSSM` (whose perturbation is a pure
function of the path context and is replayed per node); a
:class:`~repro.speculate.speculator.Speculator` rejects anything else.

Near end-of-context a slot stops at the first level whose frontier rows its
cache cannot hold on top of the rows it has already scored; a slot with no
room for its root mirrors its queued rows and keeps a bare root.  The levels
it builds are the depth-first loop's, and with the unscored last one they
hold more nodes than the cache has rows left — so, when the SSM's context is
no shorter than the LLM's, :class:`~repro.engine.pipeline.TreeFitter`'s BFS
prefix (the tree the verifier sees) equals the depth-first loop's.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro import sanitizer
from repro.model.attention import NEG_INF
from repro.model.coupled import CoupledSSM
from repro.model.layers import stable_softmax
from repro.model.sampling import inverse_cdf_tokens, top_k_tokens
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.speculate.expansion import ExpansionConfig
from repro.tree.token_tree import TokenTree, merge_trees

_PACKED_REQUESTS = REGISTRY.counter(
    "repro.speculate.packed.requests",
    help="requests speculated via packed cross-request expansion")
_PACKED_LEVELS = REGISTRY.counter(
    "repro.speculate.packed.levels",
    help="fused level-expansion passes issued")


def scored_node_bound(config: ExpansionConfig) -> int:
    """Upper bound on nodes packed expansion scores (appends) for ``config``.

    Nodes at depths ``0 .. m-1`` are scored (the deepest level is proposed
    but never expanded): ``1 + k1 + k1·k2 + … + k1⋯k_{m-1}``.
    """
    return 1 + config.max_tree_tokens() - config.num_sequences


class _Slot:
    """One SSM of one request inside a packed group: its SSM cache and its
    draws (its frontier and tree live in the group's arrays).

    Constructing a slot commits the request's SSM to this call: level 0
    will mirror ``queued`` into its cache and, when sampling, the slot draws
    the call's uniform block from the request's stream.
    """

    def __init__(self, state, index: int, ssm, cache,
                 config: ExpansionConfig, queued: List[int]):
        self.state = state
        self.index = index
        self.ssm = ssm
        self.config = config
        self.queued = queued
        if isinstance(ssm, CoupledSSM):
            self.base = ssm.base
            self.cache = cache.base_cache
            cache.context.extend(queued)
            self.entry_context: Optional[List[int]] = list(cache.context)
        else:
            self.base = ssm
            self.cache = cache
            self.entry_context = None
        # The verified prefix once level 0 has appended the queued rows,
        # and the rows past it the tree may score.
        self.prefix = self.cache.length + len(queued)
        self.room = self.cache.capacity - self.prefix
        self.root = state.pending
        self.uniforms = None
        if not state.sampling.greedy:
            self.uniforms = state.rng.random(config.max_tree_tokens())
        self.tree: Optional[TokenTree] = None

    def finish(self, tree: TokenTree, scored: int) -> None:
        """Keep the slot's tree and truncate the SSM cache back to the
        verified prefix."""
        self.tree = tree
        self.cache.truncate(self.prefix)
        self.state.speculator.record_packed_speculation(self.index, scored)


class _Frontier(NamedTuple):
    """The nodes every slot scores at one level, in slot order."""

    #: Owning slot, tree node (also its cache row past the slot's prefix)
    #: and token, one entry per node.
    owner: np.ndarray
    nodes: np.ndarray
    tokens: np.ndarray
    #: Each node's root path, root first: the cache rows it attends to.
    columns: np.ndarray
    #: When sampling, each node's path index into its slot's uniform block.
    paths: Optional[np.ndarray]
    #: How many of the nodes each slot owns.
    counts: List[int]


class PackedSpeculator:
    """Cross-request packed draft scoring: the pipeline's one drafter.

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

    def speculate_batch(self, states: Sequence,
                        plan=None) -> List[TokenTree]:
        """One tree per state.

        Args:
            states: Unfinished decode states that draft this tick (each
                has a speculator).
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan` whose shape replaces every SSM's configuration
                (as ``Speculator.speculate`` applies it).
        """
        drafts: List[List[_Slot]] = []
        groups: Dict[int, List[_Slot]] = {}
        for state in states:
            spec = state.speculator
            queued = spec.take_queued()
            slots = [_Slot(state, index, ssm, cache, config, queued)
                     for index, (ssm, cache, config)
                     in enumerate(spec.packed_expansion_states(plan))]
            for slot in slots:
                groups.setdefault(id(slot.base), []).append(slot)
            drafts.append(slots)
        for slots in groups.values():
            # Level-synchronous expansion of every slot against one base.
            base = slots[0].base
            arena = self._arenas.setdefault(base, ScratchArena())
            levels = _Levels(base, arena, slots)
            levels.run()
            for slot, count, tree in zip(slots, levels.scored,
                                         levels.trees()):
                slot.finish(tree, count)
        _PACKED_REQUESTS.inc(len(states))
        return [slots[0].tree if len(slots) == 1
                else merge_trees(slot.tree for slot in slots)
                for slots in drafts]


class _Levels:
    """One group's level loop: forward inputs, proposal math and tree
    growth, each once per level over every slot.

    The group's trees are rows of one ``(token / parent / depth / proposal
    row, slots, nodes)`` table: a level writes every slot's new nodes with
    one scatter per field, and :meth:`trees` hands each slot views of its
    rows.  When a slot samples, each level's proposal math runs in place in
    the next rows of one ``(scored nodes, vocab)`` block the group's trees
    share, and a node's proposal row is the row its parent was scored in.
    """

    def __init__(self, base: TransformerLM, arena: ScratchArena,
                 slots: List[_Slot]):
        self.base = base
        self.slots = slots
        self.arena = arena
        #: Rows each slot has scored (appended) so far, and its tree size.
        self.scored = [0] * len(slots)
        self.size = [1] * len(slots)
        self.prefix = np.array([slot.prefix for slot in slots],
                               dtype=np.intp)
        self.room = [slot.room for slot in slots]
        # Widths per slot and level (0 past the slot's depth); per level,
        # the widest, whether all scoring slots share it, who expands.
        depth = max(slot.config.depth for slot in slots)
        widths = [slot.config.widths + (0,) * (depth + 1 - slot.config.depth)
                  for slot in slots]
        self.widths = np.array(widths, dtype=np.intp)
        self.level_width, self.uniform, self.expands = [], [], []
        for level in range(depth):
            here = {w[level] for w in widths if w[level]}
            self.level_width.append(max(here))
            self.uniform.append(len(here) == 1)
            self.expands.append([w[level + 1] > 0 for w in widths])
        self.table = np.full(
            (4, len(slots),
             max(slot.config.max_tree_tokens() for slot in slots) + 1), -1)
        self.table[0, :, 0] = [slot.root for slot in slots]
        self.table[2, :, 0] = 0
        # Sampling slots read their level's draws from the group's
        # concatenated uniform blocks, starting at ``draws[b, level]``.
        sampled = [slot.uniforms is not None for slot in slots]
        self.sampled = np.array(sampled)
        self.all_sampled = all(sampled)
        self.uniforms = self.proposals = None
        bound = sum(scored_node_bound(slot.config) for slot in slots)
        if any(sampled):
            self.uniforms = np.concatenate(
                [slot.uniforms for slot in slots if slot.uniforms is not None])
            draws, start = [], 0
            for slot in slots:
                offsets = slot.config.level_offsets()
                draws.append([start + offset for offset in offsets]
                             + [start] * (depth - len(offsets)))
                start += 0 if slot.uniforms is None else len(slot.uniforms)
            self.draws = np.array(draws, dtype=np.intp)
            self.proposals = np.empty((bound, base.config.vocab_size))
        self.coupled = any(slot.entry_context is not None for slot in slots)
        # One mask buffer for every level: level 0 scores the queued rows
        # and the roots, a later level at most every scored node.
        cfg = base.config
        self.mask = arena.take(
            "pk.mask", (max(bound, sum(len(slot.queued) + 1 for slot in slots)),
                        cfg.max_seq_len),
            cfg.dtype, bound=(0, cfg.max_seq_len))

    def run(self) -> None:
        frontier = self._score_roots()
        level = 1
        while frontier is not None:
            frontier = self._fitting(frontier)
            if frontier is None:
                break
            # A level past the roots: frontier node ``j`` attends to the
            # verified prefix, its scored ancestors' rows and itself —
            # never to siblings or to other branches' rows (the per-level
            # topology-aware causal mask).
            prefix = self.prefix[frontier.owner]
            logits = self._forward(frontier.counts, frontier.tokens,
                                   prefix + level, prefix,
                                   prefix[:, None] + frontier.columns)
            frontier = self._grow(frontier, logits, level)
            level += 1

    def trees(self) -> List[TokenTree]:
        """Each slot's tree so far, as views of the group's table."""
        scored = sum(self.scored)
        return [TokenTree.from_arrays(
            *self.table[:, b, :size],
            self.proposals[:scored] if self.sampled[b] else None)
            for b, size in enumerate(self.size)]

    # -- forward inputs ------------------------------------------------------------

    def _forward(self, counts: List[int], tokens: np.ndarray,
                 positions: np.ndarray, allowed: np.ndarray,
                 ancestors: Optional[np.ndarray] = None) -> np.ndarray:
        """One SSM forward over the level's rows, slot ``b`` owning the next
        ``counts[b]``; row ``r`` may attend to cache columns
        ``< allowed[r]`` and, when given, to those in ``ancestors[r]``."""
        _PACKED_LEVELS.inc()
        live = [b for b, count in enumerate(counts) if count]
        caches = [self.slots[b].cache for b in live]
        priors = [cache.length for cache in caches]
        bounds, ends = [0], []
        for b, prior in zip(live, priors):
            bounds.append(bounds[-1] + counts[b])
            ends.append(prior + counts[b])
        mask = self.mask[:bounds[-1], :max(ends)]
        mask.fill(0.0)
        np.copyto(mask, NEG_INF,
                  where=np.arange(max(ends)) >= allowed[:, None])
        if ancestors is not None:
            mask[np.arange(bounds[-1])[:, None], ancestors] = 0.0
        masks = [mask[lo:hi, :end]
                 for lo, hi, end in zip(bounds, bounds[1:], ends)]
        return self.base.forward_masked_blocks(
            tokens, positions, masks, caches, priors=priors,
            scratch=self.arena,
        )

    def _score_roots(self) -> Optional[_Frontier]:
        """Level 0: ``[queued…, root]`` after each slot's cached prefix, a
        causal block; only the roots propose.  A slot with no room for its
        root scores its queued rows alone and keeps a bare root."""
        counts: List[int] = []
        tokens: List[int] = []
        first: List[int] = []
        last: List[int] = []
        for slot in self.slots:
            root = [slot.root] if slot.room > 0 else []
            rows = len(slot.queued) + len(root)
            counts.append(rows)
            tokens += slot.queued + root
            first += [slot.prefix - len(slot.queued) - len(first)] * rows
            if root:
                last.append(len(first) - 1)
        if not tokens:
            return None
        positions = np.array(first, dtype=np.intp) + np.arange(len(first))
        logits = self._forward(counts, np.array(tokens, dtype=np.intp),
                               positions, positions + 1)
        if not last:
            return None
        owner = np.flatnonzero(np.array(self.room) > 0)
        zeros = np.zeros(len(owner), dtype=np.intp)
        roots = _Frontier(owner, zeros, self.table[0, owner, 0],
                          zeros[:, None], zeros,
                          [int(room > 0) for room in self.room])
        return self._grow(roots, logits[last], 0)

    def _fitting(self, frontier: _Frontier) -> Optional[_Frontier]:
        """``frontier`` without the nodes of slots whose cache cannot hold
        them on top of the rows they have scored (such a slot's tree stops
        at this level), or ``None`` when no node is left."""
        over = [b for b, count in enumerate(frontier.counts)
                if count > self.room[b] - self.scored[b]]
        if not over:
            return frontier
        keep = ~np.isin(frontier.owner, over)
        if not keep.any():
            return None
        return _Frontier(
            *(None if field is None else field[keep]
              for field in frontier[:5]),
            [0 if b in over else count
             for b, count in enumerate(frontier.counts)])

    # -- proposals and growth ------------------------------------------------------

    def _grow(self, frontier: _Frontier, logits: np.ndarray,
              level: int) -> Optional[_Frontier]:
        """Record the level's proposals (a row of ``logits`` per frontier
        node), append every slot's new nodes, and return the next frontier
        (those of slots expanding past this level), or ``None``."""
        owner = frontier.owner
        first = sum(self.scored)
        for b, count in enumerate(frontier.counts):
            self.scored[b] += count
        # The level's proposal math, once over all frontier rows, into the
        # trees' memory (``logits`` is arena memory): the proposal block's
        # next rows when sampling.
        if self.proposals is None:
            scaled = logits.astype(np.float64)
        else:
            scaled = self.proposals[first:first + len(owner)]
            scaled[...] = logits
        if self.coupled:
            # Replay the coupled perturbation the sequential loop applies
            # inside decode(); it is a pure function of (seed, token
            # context), so per-node replay is exact.
            for row, (b, path) in enumerate(zip(owner.tolist(),
                                                frontier.columns)):
                slot = self.slots[b]
                if slot.entry_context is not None:
                    scaled[row] = slot.ssm._perturb(
                        logits[row], slot.entry_context
                        + self.table[0, b, path].tolist())
        probs = stable_softmax(scaled, out=scaled)
        # A batch may mix decoding modes and widths: each rule runs once at
        # the widest width any row needs, and a row reads its own leading
        # columns (top-k is a prefix of top-(k+1); unread uniforms are 0).
        width = breadth = self.level_width[level]
        valid = None
        if not self.uniform[level]:
            breadth = self.widths[owner, level]
            valid = np.arange(width) < breadth[:, None]
        chosen = None if self.all_sampled else top_k_tokens(probs, width)
        if self.uniforms is not None:
            read = valid
            if not self.all_sampled:
                sampled = self.sampled[owner][:, None]
                read = sampled if read is None else read & sampled
            picks = ((self.draws[owner, level] + frontier.paths * breadth)
                     [:, None] + np.arange(width))
            uniforms = self.uniforms[picks if read is None
                                     else np.where(read, picks, 0)]
            draws = inverse_cdf_tokens(
                probs, uniforms if read is None
                else np.where(read, uniforms, 0.0))
            chosen = draws if chosen is None else np.where(
                sampled, draws, chosen)
            if width > 1:
                # A duplicate draw merges into its first occurrence: dedup
                # by (parent, token).
                fresh = ~((chosen[:, :, None] == chosen[:, None, :])
                          & np.tri(width, k=-1, dtype=bool)).any(axis=2)
                valid = fresh if valid is None else valid & fresh
        # Every slot's new nodes, numbered after its tree in row, then rank,
        # order (the first draw of a token keeps its path).
        if valid is None and width == 1:
            # One child per row: the new nodes line up with the frontier.
            rows, ranks, tokens = slice(None), 0, chosen[:, 0]
            counts = frontier.counts
        else:
            if valid is None:
                valid = np.ones((len(owner), width), dtype=bool)
            rows, ranks = valid.nonzero()
            tokens = chosen[rows, ranks]
            counts = np.bincount(owner[rows],
                                 minlength=len(self.slots)).tolist()
        owners = owner[rows]
        offsets, seen = [], 0
        for b, count in enumerate(counts):
            offsets.append(self.size[b] - seen)
            seen += count
            self.size[b] += count
        nodes = np.array(offsets)[owners] + np.arange(seen)
        self.table[0, owners, nodes] = tokens
        self.table[1, owners, nodes] = frontier.nodes[rows]
        self.table[2, owners, nodes] = level + 1
        if self.proposals is not None:
            self.table[3, owners, nodes] = np.where(
                self.sampled[owners], first + np.arange(len(owner))[rows], -1)
        if sanitizer.enabled():
            for tree in self.trees():
                sanitizer.guard_tree(tree)
        expands = self.expands[level]
        if not any(expands):
            return None
        if not all(expands):
            keep = np.flatnonzero(self.widths[owners, level + 1] > 0)
            rows = keep if isinstance(rows, slice) else rows[keep]
            owners, nodes, tokens = owners[keep], nodes[keep], tokens[keep]
            ranks = ranks if np.isscalar(ranks) else ranks[keep]
            counts = [count if grows else 0
                      for count, grows in zip(counts, expands)]
        paths = None
        if self.uniforms is not None:
            if not self.uniform[level]:
                breadth = breadth[rows]
            paths = frontier.paths[rows] * breadth + ranks
        return _Frontier(owners, nodes, tokens, np.concatenate(
            [frontier.columns[rows], nodes[:, None]], axis=1), paths, counts)
