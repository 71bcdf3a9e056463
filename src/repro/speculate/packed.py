"""Packed cross-request draft scoring (level-synchronous tree expansion).

This is the one drafter the decode pipeline runs.  Its reference, the
depth-first loop (:func:`repro.speculate.expansion.expand_token_tree`),
drives an SSM one ``decode`` call — one ``(1, d) @ (d, 3d)`` GEMM per layer
— per tree node per request, with cache snapshot/restore around every
branch; on a serving batch of ``B`` requests that is ``O(B · nodes)`` tiny
GEMMs per tick.  **Level-synchronous packed expansion** builds the same
trees in at most ``depth`` SSM forwards per group for the whole batch,
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
* **Drafting is lazy below a fan-out.**  At most one child of a node can be
  accepted, so each SSM's draft pauses where its tree first fans out: the
  nodes it would score next (its *frontier*: the fan-out's children) stay
  unscored leaves, and the SSM caches keep the rows above them.  After the
  verifier has walked the tree's trunk it names the node each paused walk
  accepted, and the draft resumes on the frontier below that node only
  (:meth:`PackedSpeculator.speculate_batch` with ``below``); a whole tree
  is the same loop with every frontier node resumed.  A resume reads the
  uniforms of its nodes' paths from the block drawn when the draft began
  and leaves the SSM caches where the pause left them, so what it drafts
  below a node does not depend on what else is resumed.

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
cache cannot hold on top of the rows it holds; a slot with no room for its
root mirrors its queued rows and keeps a bare root.  The levels it builds
are the depth-first loop's, and with the unscored last one they hold more
nodes than the cache has rows left — so, when the SSM's context is no
shorter than the LLM's, :class:`~repro.engine.pipeline.TreeFitter`'s BFS
prefix (the tree the verifier sees) equals the depth-first loop's.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
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
    draws (its frontier and tree live in the group's arrays, ``group``'s
    slot ``b``).

    Constructing a slot commits the request's SSM to this draft: level 0
    will mirror ``queued`` into its cache and, when sampling, the slot draws
    the draft's uniform block from the request's stream.
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
        self.group: Optional["_Levels"] = None
        self.b = -1

    def tree(self, first_stage: bool = False) -> TokenTree:
        return self.group.tree(self.b, first_stage)


class _Draft:
    """One request's draft: a slot per SSM, and the tree last handed out."""

    __slots__ = ("slots", "tree")

    def __init__(self, slots: List[_Slot]):
        self.slots = slots
        self.tree: Optional[TokenTree] = None


class _Frontier(NamedTuple):
    """The nodes every slot scores at one level, in slot order."""

    #: Owning slot, tree node and token, one entry per node.
    owner: np.ndarray
    nodes: np.ndarray
    tokens: np.ndarray
    #: Each node's root path, root first (tree nodes).
    columns: np.ndarray
    #: When sampling, each node's path index into its slot's uniform block.
    paths: Optional[np.ndarray]
    #: How many of the nodes each slot owns.
    counts: List[int]


def _owned_by(frontier: _Frontier, slots: List[int]) -> np.ndarray:
    """Per node of ``frontier``, whether one of ``slots`` owns it: a
    per-slot lookup (``np.isin`` costs 15–25 µs at eight slots)."""
    chosen = np.zeros(len(frontier.counts), dtype=bool)
    chosen[slots] = True
    return chosen[frontier.owner]


@lru_cache(maxsize=None)
def _inner_nodes(widths: Tuple[int, ...]) -> Tuple[int, ...]:
    """Per depth, the inner nodes of a full subtree below a node there
    (``widths`` padded with zeros past the configuration's depth)."""
    inner = [0] * len(widths)
    for depth in range(len(widths) - 2, -1, -1):
        inner[depth] = (1 + widths[depth] * inner[depth + 1]
                        if widths[depth] else 0)
    return tuple(inner)


def _take(frontier: _Frontier, keep: np.ndarray) -> _Frontier:
    """The entries of ``frontier`` that ``keep`` marks."""
    owner = frontier.owner[keep]
    return _Frontier(
        owner, frontier.nodes[keep], frontier.tokens[keep],
        frontier.columns[keep],
        None if frontier.paths is None else frontier.paths[keep],
        np.bincount(owner, minlength=len(frontier.counts)).tolist())


def _join(pieces: List[_Frontier]) -> _Frontier:
    """One frontier of the same level's ``pieces``, in slot order."""
    if len(pieces) == 1:
        return pieces[0]
    owner = np.concatenate([piece.owner for piece in pieces])
    order = np.argsort(owner, kind="stable")
    fields = [np.concatenate([piece[f] for piece in pieces])[order]
              for f in range(4)]
    paths = (None if pieces[0].paths is None
             else np.concatenate([piece.paths for piece in pieces])[order])
    return _Frontier(*fields, paths, np.bincount(
        owner, minlength=len(pieces[0].counts)).tolist())


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
        #: Drafts that may still be resumed, by ``id`` of their state.
        self._open: Dict[int, _Draft] = {}

    def speculate_batch(
        self, states: Sequence, plan=None,
        below: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[TokenTree]:
        """One tree per state.

        A state without an open draft starts one: its tree is drafted
        level by level down to where it first fans out, and pauses there
        (see the module docstring).  Each state's draft is then resumed
        below the nodes ``below`` names for it.

        Args:
            states: Unfinished decode states that draft this tick (each
                has a speculator).
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan` whose shape replaces every SSM's configuration
                (as ``Speculator.speculate`` applies it) in the drafts this
                call starts.
            below: Per state, nodes of the tree this drafter last returned
                for it (the nodes paused walks accepted) whose subtrees to
                complete.  The drafts stay open, their SSM caches holding
                the rows above the frontier, until :meth:`close`.
                ``None`` completes every subtree and closes the drafts:
                each tree comes back whole.

        Returns:
            Each state's tree: its first stage and every subtree completed
            so far.
        """
        fresh = [state for state in states if id(state) not in self._open]
        if fresh:
            self._draft(fresh, plan)
            _PACKED_REQUESTS.inc(len(fresh))
        drafts = [self._open[id(state)] for state in states]
        self._resume(drafts, below)
        if below is None:
            for state in states:
                self._close(self._open.pop(id(state)))
        return [draft.tree for draft in drafts]

    def close(self) -> None:
        """End every open draft: each SSM cache goes back to its verified
        prefix, and each SSM's scored nodes are recorded."""
        for draft in self._open.values():
            self._close(draft)
        self._open.clear()

    # -- internals ------------------------------------------------------------------

    def _draft(self, states: Sequence, plan) -> None:
        """Start a draft per state and run every group's levels until each
        request's tree fans out or ends."""
        drafts: List[_Draft] = []
        groups: Dict[int, List[_Slot]] = {}
        for state in states:
            spec = state.speculator
            queued = spec.take_queued()
            slots = [_Slot(state, index, ssm, cache, config, queued)
                     for index, (ssm, cache, config)
                     in enumerate(spec.packed_expansion_states(plan))]
            for slot in slots:
                groups.setdefault(id(slot.base), []).append(slot)
            draft = self._open[id(state)] = _Draft(slots)
            drafts.append(draft)
        for slots in groups.values():
            # Level-synchronous expansion of every slot against one base.
            base = slots[0].base
            _Levels(base, self._arenas.setdefault(base, ScratchArena()),
                    slots).run()
        for draft in drafts:
            draft.tree = (
                draft.slots[0].tree(True) if len(draft.slots) == 1
                else merge_trees(slot.tree(True) for slot in draft.slots))

    def _resume(self, drafts: List[_Draft],
                below: Optional[Sequence[Sequence[int]]]) -> None:
        """Draft the subtrees below the named nodes (every one when
        ``below`` is ``None``) and update the drafts' trees."""
        groups: Dict[int, "_Levels"] = {}
        grown = []
        for i, draft in enumerate(drafts):
            nodes = None if below is None else list(below[i])
            if nodes == []:
                continue
            for slot in draft.slots:
                if nodes is None:
                    slot.group.queue(slot.b)
                for node in nodes or ():
                    at = node if len(draft.slots) == 1 else slot.tree().find(
                        draft.tree.sequence_of(node))
                    if at >= 0:
                        slot.group.queue(slot.b, at,
                                         int(draft.tree.depths[node]))
                groups[id(slot.group)] = slot.group
            grown.append((draft, nodes))
        for group in groups.values():
            group.resume()
        for draft, nodes in grown:
            slots = draft.slots
            if nodes is None:
                draft.tree = (slots[0].tree() if len(slots) == 1 else
                              merge_trees(slot.tree() for slot in slots))
            elif len(slots) == 1 and not slots[0].group.folded[slots[0].b]:
                # The slot's rows past its first stage are the subtrees
                # resumed so far.
                draft.tree = slots[0].tree()
            else:
                # Each slot's subtree below the node, merged in slot order
                # (an eager merge's child order), in place of the node's
                # first-stage descendants.
                for node in nodes:
                    if len(slots) == 1:
                        subtree = slots[0].tree().subtree(node)
                    else:
                        sequence = draft.tree.sequence_of(node)
                        trees = [slot.tree() for slot in slots]
                        subtree = merge_trees(
                            tree.subtree(tree.find(sequence))
                            for tree in trees if tree.find(sequence) >= 0)
                    draft.tree = draft.tree.graft(node, subtree)

    @staticmethod
    def _close(draft: _Draft) -> None:
        for slot in draft.slots:
            slot.group.close(slot.b)


class _Levels:
    """One group's level loop: forward inputs, proposal math and tree
    growth, each once per level over every slot.

    The group's trees are rows of one ``(token / parent / depth / proposal
    row, slots, nodes)`` table: a level writes every slot's new nodes with
    one scatter per field, and :meth:`tree` hands a slot views of its
    rows.  When a slot samples, each level's proposal math runs in place in
    the next rows of one ``(scored nodes, vocab)`` block the group's trees
    share, and a node's proposal row is the row its parent was scored in.

    :meth:`run` scores the first stage; :meth:`pause` sets slots'
    frontiers aside, :meth:`queue` picks what of them a :meth:`resume`
    scores, and :meth:`close` ends a slot.
    """

    def __init__(self, base: TransformerLM, arena: ScratchArena,
                 slots: List[_Slot]):
        self.base = base
        self.slots = slots
        self.arena = arena
        for b, slot in enumerate(slots):
            slot.group, slot.b = self, b
        #: Cache rows each slot holds past its prefix (and held when it
        #: paused), nodes it has scored, and its tree size.
        self.rows = np.zeros(len(slots), dtype=np.intp)
        self.held = np.zeros(len(slots), dtype=np.intp)
        self.work = np.zeros(len(slots), dtype=np.intp)
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
        #: Per slot and level, the scored (inner) nodes of a full subtree
        #: below a node at that depth, no duplicate draws.
        self.inner = np.array([_inner_nodes(w) for w in widths])
        self.level_width, self.uniform, self.expands = [], [], []
        for level in range(depth):
            here = {w[level] for w in widths if w[level]}
            self.level_width.append(max(here))
            self.uniform.append(len(here) == 1)
            self.expands.append([w[level + 1] > 0 for w in widths])
        nodes = max(slot.config.max_tree_tokens() for slot in slots) + 1
        self.table = np.full((4, len(slots), nodes), -1)
        self.table[0, :, 0] = [slot.root for slot in slots]
        self.table[2, :, 0] = 0
        #: Each scored node's cache row past its slot's prefix.
        self.cache_row = np.full((len(slots), nodes), -1, dtype=np.intp)
        self.cache_row[:, 0] = 0
        # Sampling slots read their level's draws from the group's
        # concatenated uniform blocks, starting at ``draws[b, level]``.
        sampled = [slot.uniforms is not None for slot in slots]
        self.sampled = np.array(sampled)
        self.all_sampled = all(sampled)
        self.uniforms = self.proposals = None
        #: The proposal block's next free row.
        self.next_row = 0
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
        #: Paused frontier nodes, by the level that would score them, and
        #: which of them the next resume scores.
        self.paused: Dict[int, _Frontier] = {}
        self.picked: Dict[int, np.ndarray] = {}
        #: Each slot's tree size when it paused (the first stage the
        #: verifier sees), and whether its paused frontier was drafted
        #: anyway, along with a level other slots needed.
        self.first_stage: List[Optional[int]] = [None] * len(slots)
        self.folded = np.zeros(len(slots), dtype=bool)
        self.level = 1
        self.frontier = self._score_roots()

    # -- the level loop ------------------------------------------------------------

    def run(self) -> None:
        """Score level after level until each slot's tree fans out (its
        next level holds two or more nodes) or ends."""
        while self.frontier is not None:
            fanned = [b for b, count in enumerate(self.frontier.counts)
                      if count > 1 and not self.folded[b]]
            if fanned:
                self.pause(fanned)
                self.fold()
            if self.frontier is not None:
                self.frontier = self._score(self.frontier, self.level)
                self.level += 1

    def pause(self, slots: List[int]) -> None:
        """Set ``slots``' running frontier aside: their caches hold their
        rows until a resume scores below them."""
        pausing = _owned_by(self.frontier, slots)
        if pausing.any():
            self.paused[self.level] = _take(self.frontier, pausing)
        for b in slots:
            self.held[b] = self.rows[b]
            self.first_stage[b] = self.size[b]
        self.frontier = (None if pausing.all()
                         else _take(self.frontier, ~pausing))

    def fold(self) -> None:
        """Take the frontiers just paused back into the running level when
        it runs anyway (another request's tree goes on as a chain) and
        their slots' caches hold their whole subtrees: drafting them now
        costs rows, not forwards, and drafts what resuming them would."""
        piece = self.paused.get(self.level)
        if piece is None or self.frontier is None:
            return
        fits = (self.rows + np.array(piece.counts)
                * self.inner[:, self.level]) <= self.room
        folding = fits[piece.owner]
        if folding.any():
            self.frontier = _join([self.frontier, _take(piece, folding)])
            self.folded[piece.owner[folding]] = True
            if folding.all():
                del self.paused[self.level]
            else:
                self.paused[self.level] = _take(piece, ~folding)

    def queue(self, b: int, node: int = 0, depth: int = 0) -> None:
        """Have the next :meth:`resume` score slot ``b``'s paused frontier
        nodes at or below ``node`` (at ``depth``)."""
        for level, piece in self.paused.items():
            inside = (piece.owner == b) & (piece.columns[:, depth] == node)
            picked = self.picked.get(level)
            self.picked[level] = inside if picked is None else picked | inside

    def resume(self) -> None:
        """Score the queued nodes' subtrees to the end of their slots'
        configurations.  A resume starts from the caches as the pause left
        them, whatever an earlier resume scored."""
        queued: Dict[int, _Frontier] = {}
        for level, picked in self.picked.items():
            if not picked.any():
                continue
            piece = self.paused.pop(level)
            queued[level] = _take(piece, picked)
            if not picked.all():
                self.paused[level] = _take(piece, ~picked)
            for b in np.unique(piece.owner[picked]).tolist():
                if self.rows[b] != self.held[b]:
                    self.slots[b].cache.truncate(
                        self.slots[b].prefix + self.held[b])
                    self.rows[b] = self.held[b]
        self.picked = {}
        if not queued:
            return
        level, frontier = min(queued), None
        while frontier is not None or queued:
            joining = queued.pop(level, None)
            if joining is not None:
                frontier = (joining if frontier is None
                            else _join([frontier, joining]))
            frontier = self._score(frontier, level)
            level += 1

    def close(self, b: int) -> None:
        """End slot ``b``: its cache back to the verified prefix, and its
        scored nodes recorded."""
        slot = self.slots[b]
        slot.cache.truncate(slot.prefix)
        slot.state.speculator.record_packed_speculation(slot.index,
                                                        int(self.work[b]))

    def tree(self, b: int, first_stage: bool = False) -> TokenTree:
        """Slot ``b``'s tree so far, or down to where it paused, as views
        of the group's table (its first stage numbers first)."""
        size = self.size[b]
        if first_stage and self.first_stage[b] is not None:
            size = self.first_stage[b]
        # Every tree of the group shares the whole proposal block (rows
        # past ``next_row`` are unused), so grafting one into another
        # copies no proposals.
        return TokenTree.from_arrays(
            *self.table[:, b, :size],
            self.proposals if self.sampled[b] else None)

    # -- forward inputs ------------------------------------------------------------

    def _score(self, frontier: Optional[_Frontier],
               level: int) -> Optional[_Frontier]:
        """Score ``frontier`` (a level past the roots) and return the next
        one.  Frontier node ``j`` attends to the verified prefix, its
        scored ancestors' rows and itself — never to siblings or to other
        branches' rows (the per-level topology-aware causal mask)."""
        if frontier is None:
            return None
        frontier = self._fitting(frontier)
        if frontier is None:
            return None
        owner = frontier.owner
        rows = self.rows[owner]
        if max(frontier.counts) > 1:
            # Each slot's nodes go to its next rows, in frontier order.
            first = np.cumsum([0] + frontier.counts[:-1])
            rows += np.arange(len(owner)) - first[owner]
        self.cache_row[owner, frontier.nodes] = rows
        prefix = self.prefix[owner]
        logits = self._forward(
            frontier.counts, frontier.tokens, prefix + level, prefix,
            prefix[:, None] + self.cache_row[owner[:, None], frontier.columns])
        return self._grow(frontier, logits, level)

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
        them on top of the rows it holds (such a slot's tree stops at this
        level), or ``None`` when no node is left."""
        over = [b for b, count in enumerate(frontier.counts)
                if count > self.room[b] - self.rows[b]]
        if not over:
            return frontier
        keep = ~_owned_by(frontier, over)
        return _take(frontier, keep) if keep.any() else None

    # -- proposals and growth ------------------------------------------------------

    def _grow(self, frontier: _Frontier, logits: np.ndarray,
              level: int) -> Optional[_Frontier]:
        """Record the level's proposals (a row of ``logits`` per frontier
        node), append every slot's new nodes, and return the next frontier
        (those of slots expanding past this level), or ``None``."""
        owner = frontier.owner
        first = self.next_row
        self.next_row += len(owner)
        self.rows += frontier.counts
        self.work += frontier.counts
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
            for b in range(len(self.slots)):
                sanitizer.guard_tree(self.tree(b))
        expands = self.expands[level]
        if not any(expands):
            return None
        if not all(expands):
            keep = np.flatnonzero(self.widths[owners, level + 1] > 0)
            rows = keep if isinstance(rows, slice) else rows[keep]
            owners, nodes, tokens = owners[keep], nodes[keep], tokens[keep]
            if not len(keep):
                return None
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
