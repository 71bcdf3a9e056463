"""The unified decode pipeline: one prompt pass, then one
speculate→fit→verify→commit→advance loop.

The paper's Algorithm 2 is *one* loop, and this module is its single home.
Every execution surface — the offline engines
(:class:`~repro.engine.incremental.IncrementalEngine`,
:class:`~repro.engine.tree_spec.SpecInferEngine`) and the continuous-batching
request manager (:mod:`repro.serving.manager`) — is a thin adapter over the
pieces defined here:

* :class:`DecodeState` — the canonical per-request state machine (KV cache,
  pending token, RNG, emitted tokens, step traces, termination flags).
  Building one runs no model.
* :class:`TreeFitter` — the only home of tree→cache capacity math and BFS
  pruning (:func:`prune_to_size`).
* The two verification backends: :class:`FusedBackend` (one
  :class:`~repro.engine.batched.BatchedTreeVerifier` call per batch, each
  tree under its request's own sampling) and :class:`IncrementalBackend`
  (Algorithm 1 as the degenerate one-node tree).
* :class:`DecodePipeline` — the prompt pass
  (:meth:`DecodePipeline.prefill`: the full prompts of a batch of states in
  one LLM forward, which emits each request's first token) and the
  per-iteration loop itself (:meth:`DecodePipeline.tick`), whose
  :meth:`~DecodePipeline.commit` is the only construction site of
  :class:`~repro.engine.generation.StepTrace` records.

Because batched serving and offline generation share this one loop and one
tree verifier, the bit-equivalence suites verify the architecture rather
than hand-synchronized copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batched import BatchedTreeVerifier
from repro.faults import FaultKind
from repro.engine.generation import (
    GenerationConfig,
    GenerationResult,
    StepTrace,
)
from repro.model.sampling import SamplingConfig, sample_token
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.obs import DEFAULT_COUNT_BUCKETS, REGISTRY, TRACER
from repro.speculate.packed import PackedSpeculator
from repro.tree.token_tree import TokenTree
from repro.verify.result import VerificationResult

# Interned once at import; REGISTRY.reset() zeroes these in place.
_TICKS = REGISTRY.counter(
    "repro.engine.ticks", help="pipeline iterations executed")
_RETIRED = REGISTRY.counter(
    "repro.engine.retired", help="states retired by the tree fitter")
_TREES_PRUNED = REGISTRY.counter(
    "repro.engine.trees_pruned", help="speculated trees shrunk to fit")
_SPECULATED_NODES = REGISTRY.counter(
    "repro.engine.speculated_nodes",
    help="drafted tree nodes before fitting: each first stage, and each "
         "subtree completed below a paused walk")
_TOKENS_EMITTED = REGISTRY.counter(
    "repro.engine.tokens_emitted", help="verified tokens appended")
_PREFILL_ROWS = REGISTRY.counter(
    "repro.engine.prefill_rows", help="prompt rows scored by prompt passes")
_TREE_SIZE = REGISTRY.histogram(
    "repro.engine.tree_size", buckets=DEFAULT_COUNT_BUCKETS,
    help="fitted tree sizes per verification step")
_TOKENS_PER_STEP = REGISTRY.histogram(
    "repro.engine.tokens_per_step", buckets=DEFAULT_COUNT_BUCKETS,
    help="tokens accepted per committed step, before the token budget "
         "or EOS truncates them (Table 2)")
_FALLBACK_ENTRIES = REGISTRY.counter(
    "repro.engine.fallback_entries",
    help="faults that switched the pipeline into incremental fallback")
_FALLBACK_TICKS = REGISTRY.counter(
    "repro.engine.fallback_ticks",
    help="pipeline ticks served in incremental fallback mode")
_TICK_ALLOCS = REGISTRY.counter(
    "repro.engine.tick.allocs",
    help="tracked hot-path buffer allocations during pipeline ticks "
         "(per-tick delta of repro.model.hot_alloc_events; zero at steady "
         "state once scratch arenas are warm)")
_HOT_ALLOCS = REGISTRY.counter("repro.model.hot_alloc_events")
_INCREMENTAL_ROWS = REGISTRY.counter(
    "repro.verify.incremental.tokens_scored",
    help="root rows the LLM forwarded for incremental verification")

#: Clean (degraded) ticks served after a speculation or verification fault
#: before speculation resumes.
FALLBACK_COOLDOWN = 3


def _observe_verify(kind: str, trees: Sequence[TokenTree]) -> None:
    """Charge one backend verification call to ``repro.verify.<kind>.*``.

    Rows are counted where they are forwarded: ``fused.tokens_scored`` and
    ``fused.second_passes`` by :class:`BatchedTreeVerifier`,
    ``incremental.tokens_scored`` (one row a tree) by
    :class:`IncrementalBackend`.
    """
    REGISTRY.counter(f"repro.verify.{kind}.passes").inc()
    REGISTRY.counter(f"repro.verify.{kind}.requests").inc(len(trees))


# -- tree fitting ----------------------------------------------------------------


def prune_to_size(tree: TokenTree, limit: int,
                  max_depth: Optional[int] = None) -> TokenTree:
    """Keep up to ``limit`` nodes in BFS order, optionally bounding depth
    (root always survives).  Survivors keep their relative order and their
    proposal rows."""
    # Within a depth, DFS order is BFS order (both sort by child ranks).
    order = np.array(tree.dfs_order(), dtype=np.intp)
    order = order[np.argsort(tree.depths[order], kind="stable")]
    if max_depth is not None:
        order = order[(tree.depths[order] <= max_depth) | (order == 0)]
    keep = np.zeros(len(tree), dtype=bool)
    keep[order[:max(limit, 1)]] = True
    # BFS order is ancestor-closed, so every survivor's parent survives.
    return tree.select(keep)


class TreeFitter:
    """Fits speculated trees into a request's remaining KV capacity.

    Verification appends at most ``len(tree)`` rows before compaction, and
    a node at depth ``d`` occupies position ``prefix + d``, so trees near
    end-of-context must shrink in both node count and depth; when not even
    the root fits, the request cannot decode further and :meth:`fit`
    returns ``None`` (the pipeline retires the request).
    """

    def __init__(self, max_seq_len: int):
        self.max_seq_len = max_seq_len

    def fit(self, tree: TokenTree, cache) -> Optional[TokenTree]:
        """``tree`` pruned to fit ``cache``, or ``None`` when nothing fits."""
        available = cache.capacity - cache.length
        max_depth = self.max_seq_len - 1 - cache.length
        if available < 1 or max_depth < 0:
            return None
        if len(tree) <= available and tree.max_depth() <= max_depth:
            return tree
        return prune_to_size(tree, available, max_depth=max_depth)


@lru_cache(maxsize=None)
def _nominal(widths: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Per depth, the size and the leaves of the full subtree (no
    duplicate draws) below a node at that depth."""
    sizes, leaves = [1] * (len(widths) + 1), [1] * (len(widths) + 1)
    for depth in range(len(widths) - 1, -1, -1):
        sizes[depth] = 1 + widths[depth] * sizes[depth + 1]
        leaves[depth] = widths[depth] * leaves[depth + 1]
    return tuple(sizes), tuple(leaves)


def _eager_shape(tree: TokenTree, widths: Optional[Sequence[int]],
                 available: int, max_depth: int) -> Tuple[int, int, int, int]:
    """Size, depth, leaves and root-to-leaf tokens of ``tree`` with a full
    subtree under every leaf above ``widths``' depth, fitted to
    ``available`` rows and ``max_depth`` (see :meth:`DecodePipeline.
    commit`)."""
    inner = set(tree.parents.tolist())
    depths = [d for node, d in enumerate(tree.depths.tolist())
              if node not in inner]
    if widths is not None and min(depths) < len(widths):
        full = len(widths)
        sizes, ends = _nominal(tuple(widths))
        short = [d for d in depths if d < full]
        size = len(tree) + sum(sizes[d] - 1 for d in short)
        if size <= available and full <= max_depth:
            deep = [d for d in depths if d >= full]
            grown = sum(ends[d] for d in short)
            return (size, full, len(deep) + grown,
                    sum(deep) + len(deep) + grown * (full + 1))
        # Near the end of context: build it, and prune it as the fitter
        # would have pruned the eager tree.
        for node in tree.leaves().tolist():
            if tree.depths[node] < full:
                tree = tree.graft(node, _full_tree(
                    widths[int(tree.depths[node]):]))
        tree = prune_to_size(tree, available, max_depth=max_depth)
        leaves = tree.leaves()
        depths = tree.depths[leaves].tolist()
    return (len(tree), tree.max_depth(), len(depths),
            sum(depths) + len(depths))


def _full_tree(widths: Sequence[int]) -> TokenTree:
    """A tree of ``widths``' full shape (its tokens are child ranks)."""
    tree, frontier = TokenTree(0), [0]
    for width in widths:
        frontier = [tree.add_child(node, rank)
                    for node in frontier for rank in range(width)]
    return tree


# -- per-request decode state ------------------------------------------------------


class DecodeState:
    """Canonical per-request decode state machine.

    Owns everything one request needs between pipeline ticks: the LLM KV
    cache, the (optional) speculator with its SSM caches, the pending
    token, the RNG, the emitted tokens, and the per-step traces.

    Constructing a state runs no model.  The prompt pass
    (:meth:`DecodePipeline.prefill`) fills the cache, emits the first token
    and makes it ``pending``; until then ``pending`` is ``None``.

    Args:
        model: The LLM.
        prompt: Input token ids (non-empty, at most ``max_seq_len``, each
            in ``[0, vocab_size)``).
        config: Generation bounds / decoding mode.
        speculator: Optional :class:`~repro.speculate.speculator.Speculator`.
            ``None`` selects incremental decoding (Algorithm 1) — the
            pipeline speculates the degenerate one-node tree.
        cache_factory: Optional KV-cache allocation override (e.g.
            ``arena.new_sequence`` for a slot of a shared
            :class:`~repro.model.kv_cache.BatchArena`).
    """

    def __init__(
        self,
        model: TransformerLM,
        prompt: Sequence[int],
        config: Optional[GenerationConfig] = None,
        speculator=None,
        cache_factory: Optional[Callable] = None,
    ):
        config = config or GenerationConfig()
        prompt_arr = np.asarray(list(prompt), dtype=np.intp)
        if prompt_arr.size == 0:
            raise ValueError("prompt must be non-empty")
        if prompt_arr.size > model.config.max_seq_len:
            raise ValueError(
                f"prompt length {prompt_arr.size} exceeds max_seq_len "
                f"{model.config.max_seq_len}"
            )
        vocab_size = model.config.vocab_size
        if prompt_arr.min() < 0 or prompt_arr.max() >= vocab_size:
            raise ValueError(
                f"prompt token ids must be in [0, {vocab_size})"
            )
        self.model = model
        self.prompt = prompt_arr
        self.config = config
        self.speculator = speculator
        self.rng = np.random.default_rng(config.seed)
        self.cache = (cache_factory or model.new_cache)()
        self.tokens: List[int] = []
        self.steps: List[StepTrace] = []
        self.finished_by_eos = False
        self.retired = False
        if speculator is not None:
            speculator.reset()
        #: The last emitted token, not yet in the cache: the root of the
        #: next tree.  ``None`` until the prompt pass has run.
        self.pending: Optional[int] = None

    @property
    def sampling(self) -> SamplingConfig:
        return self.config.sampling

    @property
    def finished(self) -> bool:
        """Whether the request is done: EOS, token budget, or context
        exhausted (the fitter found no room for even a one-node tree)."""
        return (
            self.finished_by_eos
            or self.retired
            or len(self.tokens) >= self.config.max_new_tokens
        )

    def emit(self, emitted: Sequence[int]) -> List[int]:
        """Append tokens, honoring EOS and the token budget."""
        config = self.config
        eos = self.model.config.eos_token_id
        appended: List[int] = []
        for token in emitted:
            if len(self.tokens) >= config.max_new_tokens:
                break
            self.tokens.append(int(token))
            appended.append(int(token))
            if config.stop_on_eos and token == eos:
                self.finished_by_eos = True
                break
        return appended

    def release(self) -> None:
        """Give the cache's and the speculator's mirror caches' arena rows
        back."""
        self.cache.free()
        if self.speculator is not None:
            self.speculator.release()

    def to_result(self) -> GenerationResult:
        """Package the state as an offline :class:`GenerationResult`."""
        result = GenerationResult(prompt=self.prompt)
        result.tokens = list(self.tokens)
        result.steps = list(self.steps)
        result.finished_by_eos = self.finished_by_eos
        return result


# -- verification backends ---------------------------------------------------------


class FusedBackend:
    """One :class:`BatchedTreeVerifier` call over the whole batch: a fused
    pass over every trunk, and a second only for walks that passed a
    fan-out.

    Args:
        model: The LLM.
        sampling: Decoding mode for every tree of the batch.  ``None``
            (default) verifies each tree under its state's own sampling
            config.
        rng: Verification randomness shared by the whole batch, consumed
            pass-major: every walk over the trunks in request order, then
            the walks resumed below a fan-out in request order (see
            :class:`BatchedTreeVerifier`).  ``None`` (default) draws from
            each state's own stream, so speculation and verification share
            the request RNG, as in the offline engines, and a request's
            draws do not depend on its neighbours.
        use_naive_sampling: Swap MSS for the Table 3 naive baseline.
        mode: Only ``"block"`` (the block-sparse pass) is accepted.
        reuse_scratch: Reuse batch-wide scratch arenas across ticks
            (see :class:`BatchedTreeVerifier`).
    """

    def __init__(
        self,
        model: TransformerLM,
        sampling: Optional[SamplingConfig] = None,
        rng: Optional[np.random.Generator] = None,
        use_naive_sampling: bool = False,
        mode: str = "block",
        reuse_scratch: bool = True,
    ):
        if mode != "block":
            raise ValueError(f"mode must be 'block', got {mode!r}")
        self.model = model
        self.sampling = sampling
        self.rng = rng
        self._verifier = BatchedTreeVerifier(
            model,
            use_naive_sampling=use_naive_sampling,
            reuse_scratch=reuse_scratch,
        )

    def verify(self, states: Sequence[DecodeState],
               trees: Sequence[TokenTree],
               resume: Optional[Callable] = None,
               ) -> List[VerificationResult]:
        """Verify each tree against its state's cache; batch order.

        ``resume`` completes subtrees of lazily drafted trees (see
        :meth:`BatchedTreeVerifier.verify_batch`).
        """
        _observe_verify("fused", trees)
        with TRACER.span("repro.verify.fused", requests=len(trees)):
            return self._verifier.verify_batch(
                trees, [state.cache for state in states],
                [self.sampling or state.sampling for state in states],
                [state.rng if self.rng is None else self.rng
                 for state in states],
                resume=resume,
            )


class IncrementalBackend:
    """Algorithm 1 as the degenerate one-node tree, one forward per batch.

    The speculate phase hands this backend a bare root per state (the
    pending token); verification is a single
    :meth:`~repro.model.transformer.TransformerLM.decode_batch` of all the
    roots — one row per request, each against its own cache, committing its
    KV row — followed by one sample per state from that state's own RNG,
    which plays the bonus-token role.  Incremental decoding thereby stops
    being a parallel code path: it is the tree pipeline with tree size one
    and nothing to reject, batched at iteration level like any other tick.
    """

    def __init__(self, model: TransformerLM):
        self.model = model
        self._arena = ScratchArena()

    def verify(self, states: Sequence[DecodeState],
               trees: Sequence[TokenTree],
               resume: Optional[Callable] = None,
               ) -> List[VerificationResult]:
        _observe_verify("incremental", trees)
        _INCREMENTAL_ROWS.inc(len(trees))
        with TRACER.span("repro.verify.incremental", requests=len(trees)):
            tokens = self._arena.take("decode.tokens", (len(trees),), np.intp)
            for i, tree in enumerate(trees):
                tokens[i] = tree.tokens[0]
            logits = self.model.decode_batch(
                tokens, [state.cache for state in states],
                scratch=self._arena,
            )
            results: List[VerificationResult] = []
            for state, row in zip(states, logits):
                token = int(sample_token(row, state.sampling, state.rng))
                results.append(
                    VerificationResult(
                        accepted_tokens=[token],
                        accepted_nodes=[0],
                        bonus_token=token,
                        num_candidates_considered=1,
                    )
                )
            return results


# -- the pipeline ------------------------------------------------------------------


@dataclass
class TickOutcome:
    """What one pipeline tick did to one decode state.

    Attributes:
        state: The state the outcome describes.
        emitted: Tokens appended to the request's output this tick (or
            prompt pass) — the per-session committed-token *delta*, so
            streaming consumers (the serving gateway) forward tokens
            without re-diffing state.
        advanced: Whether a verification step ran (exactly when a new
            :class:`StepTrace` was recorded; never for a prompt pass).
        retired: Whether the fitter found no room this tick (the state's
            ``retired`` flag is set; it will report ``finished``).
        finished: Whether the state reports finished after this tick (EOS,
            budget, or retirement).
    """

    state: DecodeState
    emitted: List[int] = field(default_factory=list)
    advanced: bool = False
    retired: bool = False
    finished: bool = False


class DecodePipeline:
    """The canonical per-iteration decode loop.

    :meth:`prefill` is the prompt pass — one LLM forward over the prompts of
    a batch of states, which emits each one's first token.  One :meth:`tick`
    then advances a batch of :class:`DecodeState`s by exactly one LLM
    iteration: speculate a tree per request, fit each tree to its cache,
    verify the survivors, then commit — record the trace, emit accepted
    tokens, advance the speculator.

    One per-state decision shapes a tick.  A state's tree is a *bare root*
    (its pending token alone — Algorithm 1) when the state has no
    speculator, or the tick is fault-degraded, or the plan's budget is 0.
    All bare roots of a tick are scored by the pipeline's one
    :class:`IncrementalBackend` in a single ``decode_batch`` and record the
    Algorithm-1 trace shape; every other state drafts a tree, and those
    trees go through the configured backend in a single ``verify``.  So a
    batch mixing speculative and incremental requests is one tick under any
    backend, and only drafted states feed the planner.

    Args:
        model: The LLM (sizes the tree fitter).
        backend: The verification backend for drafted trees; defaults to
            :class:`FusedBackend` over ``model`` (each tree verified under
            its state's own sampling config and RNG).
        injector: Optional :class:`~repro.faults.FaultInjector`.  When set,
            one speculation and one verification fault can fire each tick;
            the affected tick *degrades* (every tree a bare root) instead
            of crashing, and speculation re-enables after
            :data:`FALLBACK_COOLDOWN` clean (degraded) ticks.  Under greedy
            verification degraded ticks emit exactly the tokens the
            speculative path would — the fallback is lossless, just slower.
        planner: Optional :class:`~repro.speculate.planner.TreePlanner`
            consulted once per tick, before speculation.  The plan's
            expansion profile overrides every speculative state's static
            configuration for that tick; a budget-0 plan makes every tree
            of the tick a bare root until the planner's cooldown re-probes
            speculation.  Under greedy verification the emitted
            tokens are identical for every plan — the planner only moves
            tokens-per-step, never content.
    """

    def __init__(self, model: TransformerLM,
                 backend: Optional[FusedBackend | IncrementalBackend] = None,
                 injector: Optional["FaultInjector"] = None,
                 planner: Optional["TreePlanner"] = None):
        self.model = model
        self.backend = backend if backend is not None else FusedBackend(model)
        self.injector = injector
        self.fitter = TreeFitter(model.config.max_seq_len)
        #: The one drafter: every drafted tree of a tick, in one packed
        #: level loop per SSM base.
        self.packed = PackedSpeculator()
        self.planner = planner
        #: Scores every bare root of a tick in one ``decode_batch``.
        self._incremental = (
            self.backend if isinstance(self.backend, IncrementalBackend)
            else IncrementalBackend(model)
        )
        self._fallback_remaining = 0
        self._ticks = 0

    # -- fault fallback ------------------------------------------------------------

    @property
    def speculation_suppressed(self) -> bool:
        """Whether the pipeline is currently in incremental fallback mode."""
        return self._fallback_remaining > 0

    def _enter_fallback(self, cause: str) -> None:
        self._fallback_remaining = FALLBACK_COOLDOWN
        _FALLBACK_ENTRIES.inc()
        TRACER.event("repro.engine.fallback", cause=cause,
                     cooldown=FALLBACK_COOLDOWN, iteration=self._ticks)

    # -- phases --------------------------------------------------------------------

    def _fit_tree(self, state: DecodeState,
                  tree: TokenTree) -> Optional[TokenTree]:
        """Fit one raw tree; marks the state retired when nothing fits."""
        fitted = self.fitter.fit(tree, state.cache)
        if fitted is None:
            state.retired = True
            _RETIRED.inc()
        elif fitted is not tree:
            _TREES_PRUNED.inc()
        return fitted

    def _resume_drafts(self, states: Sequence[DecodeState],
                       trees: List[TokenTree], whole: Sequence[bool],
                       indices: List[int], nodes: List[int],
                       ) -> List[TokenTree]:
        """The verifier's ``resume``: draft the subtree below each paused
        walk's node, fit it to the request's compacted cache, and graft it
        in (``trees`` is updated in place).  A tree the fitter pruned
        drafted nothing more: it is final, as an eager draft's would be."""
        below = {k: node for k, node in zip(indices, nodes) if whole[k]}
        if below:
            todo = list(below)
            for k, tree in zip(todo, self.packed.speculate_batch(
                    [states[k] for k in todo],
                    below=[(below[k],) for k in todo])):
                _SPECULATED_NODES.inc(len(tree) - len(trees[k]))
                node, cache = below[k], states[k].cache
                # Nothing to fit when the whole grown tree would fit.
                if (len(tree) > cache.capacity - cache.length
                        or tree.max_depth() - tree.depths[node]
                        > self.fitter.max_seq_len - 1 - cache.length):
                    subtree = tree.subtree(node)
                    fitted = self.fitter.fit(subtree, cache)
                    if fitted is not subtree:
                        tree = tree.graft(node, fitted)
                trees[k] = tree
        return [trees[k] for k in indices]

    def commit(self, state: DecodeState, tree: TokenTree,
               verification: VerificationResult,
               bare_root: bool = False,
               widths: Optional[Sequence[int]] = None) -> List[int]:
        """Phase 3: record the outcome and advance the request's state.

        Appends the step's :class:`StepTrace` — the only place one is
        built, so the cost model's inputs (token counts, tree shapes,
        prefix lengths) cannot drift between the engines and the serving
        runtime.  A ``bare_root`` step (nothing was drafted: the tree is
        the pending token alone) records the Algorithm 1 shape — one token
        scored, one emitted, no tree fields, no SSM steps — so the cost
        model never charges speculation that did not run.

        The trace describes the tree an eager draft would have had
        verified, as the cost model expects.  When ``tree`` was drafted
        lazily under the expansion ``widths``, each of its leaves above
        the configuration's depth is a frontier node nobody resumed, and
        counts with the full subtree its widths give (no duplicate draws),
        the whole fitted to the request's context as :class:`TreeFitter`
        fits a tree.
        """
        prefix_len = state.cache.length - len(verification.accepted_nodes)
        if bare_root:
            fields = dict(
                llm_tokens_scored=1,
                tokens_emitted=1,
                prefix_len=prefix_len,
            )
        else:
            size, depth, leaves, path_tokens = _eager_shape(
                tree, widths, state.cache.capacity - prefix_len,
                self.fitter.max_seq_len - 1 - prefix_len)
            fields = dict(
                llm_tokens_scored=size,
                tokens_emitted=len(verification.accepted_tokens),
                ssm_steps=state.speculator.speculation_latency_steps(),
                tree_size=size,
                tree_depth=depth,
                tree_leaves=leaves,
                tree_path_tokens=path_tokens,
                prefix_len=prefix_len,
                num_rejections=verification.num_rejections,
            )
        trace = StepTrace(**fields)
        state.steps.append(trace)
        _TOKENS_PER_STEP.observe(trace.tokens_emitted)
        if trace.tree_size:
            _TREE_SIZE.observe(trace.tree_size)
        TRACER.event(
            "repro.engine.step",
            llm_tokens_scored=trace.llm_tokens_scored,
            tokens_emitted=trace.tokens_emitted,
            tree_size=trace.tree_size,
            tree_depth=trace.tree_depth,
            prefix_len=trace.prefix_len,
            num_rejections=trace.num_rejections,
        )
        emitted = state.emit(verification.accepted_tokens)
        previous_pending = state.pending
        state.pending = int(verification.bonus_token)
        if state.speculator is not None and not state.finished:
            # Accepted speculated tokens (all but the bonus) extend the
            # verified prefix; the pending token itself was committed by
            # the verifier's cache compaction.  The speculator only queues
            # them: the next tick's first SSM forward mirrors them.
            state.speculator.advance(
                [previous_pending] + verification.accepted_tokens[:-1]
            )
        return emitted

    # -- the prompt pass -----------------------------------------------------------

    def prefill(self, states: Sequence[DecodeState]) -> List[TickOutcome]:
        """The prompt pass: one LLM forward over the full prompts of
        ``states``, which emits every request's first token.

        Each prompt is scored under its own causal block into its own
        cache.  The request's first token is drawn from its last row's
        logits (the one row of its prompt the forward carries through the
        last layer and the LM head) with the request's own RNG (argmax
        when greedy) — a draw from the LLM's own distribution, with
        nothing to verify — then emitted and made ``pending``.  No SSM
        runs: a speculative state queues its prompt on the speculator, and
        the first tick's level-0 draft call mirrors it.  No
        :class:`StepTrace` is recorded — steps count decode iterations — so
        outcomes report ``advanced=False``.
        """
        with TRACER.span("repro.engine.prefill",
                         requests=len(states)) as span:
            logits = self.model.prefill_batch(
                [state.prompt for state in states],
                [state.cache for state in states],
            )
            outcomes: List[TickOutcome] = []
            for state, row in zip(states, logits):
                token = int(sample_token(row, state.sampling, state.rng))
                emitted = state.emit([token])
                state.pending = token
                if state.speculator is not None and not state.finished:
                    state.speculator.advance(state.prompt)
                outcomes.append(TickOutcome(
                    state=state, emitted=emitted, finished=state.finished,
                ))
            rows_scored = sum(state.prompt.size for state in states)
            _PREFILL_ROWS.inc(rows_scored)
            _TOKENS_EMITTED.inc(len(outcomes))
            span.set(rows=rows_scored, tokens_emitted=len(outcomes))
        return outcomes

    # -- the loop ------------------------------------------------------------------

    def tick(self, states: Sequence[DecodeState]) -> List[TickOutcome]:
        """One canonical iteration over a batch of decode states.

        Each of the four phases runs batch-wide under its own trace span
        (``repro.engine.speculate`` / ``fit`` / ``verify`` / ``commit``),
        nested in one ``repro.engine.tick`` span per iteration; phase
        latencies land in the ``*.host_seconds`` registry histograms.
        A state that has not been through :meth:`prefill` takes it first.
        """
        _TICKS.inc()
        outcomes = [TickOutcome(state=state) for state in states]
        # A state nobody prefilled (the offline engines) takes the prompt
        # pass first; its first token leads this tick's delta.  The serving
        # manager prefills at admission instead.
        cold = [i for i, state in enumerate(states) if state.pending is None]
        if cold:
            for i, first in zip(cold,
                                self.prefill([states[i] for i in cold])):
                outcomes[i].emitted = first.emitted
        allocs_before = _HOT_ALLOCS.value
        with TRACER.span("repro.engine.tick", iteration=self._ticks,
                         batch=len(states)) as tick_span:
            self._ticks += 1
            live = [
                s for s in states
                if s.speculator is not None and not s.finished
            ]

            # Fault fallback: a tick is degraded when a previous fault's
            # cooldown is still draining, or when a speculation fault fires
            # now (drawn only when something could draft).
            degraded = self._fallback_remaining > 0
            entered = False
            if (live and not degraded and self.injector is not None
                    and self.injector.should_fire(
                        FaultKind.SPECULATION, iteration=self._ticks - 1)):
                self._enter_fallback("speculation")
                degraded = entered = True

            # Dynamic tree planning: one budget/shape decision for the whole
            # tick, solved against the live batch size and context depth.
            # Fault-degraded ticks skip planning (nothing will draft).
            plan = None
            if self.planner is not None and live and not degraded:
                plan = self.planner.plan(
                    len(live),
                    context_len=max(s.cache.length for s in live))

            # The one per-state decision: whose tree is a bare root.
            nothing_drafts = degraded or (
                plan is not None and not plan.speculative)
            bare = [nothing_drafts or s.speculator is None for s in states]

            try:
                with TRACER.span("repro.engine.speculate") as span:
                    raw: List[Optional[TokenTree]] = [None] * len(states)
                    todo: List[int] = []
                    for i, state in enumerate(states):
                        if state.finished:
                            outcomes[i].retired = state.retired
                        elif bare[i]:
                            raw[i] = TokenTree(state.pending)
                        else:
                            todo.append(i)
                    if todo:
                        # Each draft pauses where its tree first fans out;
                        # the verifier resumes it below the paused walks.
                        for i, tree in zip(todo, self.packed.speculate_batch(
                                [states[i] for i in todo], plan=plan,
                                below=[()] * len(todo))):
                            raw[i] = tree
                    nodes = sum(len(t) for t in raw if t is not None)
                    _SPECULATED_NODES.inc(nodes)
                    span.set(trees=sum(t is not None for t in raw),
                             nodes=nodes)

                with TRACER.span("repro.engine.fit") as span:
                    active: List[DecodeState] = []
                    trees: List[TokenTree] = []
                    slots: List[int] = []
                    #: Whether a tree is its draft's (nothing pruned), so
                    #: the draft may still grow below a paused walk.
                    whole: List[bool] = []
                    for i, (state, tree) in enumerate(zip(states, raw)):
                        if tree is None:
                            continue
                        fitted = self._fit_tree(state, tree)
                        if fitted is None:
                            outcomes[i].retired = True
                            continue
                        active.append(state)
                        trees.append(fitted)
                        slots.append(i)
                        whole.append(fitted is tree and not bare[i])
                    span.set(
                        fitted=len(trees),
                        retired=sum(
                            o.retired for o, t in zip(outcomes, raw)
                            if t is not None
                        ),
                        nodes=sum(len(t) for t in trees),
                    )

                with TRACER.span("repro.engine.verify", requests=len(active),
                                 tokens=sum(len(t) for t in trees)):
                    if (active and not degraded and self.injector is not None
                            and self.injector.should_fire(
                                FaultKind.VERIFICATION,
                                iteration=self._ticks - 1)):
                        # The backend is down this tick: discard the drafted
                        # trees (nothing touched the caches yet) and decode
                        # each pending token incrementally.
                        self._enter_fallback("verification")
                        degraded = entered = True
                        trees = [TokenTree(s.pending) for s in active]
                        bare = [True] * len(states)
                    # Bare roots: one decode_batch.  Drafted trees: one verify
                    # of the configured backend.
                    results: List[Optional[VerificationResult]] = (
                        [None] * len(active))
                    drafted = [j for j, i in enumerate(slots) if not bare[i]]
                    roots = [j for j, i in enumerate(slots) if bare[i]]
                    if roots:
                        for j, result in zip(roots, self._incremental.verify(
                                [active[j] for j in roots],
                                [trees[j] for j in roots])):
                            results[j] = result
                    if drafted:
                        drafted_states = [active[j] for j in drafted]
                        drafted_trees = [trees[j] for j in drafted]
                        for j, result in zip(drafted, self.backend.verify(
                                drafted_states, drafted_trees,
                                resume=partial(
                                    self._resume_drafts, drafted_states,
                                    drafted_trees, [whole[j] for j in drafted]
                                ))):
                            results[j] = result
                        # The trees as verified, their resumed subtrees in.
                        for j, tree in zip(drafted, drafted_trees):
                            trees[j] = tree
            finally:
                # Every draft of the tick ends here: the SSM caches go back to
                # their verified prefixes.
                self.packed.close()

            with TRACER.span("repro.engine.commit") as span:
                emitted_total = 0
                for j, (i, state, tree, result) in enumerate(
                        zip(slots, active, trees, results)):
                    emitted = self.commit(
                        state, tree, result, bare_root=bare[i],
                        widths=None if bare[i] or not whole[j] else
                        state.speculator.expansion_config(plan).widths)
                    outcomes[i].emitted += emitted
                    outcomes[i].advanced = True
                    emitted_total += len(emitted)
                _TOKENS_EMITTED.inc(emitted_total)
                span.set(steps=len(results), tokens_emitted=emitted_total)

            # Acceptance evidence — only from drafted trees: a bare root
            # ran Algorithm 1, so it does not feed the planner's EWMA.  Per
            # request, the accepted speculated tokens, and whether the
            # accepted path ended by rejection (its tip still had children
            # in the fitted tree) rather than by consuming the whole tree.
            if plan is not None and drafted:
                self.planner.observe(
                    sum(results[j].num_accepted_speculated for j in drafted),
                    sum(not trees[j].is_leaf(results[j].accepted_nodes[-1])
                        for j in drafted))

            if degraded:
                _FALLBACK_TICKS.inc()
                if not entered:
                    self._fallback_remaining -= 1
            allocs = _HOT_ALLOCS.value - allocs_before
            _TICK_ALLOCS.inc(allocs)
            tick_span.set(advanced=len(results), tokens_emitted=emitted_total,
                          degraded=degraded, allocs=allocs)
            if plan is not None:
                tick_span.set(planner_budget=plan.budget,
                              planner_alpha=round(plan.alpha, 6))
        for outcome in outcomes:
            outcome.finished = outcome.state.finished
        return outcomes

    def run_to_completion(self, state: DecodeState) -> DecodeState:
        """Drive one state until it finishes (the offline-engine loop)."""
        while not state.finished:
            if not self.tick([state])[0].advanced:
                break
        return state
