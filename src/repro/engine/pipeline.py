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
* :class:`TraceRecorder` — the only construction site of
  :class:`~repro.engine.generation.StepTrace` records.
* :class:`VerificationBackend` — the pluggable verify seam with two
  implementations: :class:`FusedBackend` (one
  :class:`~repro.engine.batched.BatchedTreeVerifier` pass per batch, each
  tree under its request's own sampling) and :class:`IncrementalBackend`
  (Algorithm 1 as the degenerate one-node tree).
* :class:`DecodePipeline` — the prompt pass
  (:meth:`DecodePipeline.prefill`: the full prompts of a batch of states in
  one LLM forward, which emits each request's first token) and the
  per-iteration loop itself (:meth:`DecodePipeline.tick`).

Because batched serving and offline generation share this one loop and one
tree verifier, the bit-equivalence suites verify the architecture rather
than hand-synchronized copies; future backends (async, sharded,
disaggregated verify) plug into the same seam.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.engine.batched import BatchedTreeVerifier
from repro.faults import FaultError, FaultKind
from repro.engine.generation import (
    GenerationConfig,
    GenerationResult,
    StepTrace,
)
from repro.model import perf
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
    "repro.engine.speculated_nodes", help="tree nodes before fitting")
_TOKENS_EMITTED = REGISTRY.counter(
    "repro.engine.tokens_emitted", help="verified tokens appended")
_PREFILL_ROWS = REGISTRY.counter(
    "repro.engine.prefill_rows", help="prompt rows scored by prompt passes")
_TREE_SIZE = REGISTRY.histogram(
    "repro.engine.tree_size", buckets=DEFAULT_COUNT_BUCKETS,
    help="fitted tree sizes per verification step")
_TOKENS_PER_STEP = REGISTRY.histogram(
    "repro.engine.tokens_per_step", buckets=DEFAULT_COUNT_BUCKETS,
    help="verified tokens emitted per committed step (Table 2)")
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


def _observe_verify(kind: str, trees: Sequence[TokenTree]) -> None:
    """Charge one backend verification pass to ``repro.verify.<kind>.*``."""
    REGISTRY.counter(f"repro.verify.{kind}.passes").inc()
    REGISTRY.counter(f"repro.verify.{kind}.requests").inc(len(trees))
    REGISTRY.counter(f"repro.verify.{kind}.tokens_scored").inc(
        sum(len(tree) for tree in trees)
    )


# -- tree fitting ----------------------------------------------------------------


def prune_to_size(tree: TokenTree, limit: int,
                  max_depth: Optional[int] = None) -> TokenTree:
    """Keep up to ``limit`` nodes in BFS order, optionally bounding depth
    (root always survives)."""
    keep = set()
    queue = deque([0])
    while queue and len(keep) < limit:
        idx = queue.popleft()
        if max_depth is not None and tree.nodes[idx].depth > max_depth:
            continue
        keep.add(idx)
        queue.extend(tree.nodes[idx].children)
    pruned = TokenTree(tree.root.token)
    pruned.nodes[0].proposals = dict(tree.nodes[0].proposals)
    mapping = {0: 0}
    for idx in sorted(keep - {0}, key=lambda i: tree.path_to(i)):
        node = tree.nodes[idx]
        if node.parent not in mapping:
            continue
        new_idx = pruned.add_child(
            mapping[node.parent], node.token, ssm_id=None
        )
        pruned.nodes[new_idx].ssm_ids = set(node.ssm_ids)
        pruned.nodes[new_idx].proposals = dict(node.proposals)
        mapping[idx] = new_idx
    return pruned


class TreeFitter:
    """Fits speculated trees into a request's remaining KV capacity.

    The verification pass appends ``len(tree)`` rows before compaction, and
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
            ``pool.new_sequence`` for paged storage).
        rng: Optional RNG override; defaults to ``default_rng(config.seed)``.
    """

    def __init__(
        self,
        model: TransformerLM,
        prompt: Sequence[int],
        config: Optional[GenerationConfig] = None,
        speculator=None,
        cache_factory: Optional[Callable] = None,
        rng: Optional[np.random.Generator] = None,
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
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.cache = (cache_factory or model.new_cache)()
        #: Optional :class:`~repro.speculate.router.RouteAssignment` pinned
        #: by the serving layer when this request was routed to a pool
        #: member; the pipeline feeds acceptance back through it.
        self.route = None
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
        """Free cache resources (paged caches return blocks to the pool)."""
        free = getattr(self.cache, "free", None)
        if callable(free):
            free()

    def to_result(self) -> GenerationResult:
        """Package the state as an offline :class:`GenerationResult`."""
        result = GenerationResult(prompt=self.prompt)
        result.tokens = list(self.tokens)
        result.steps = list(self.steps)
        result.finished_by_eos = self.finished_by_eos
        return result


# -- trace recording ---------------------------------------------------------------


class TraceRecorder:
    """The sole construction site of :class:`StepTrace` records.

    Every surface shares this one builder, so the cost model's inputs
    (token counts, tree shapes, prefix lengths) cannot drift between the
    engines and the serving runtime.
    """

    def record(self, state: DecodeState, tree: TokenTree,
               verification: VerificationResult,
               bare_root: bool = False) -> StepTrace:
        """Build and append the trace for one committed verification step.

        A ``bare_root`` step (nothing was drafted: the tree is the pending
        token alone) records the Algorithm 1 shape — one token scored, one
        emitted, no tree fields, no SSM steps — so the cost model never
        charges speculation that did not run.
        """
        if bare_root:
            fields = dict(
                llm_tokens_scored=1,
                tokens_emitted=1,
                prefix_len=state.cache.length - 1,
            )
        else:
            leaves = [i for i in range(len(tree)) if tree.is_leaf(i)]
            fields = dict(
                llm_tokens_scored=len(tree),
                tokens_emitted=len(verification.accepted_tokens),
                ssm_steps=state.speculator.speculation_latency_steps(),
                tree_size=len(tree),
                tree_depth=tree.max_depth(),
                tree_leaves=len(leaves),
                tree_path_tokens=sum(len(tree.path_to(i)) for i in leaves),
                prefix_len=state.cache.length - len(verification.accepted_nodes),
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
        return trace


# -- verification backends ---------------------------------------------------------


class VerificationBackend(ABC):
    """The pipeline's pluggable verify seam.

    A backend turns a batch of (state, fitted tree) pairs into per-request
    :class:`VerificationResult`s, committing each accepted path to the
    request's KV cache.  Implementations decide the execution strategy —
    one fused tree pass per batch, or plain incremental decoding — without
    touching the loop around them.
    """

    #: The LLM the backend verifies against (used by the pipeline to size
    #: the tree fitter).
    model: TransformerLM

    @abstractmethod
    def verify(self, states: Sequence[DecodeState],
               trees: Sequence[TokenTree]) -> List[VerificationResult]:
        """Verify each tree against its state's cache; batch order."""


class FusedBackend(VerificationBackend):
    """One fused :class:`BatchedTreeVerifier` pass over the whole batch.

    Args:
        model: The LLM.
        sampling: Decoding mode for every tree of the batch.  ``None``
            (default) verifies each tree under its state's own sampling
            config.
        rng: Verification randomness, consumed across the batch in request
            order.  ``None`` (default) draws from each state's own stream, so
            speculation and verification share the request RNG, as in the
            offline engines.
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
               trees: Sequence[TokenTree]) -> List[VerificationResult]:
        _observe_verify("fused", trees)
        with TRACER.span("repro.verify.fused", requests=len(trees)):
            return self._verifier.verify_batch(
                trees, [state.cache for state in states],
                [self.sampling or state.sampling for state in states],
                [state.rng if self.rng is None else self.rng
                 for state in states],
            )


class IncrementalBackend(VerificationBackend):
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
               trees: Sequence[TokenTree]) -> List[VerificationResult]:
        _observe_verify("incremental", trees)
        with TRACER.span("repro.verify.incremental", requests=len(trees)):
            tokens = self._arena.take("decode.tokens", (len(trees),), np.intp)
            for i, tree in enumerate(trees):
                tokens[i] = tree.root.token
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
        committed_total: Tokens the state has committed *after* this tick
            (``len(state.tokens)``) — the stream position the delta ends
            at, stable across preemption re-incarnations.
        finished: Whether the state reports finished after this tick (EOS,
            budget, or retirement).
    """

    state: DecodeState
    emitted: List[int] = field(default_factory=list)
    advanced: bool = False
    retired: bool = False
    committed_total: int = 0
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
    backend, and only drafted states feed the planner and the router.

    Args:
        model: The LLM (sizes the tree fitter).
        backend: The verification backend for drafted trees; defaults to
            :class:`FusedBackend` over ``model`` (each tree verified under
            its state's own sampling config and RNG).
        injector: Optional :class:`~repro.faults.FaultInjector`.  When set,
            one speculation and one verification fault can fire each tick;
            the affected tick *degrades* (every tree a bare root) instead
            of crashing, and speculation re-enables after
            ``fallback_cooldown`` clean ticks.  Under greedy verification
            degraded ticks emit exactly the tokens the speculative path
            would — the fallback is lossless, just slower.
        fallback_cooldown: Clean (degraded) ticks served after a fault
            before speculation resumes.
        packed_speculation: Score all requests' draft trees through one
            batched GEMM per tree level (:class:`PackedSpeculator`) instead
            of per-session SSM decode loops, greedy and sampling alike.
            The same trees; requests the packer cannot handle (merge-based
            or adaptive speculators, near-end-of-context caches) use the
            per-session loop, and say so in a
            ``repro.speculate.packed.fallback`` trace event.
        planner: Optional :class:`~repro.speculate.planner.TreePlanner`
            consulted once per tick, before speculation.  The plan's
            expansion profile overrides every speculative state's static
            configuration for that tick; a budget-0 plan makes every tree
            of the tick a bare root until the planner's cooldown re-probes
            speculation.  Under greedy verification the emitted
            tokens are identical for every plan — the planner only moves
            tokens-per-step, never content.
        router: Optional :class:`~repro.speculate.router.SpeculatorRouter`.
            When set, ticks that speculated feed each routed state's
            acceptance outcome back per request (through ``state.route``),
            and the planner's acceptance input becomes the mean of the live
            routed members' estimates.  Bare roots feed nothing — the
            same skip the global planner estimator gets.  Routing never
            changes greedy output: the verifier emits the LLM's greedy
            continuation whichever member drafted.
    """

    def __init__(self, model: TransformerLM,
                 backend: Optional[VerificationBackend] = None,
                 injector: Optional["FaultInjector"] = None,
                 fallback_cooldown: int = 3,
                 packed_speculation: bool = True,
                 planner: Optional["TreePlanner"] = None,
                 router: Optional["SpeculatorRouter"] = None):
        if fallback_cooldown < 0:
            raise ValueError("fallback_cooldown must be >= 0")
        self.model = model
        self.backend = backend if backend is not None else FusedBackend(model)
        self.injector = injector
        self.fallback_cooldown = fallback_cooldown
        self.fitter = TreeFitter(model.config.max_seq_len)
        self.recorder = TraceRecorder()
        self.packed = PackedSpeculator() if packed_speculation else None
        self.planner = planner
        self.router = router
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
        self._fallback_remaining = self.fallback_cooldown
        _FALLBACK_ENTRIES.inc()
        TRACER.event("repro.engine.fallback", cause=cause,
                     cooldown=self.fallback_cooldown, iteration=self._ticks)

    # -- routing -------------------------------------------------------------------

    def _routed_alpha(self, live: Sequence[DecodeState]) -> Optional[float]:
        """Mean acceptance estimate of the live batch's routed members.

        ``None`` (planner falls back to its own global estimator) when no
        router is attached or no live state carries a route assignment.
        """
        if self.router is None:
            return None
        total = 0.0
        count = 0
        for state in live:
            if state.route is not None:
                total += self.router.alpha_for(state.route.member)
                count += 1
        if count == 0:
            return None
        return total / count

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

    def commit(self, state: DecodeState, tree: TokenTree,
               verification: VerificationResult,
               bare_root: bool = False) -> List[int]:
        """Phase 3: record the outcome and advance the request's state."""
        self.recorder.record(state, tree, verification, bare_root=bare_root)
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
        logits with the request's own RNG (argmax when greedy) — a draw
        from the LLM's own distribution, with nothing to verify — then
        emitted and made ``pending``.  No SSM runs: a speculative state
        queues its prompt on the speculator, and the first tick's level-0
        draft call mirrors it.  No :class:`StepTrace` is recorded — steps
        count decode iterations — so outcomes report ``advanced=False``.
        """
        with TRACER.span("repro.engine.prefill",
                         requests=len(states)) as span:
            logits = self.model.prefill_batch(
                [state.prompt for state in states],
                [state.cache for state in states],
            )
            outcomes: List[TickOutcome] = []
            for state, rows in zip(states, logits):
                token = int(sample_token(rows[-1], state.sampling, state.rng))
                emitted = state.emit([token])
                state.pending = token
                if state.speculator is not None and not state.finished:
                    state.speculator.advance(state.prompt)
                outcomes.append(TickOutcome(
                    state=state, emitted=emitted,
                    committed_total=len(state.tokens),
                    finished=state.finished,
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
        allocs_before = perf.COUNTERS.hot_alloc_events
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
            if live and not degraded and self.injector is not None:
                try:
                    self.injector.maybe_fail(FaultKind.SPECULATION,
                                             iteration=self._ticks - 1)
                except FaultError:
                    self._enter_fallback("speculation")
                    degraded = entered = True

            # Dynamic tree planning: one budget/shape decision for the whole
            # tick, solved against the live batch size and context depth.
            # Fault-degraded ticks skip planning (nothing will draft).
            plan = None
            if self.planner is not None and live and not degraded:
                context_len = max(s.cache.length for s in live)
                routed_alpha = self._routed_alpha(live)
                if routed_alpha is not None:
                    plan = self.planner.plan(len(live),
                                             context_len=context_len,
                                             alpha=routed_alpha)
                else:
                    # No routed states: the planner falls back to its own
                    # global estimator (and planner doubles need not grow
                    # an ``alpha`` parameter).
                    plan = self.planner.plan(len(live),
                                             context_len=context_len)

            # The one per-state decision: whose tree is a bare root.
            nothing_drafts = degraded or (
                plan is not None and not plan.speculative)
            bare = [nothing_drafts or s.speculator is None for s in states]

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

                def draft(state: DecodeState) -> TokenTree:
                    # The per-state path, for what the packer cannot take.
                    return state.speculator.speculate(
                        state.pending, stochastic=not state.sampling.greedy,
                        rng=state.rng, plan=plan)

                if todo and self.packed is not None:
                    for i, tree in zip(todo, self.packed.speculate_batch(
                            [states[i] for i in todo], draft, plan=plan)):
                        raw[i] = tree
                else:
                    for i in todo:
                        raw[i] = draft(states[i])
                nodes = sum(len(t) for t in raw if t is not None)
                _SPECULATED_NODES.inc(nodes)
                span.set(trees=sum(t is not None for t in raw), nodes=nodes)

            with TRACER.span("repro.engine.fit") as span:
                active: List[DecodeState] = []
                trees: List[TokenTree] = []
                slots: List[int] = []
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
                if active and not degraded and self.injector is not None:
                    try:
                        self.injector.maybe_fail(FaultKind.VERIFICATION,
                                                 iteration=self._ticks - 1)
                    except FaultError:
                        # The backend is down this tick: discard the
                        # drafted trees (nothing touched the caches yet)
                        # and decode each pending token incrementally.
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
                for backend, rows in ((self._incremental, roots),
                                      (self.backend, drafted)):
                    if rows:
                        for j, result in zip(rows, backend.verify(
                                [active[j] for j in rows],
                                [trees[j] for j in rows])):
                            results[j] = result

            with TRACER.span("repro.engine.commit") as span:
                emitted_total = 0
                for i, state, tree, result in zip(slots, active, trees,
                                                  results):
                    emitted = self.commit(state, tree, result,
                                          bare_root=bare[i])
                    outcomes[i].emitted += emitted
                    outcomes[i].advanced = True
                    emitted_total += len(emitted)
                _TOKENS_EMITTED.inc(emitted_total)
                span.set(steps=len(results), tokens_emitted=emitted_total)

            # Acceptance evidence — only from drafted trees: a bare root
            # ran Algorithm 1, so it feeds neither the router's per-member
            # estimators nor the planner's global EWMA.  Per request, the
            # accepted speculated tokens, and whether the accepted path
            # ended by rejection (its tip still had children in the fitted
            # tree) rather than by consuming the whole tree.
            if self.router is not None:
                for j in drafted:
                    if active[j].route is None:
                        continue
                    tip = trees[j].nodes[results[j].accepted_nodes[-1]]
                    self.router.observe(
                        active[j].route,
                        results[j].num_accepted_speculated,
                        1 if tip.children else 0,
                    )
            elif plan is not None and drafted:
                accepted = 0
                stops = 0
                for j in drafted:
                    accepted += results[j].num_accepted_speculated
                    if trees[j].nodes[results[j].accepted_nodes[-1]].children:
                        stops += 1
                self.planner.observe(accepted, stops)

            if degraded:
                _FALLBACK_TICKS.inc()
                if not entered:
                    self._fallback_remaining -= 1
            allocs = perf.COUNTERS.hot_alloc_events - allocs_before
            _TICK_ALLOCS.inc(allocs)
            tick_span.set(advanced=len(results), tokens_emitted=emitted_total,
                          degraded=degraded, allocs=allocs)
            if plan is not None:
                tick_span.set(planner_budget=plan.budget,
                              planner_alpha=round(plan.alpha, 6))
        for outcome in outcomes:
            outcome.committed_total = len(outcome.state.tokens)
            outcome.finished = outcome.state.finished
        return outcomes

    def run_to_completion(self, state: DecodeState) -> DecodeState:
        """Drive one state until it finishes (the offline-engine loop)."""
        while not state.finished:
            if not self.tick([state])[0].advanced:
                break
        return state
