"""Request manager: iteration-level scheduling with continuous batching.

Adapted from Orca's iteration-level scheduling (paper section 5.1): the
manager schedules *iterations*, not requests, and an iteration is one of two
kinds.  A **prefill iteration** admits waiting requests into free batch
slots and scores all their prompts in one LLM forward, which yields each
request's first token — so a new request's first token costs a prompt pass,
not a prompt pass plus a speculate/verify tick.  A **decode iteration**
(every round that admits nothing) advances every running session by one LLM
decoding iteration.  Both retire what finished, so new requests start
without waiting for the current batch to drain and finished requests stop
consuming slots immediately.

One manager, one :class:`~repro.engine.pipeline.DecodePipeline`, one tick
per decode iteration — in every mode.  The session factory chooses *what*
each request decodes (a session without a speculator is Algorithm 1, and
may share a batch with speculative ones); ``backend`` chooses only how the
drafted trees of a tick are verified:

* ``backend=None`` (default) is ``FusedBackend(model)``: every drafted tree
  of the batch in one batched pass per iteration (Figure 6's workflow), each
  verified under its request's own sampling config and seeded RNG — the
  tokens each request would get from ``SpecInferEngine`` alone.
* ``backend=FusedBackend(model, sampling=..., rng=...)``: the same pass with
  one decoding mode and one verification stream shared by the batch.

The bare roots of a tick — sessions without a speculator, and every
session of a fault-degraded or budget-0 tick — are always one
``decode_batch``, whatever the backend.

Failure is a first-class code path (see ``docs/fault_tolerance.md``).  With
a :class:`~repro.faults.FaultInjector` attached the manager survives every
injected failure mode: transient session faults are absorbed by **bounded
retry with backoff-in-iterations** (then the terminal
:class:`RequestState.FAILED` so one poisoned request cannot stall the
batch), KV-pressure spikes trigger **preempt-and-requeue** (victim chosen
by a :data:`~repro.serving.policies.PreemptionPolicy`, KV reservation
released, session dropped, request recomputes from its committed tokens on
re-admission), and speculation/verification faults degrade the decode
pipeline to incremental decoding.  Under greedy verification all of these
paths emit bit-identical final tokens to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import (
    DecodePipeline,
    TickOutcome,
    VerificationBackend,
)
from repro.faults import FaultError, FaultInjector, FaultKind
from repro.obs import DEFAULT_COUNT_BUCKETS, REGISTRY, TRACER
from repro.serving.request import Request, RequestOutput, RequestState
from repro.serving.session import DecodeSession

_ITERATIONS = REGISTRY.counter(
    "repro.serving.iterations", help="scheduler iterations executed")
_ADMITTED = REGISTRY.counter(
    "repro.serving.admitted", help="requests admitted into batch slots")
_RETIRED = REGISTRY.counter(
    "repro.serving.retired", help="requests retired (finished) by the manager")
_TOKENS = REGISTRY.counter(
    "repro.serving.tokens_emitted", help="tokens emitted across all batches")
_SCORED = REGISTRY.counter(
    "repro.serving.llm_tokens_scored", help="token positions scored by the LLM")
_RUNNING = REGISTRY.gauge(
    "repro.serving.running", help="requests currently holding batch slots")
_WAITING = REGISTRY.gauge(
    "repro.serving.waiting", help="requests queued for admission")
_OCCUPANCY = REGISTRY.histogram(
    "repro.serving.batch_occupancy", buckets=DEFAULT_COUNT_BUCKETS,
    help="sessions advanced per non-idle scheduler iteration")
_PREEMPTIONS = REGISTRY.counter(
    "repro.serving.preemptions",
    help="requests preempted and requeued (KV pressure or explicit)")
_RETRIES = REGISTRY.counter(
    "repro.serving.retries",
    help="transient session faults absorbed by bounded retry")
_FAILED = REGISTRY.counter(
    "repro.serving.failed",
    help="requests terminally failed after exhausting retries")


@dataclass
class IterationStats:
    """What one scheduler iteration did (consumed by the cost model).

    Attributes:
        iteration: Iteration index.
        batch_size: A decode iteration: sessions holding batch slots —
            every running session the scheduler processed, *including*
            sessions that finished or were retired (context exhausted)
            during the iteration and sessions skipped while backing off
            after a transient fault.  A prefill iteration: the requests
            whose prompts it scored.  Identical across per-request and
            fused serving for the same workload.
        tokens_emitted: Tokens emitted across the batch.
        llm_tokens_scored: Token positions the LLM scored: tree rows in a
            decode iteration, prompt rows in a prefill iteration.
        admitted: Requests admitted this iteration (non-zero exactly in
            prefill iterations).
        finished: Requests retired this iteration.
        emissions: Per-request committed-token deltas this iteration —
            ``{request_id: [token, ...]}`` for every request that emitted.
            This is what the streaming gateway forwards to clients, so
            consumers never re-diff session state.
        finished_ids: Requests retired (FINISHED) this iteration.
        preempted_ids: Requests preempted and requeued this iteration.
        failed_ids: Requests terminally FAILED this iteration.
    """

    iteration: int
    batch_size: int
    tokens_emitted: int
    llm_tokens_scored: int
    admitted: int
    finished: int
    emissions: Dict[int, List[int]] = field(default_factory=dict)
    finished_ids: List[int] = field(default_factory=list)
    preempted_ids: List[int] = field(default_factory=list)
    failed_ids: List[int] = field(default_factory=list)


@dataclass
class _Tracked:
    request: Request
    session: Optional[DecodeSession] = None
    output: Optional[RequestOutput] = None
    #: Tokens committed by earlier session incarnations (preemption saves
    #: them here; re-admission recomputes from prompt + committed).
    committed: List[int] = field(default_factory=list)
    #: LLM steps consumed by earlier incarnations.
    llm_steps_prior: int = 0
    #: Consecutive transient session faults (reset on successful advance).
    retry_streak: int = 0
    #: Total transient session faults absorbed over the lifetime.
    total_retries: int = 0
    #: Times this request was preempted and requeued.
    preemptions: int = 0
    #: The request does not advance (or re-admit) before this iteration —
    #: backoff-in-iterations after a transient fault.
    cooldown_until: int = 0


class RequestManager:
    """Continuous-batching scheduler over per-request decode sessions.

    Args:
        session_factory: Builds a :class:`DecodeSession` for a request —
            this is where incremental vs speculative serving is chosen.
            After a preemption the factory receives the *resume view* of
            the request: prompt extended by the committed tokens, token
            budget reduced accordingly.
        max_batch_size: Maximum concurrently running requests.
        policy: Admission-ordering policy over the waiting queue
            (default FCFS; see :mod:`repro.serving.policies`).
        memory_pool: Optional :class:`~repro.serving.memory.KvMemoryPool`.
            When set, a request is only admitted if its worst-case KV
            footprint (prompt + generation budget + ``kv_headroom``) fits;
            requests that do not fit are skipped this iteration (no
            head-of-line blocking) and retried once memory frees up.
        kv_headroom: Extra KV tokens reserved per request for transient
            tree-verification rows (section 5.3's memory overhead).
        backend: The :class:`VerificationBackend` that verifies the
            drafted trees of each tick; ``None`` is
            :class:`~repro.engine.pipeline.FusedBackend` over the sessions'
            model.
        injector: Optional :class:`~repro.faults.FaultInjector` driving the
            failure paths (chaos testing); ``None`` disables injection at
            zero cost.
        preemption_policy: Victim ordering for KV-pressure preemption
            (default :func:`~repro.serving.policies.preempt_newest_first`).
        max_session_retries: Consecutive transient session faults tolerated
            per request before it is marked ``FAILED``.
        fallback_cooldown: Clean pipeline ticks before speculation re-enables
            after a speculation/verification fault (forwarded to
            :class:`DecodePipeline`).
        planner: Optional :class:`~repro.speculate.planner.TreePlanner`
            forwarded to the :class:`DecodePipeline` — per-tick
            hardware-aware speculation budgets.
        router: Optional :class:`~repro.speculate.router.SpeculatorRouter`
            closing the routing feedback loop: the pipeline reports each
            routed request's acceptance back after every verify.  Pair it
            with a routed session factory
            (:func:`~repro.serving.session.make_routed_factory`) so
            assignments are pinned at admit; preempted requests re-route
            sticky through the same factory.
    """

    def __init__(
        self,
        session_factory: Callable[[Request], DecodeSession],
        max_batch_size: int = 8,
        policy: Optional[Callable] = None,
        memory_pool: Optional["KvMemoryPool"] = None,
        kv_headroom: int = 0,
        backend: Optional[VerificationBackend] = None,
        injector: Optional[FaultInjector] = None,
        preemption_policy: Optional[Callable] = None,
        max_session_retries: int = 3,
        fallback_cooldown: int = 3,
        planner: Optional["TreePlanner"] = None,
        router: Optional["SpeculatorRouter"] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if kv_headroom < 0:
            raise ValueError("kv_headroom must be >= 0")
        if max_session_retries < 0:
            raise ValueError("max_session_retries must be >= 0")
        from repro.serving.policies import fcfs, preempt_newest_first

        self.session_factory = session_factory
        self.max_batch_size = max_batch_size
        self.policy = policy or fcfs
        self.memory_pool = memory_pool
        self.kv_headroom = kv_headroom
        self.backend = backend
        self.injector = injector
        self.preemption_policy = preemption_policy or preempt_newest_first
        self.max_session_retries = max_session_retries
        self.fallback_cooldown = fallback_cooldown
        self.planner = planner
        self.router = router
        #: The one pipeline every iteration runs through, built at the
        #: first prompt pass (``backend=None`` learns the model there).
        self._pipeline: Optional[DecodePipeline] = None
        self.iteration = 0
        self.iteration_stats: List[IterationStats] = []
        self._next_id = 0
        self._tracked: Dict[int, _Tracked] = {}
        self._waiting: List[int] = []
        self._running: List[int] = []
        #: Lifecycle events since the last recorded iteration; drained into
        #: the next :class:`IterationStats` (preempt/fail may also be
        #: triggered between iterations by an external driver).
        self._preempted_events: List[int] = []
        self._failed_events: List[int] = []

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        prompt: Sequence[int],
        config: Optional[GenerationConfig] = None,
    ) -> int:
        """Enqueue a request; returns its id."""
        request = Request(
            request_id=self._next_id,
            prompt=np.asarray(list(prompt), dtype=np.intp),
            config=config or GenerationConfig(),
            arrival_iteration=self.iteration,
        )
        self._next_id += 1
        self._tracked[request.request_id] = _Tracked(request=request)
        self._waiting.append(request.request_id)
        return request.request_id

    # -- scheduling ---------------------------------------------------------------

    @property
    def num_waiting(self) -> int:
        return len(self._waiting)

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    @property
    def free_slots(self) -> int:
        """Batch slots currently unoccupied (admission headroom)."""
        return self.max_batch_size - len(self._running)

    def can_reserve(self, prompt_len: int, max_new_tokens: int) -> bool:
        """Would a request of this shape pass the KV admission check now?

        The gateway's admission control asks this *before* submitting, so
        requests that cannot hold a KV reservation stay in the gateway's
        own queues instead of piling up in the manager.
        """
        if self.memory_pool is None:
            return True
        tokens = prompt_len + max_new_tokens + self.kv_headroom
        return self.memory_pool.can_admit(tokens)

    def run_iteration(self) -> IterationStats:
        """One scheduler iteration: a *prefill* iteration when the round
        admits anything (its first tokens come back without a tick), a
        *decode* iteration otherwise."""
        # The bodies, not ``admit`` / ``step``: those two are the surface an
        # outside driver calls, and a count taken there (the benchmark's
        # ``serving.gateway.ticks`` is calls of ``step``) stays that driver's.
        return self._prefill_iteration() or self._decode_iteration()

    def admit(self) -> Optional[IterationStats]:
        """The prefill iteration alone (sync-core surface): fill free batch
        slots from the waiting queue and run the admitted requests' prompt
        pass.  Returns that iteration's stats — first tokens included — or
        ``None`` when nothing was admitted (no iteration ran).

        The async gateway drives the manager through :meth:`admit` /
        :meth:`step` so admission policy lives outside the core and first
        tokens reach clients before the next tick; the replay path's
        :meth:`run_iteration` is the same two phases, so both advance the
        logical clock identically.
        """
        return self._prefill_iteration()

    def step(self) -> IterationStats:
        """The decode iteration alone (sync-core surface): advance every
        running request by one LLM iteration and retire the finished."""
        return self._decode_iteration()

    def _prefill_iteration(self) -> Optional[IterationStats]:
        """Admit, then score every admitted prompt in one LLM forward.

        ``batch_size`` is the number of requests prefilled and
        ``llm_tokens_scored`` their prompt rows.  A request whose budget is
        one token (or whose first token is EOS) finishes here and returns
        its slot and reservation without ever ticking.
        """
        admitted = self._admit()
        if not admitted:
            return None
        with TRACER.span("repro.serving.iteration", iteration=self.iteration,
                         phase="prefill") as span:
            sessions = [self._tracked[rid].session for rid in admitted]
            if self._pipeline is None:
                model = sessions[0].model
                self._pipeline = DecodePipeline(
                    model, self.backend,
                    injector=self.injector,
                    fallback_cooldown=self.fallback_cooldown,
                    planner=self.planner, router=self.router)
            outcomes = self._pipeline.prefill(
                [session.state for session in sessions])
            stats = self._collect(
                admitted, sessions, outcomes, batch_size=len(admitted),
                admitted=len(admitted), span=span,
                llm_tokens=sum(s.state.prompt.size for s in sessions))
        self._record_iteration(stats)
        return stats

    def _decode_iteration(self) -> IterationStats:
        """Advance every schedulable session by one LLM iteration and
        retire the finished."""
        with TRACER.span("repro.serving.iteration", iteration=self.iteration,
                         phase="decode") as span:
            if self.injector is not None:
                self._apply_kv_pressure()
            batch_size = len(self._running)
            scheduled = self._schedulable()
            sessions = [self._tracked[rid].session for rid in scheduled]
            outcomes = self._tick(sessions)
            for request_id in scheduled:
                self._tracked[request_id].retry_streak = 0
            stats = self._collect(
                scheduled, sessions, outcomes, batch_size=batch_size,
                admitted=0, span=span,
                # Only steps that actually ran: a retiring session emits
                # nothing and records no trace, and re-reading the previous
                # trace would double-count its scored tokens.
                llm_tokens=sum(
                    session.steps[-1].llm_tokens_scored
                    for session, outcome in zip(sessions, outcomes)
                    if outcome.advanced))
        self._record_iteration(stats)
        return stats

    def _collect(self, request_ids: List[int],
                 sessions: List[DecodeSession],
                 outcomes: List[TickOutcome], *, batch_size: int,
                 admitted: int, llm_tokens: int, span) -> IterationStats:
        """Fold one iteration's outcomes into its stats and retire the
        finished (shared by the prefill and the decode iteration)."""
        tokens_emitted = 0
        finished_ids: List[int] = []
        emissions: Dict[int, List[int]] = {}
        for request_id, session, outcome in zip(request_ids, sessions,
                                                outcomes):
            tokens_emitted += len(outcome.emitted)
            if outcome.emitted:
                emissions[request_id] = list(outcome.emitted)
                output = self._tracked[request_id].output
                if output.first_token_iteration is None:
                    output.first_token_iteration = self.iteration
            if session.finished:
                finished_ids.append(request_id)
        for request_id in finished_ids:
            self._retire(request_id)
        stats = IterationStats(
            iteration=self.iteration,
            batch_size=batch_size,
            tokens_emitted=tokens_emitted,
            llm_tokens_scored=llm_tokens,
            admitted=admitted,
            finished=len(finished_ids),
            emissions=emissions,
            finished_ids=finished_ids,
            preempted_ids=self._preempted_events,
            failed_ids=self._failed_events,
        )
        self._preempted_events = []
        self._failed_events = []
        span.set(batch=batch_size, admitted=admitted,
                 finished=len(finished_ids),
                 tokens_emitted=tokens_emitted)
        return stats

    def _record_iteration(self, stats: IterationStats) -> None:
        """Metrics + the iteration log, then advance the logical clock."""
        _ITERATIONS.inc()
        _TOKENS.inc(stats.tokens_emitted)
        _SCORED.inc(stats.llm_tokens_scored)
        _RUNNING.set(len(self._running))
        _WAITING.set(len(self._waiting))
        if stats.batch_size:
            _OCCUPANCY.observe(stats.batch_size)
        self.iteration_stats.append(stats)
        self.iteration += 1

    def _schedulable(self) -> List[int]:
        """Running requests that advance this iteration.

        Applies the failure paths before any session touches the model:
        requests backing off after a transient fault are skipped (they keep
        their slot and reservation), and injected session faults are
        absorbed here — bounded retry with exponential
        backoff-in-iterations, then terminal ``FAILED``.
        """
        ready: List[int] = []
        for request_id in list(self._running):
            tracked = self._tracked[request_id]
            if tracked.cooldown_until > self.iteration:
                continue
            if self.injector is not None and self.injector.should_fire(
                FaultKind.SESSION, request=request_id,
                iteration=self.iteration,
            ):
                self._note_session_fault(request_id)
                continue
            ready.append(request_id)
        return ready

    def _tick(self, sessions: List[DecodeSession]) -> List[TickOutcome]:
        """One tick of the one pipeline over every scheduled session."""
        if self._pipeline is None:
            return []  # nothing was ever admitted, so nothing is running
        return self._pipeline.tick([s.state for s in sessions])

    def run_until_complete(self, max_iterations: int = 100000) -> List[RequestOutput]:
        """Drain the queue; returns finished outputs in completion order.

        FAILED requests leave the queue terminally and do not appear in the
        returned outputs (see :meth:`failed_outputs`).
        """
        start = self.iteration
        while self.has_work:
            if self.iteration - start >= max_iterations:
                raise RuntimeError(
                    f"exceeded {max_iterations} iterations without draining"
                )
            self.run_iteration()
            if self._waiting and not self._running:
                stuck = [
                    rid for rid in self._waiting
                    if not self._try_fits_alone(rid)
                ]
                if stuck:
                    raise MemoryError(
                        f"requests {stuck} can never fit in the KV memory "
                        f"pool even with an empty batch"
                    )
        return self.finished_outputs()

    def _try_fits_alone(self, request_id: int) -> bool:
        """Could this request be admitted into an otherwise empty pool?"""
        if self.memory_pool is None:
            return True
        request = self._tracked[request_id].request
        tokens = (
            len(request.prompt)
            + request.config.max_new_tokens
            + self.kv_headroom
        )
        return self.memory_pool.tokens_to_bytes(tokens) <= \
            self.memory_pool.budget_bytes

    def finished_outputs(self) -> List[RequestOutput]:
        """Outputs of all finished requests, ordered by finish iteration."""
        outputs = [
            t.output
            for t in self._tracked.values()
            if t.request.state is RequestState.FINISHED
        ]
        return sorted(outputs, key=lambda o: (o.finish_iteration, o.request_id))

    def failed_outputs(self) -> List[RequestOutput]:
        """Partial outputs of terminally FAILED requests (failure order)."""
        outputs = [
            t.output
            for t in self._tracked.values()
            if t.request.state is RequestState.FAILED
        ]
        return sorted(outputs, key=lambda o: (o.finish_iteration, o.request_id))

    def output_for(self, request_id: int) -> RequestOutput:
        """The output of one finished (or failed) request."""
        tracked = self._tracked.get(request_id)
        if tracked is None:
            raise KeyError(f"unknown request id {request_id}")
        if tracked.request.state not in (RequestState.FINISHED,
                                         RequestState.FAILED):
            raise ValueError(f"request {request_id} has not finished")
        return tracked.output

    # -- preemption / failure ----------------------------------------------------

    def preempt(self, request_id: int) -> None:
        """Preempt a RUNNING request: requeue it and free its resources.

        The session (and its KV cache) is dropped, the KV reservation is
        released, and the request re-enters the waiting queue with its
        committed tokens saved; on re-admission a fresh session recomputes
        from ``prompt + committed``, so under greedy verification the final
        output is bit-identical to an unpreempted run.
        """
        tracked = self._tracked.get(request_id)
        if tracked is None:
            raise KeyError(f"unknown request id {request_id}")
        if tracked.request.state is not RequestState.RUNNING:
            raise ValueError(f"request {request_id} is not running")
        session = tracked.session
        tracked.committed.extend(int(t) for t in session.tokens)
        tracked.llm_steps_prior += len(session.steps)
        tracked.preemptions += 1
        self._drop_session(request_id)
        tracked.request.state = RequestState.WAITING
        self._waiting.append(request_id)
        self._preempted_events.append(request_id)
        _PREEMPTIONS.inc()
        TRACER.event(
            "repro.serving.preempt",
            request=request_id,
            iteration=self.iteration,
            committed=len(tracked.committed),
            preemptions=tracked.preemptions,
        )

    def _apply_kv_pressure(self) -> None:
        """Preempt one victim when an injected KV-pressure spike fires."""
        if not self._running:
            return
        if not self.injector.should_fire(FaultKind.KV_PRESSURE,
                                         iteration=self.iteration):
            return
        victims = self.preemption_policy(
            [self._tracked[rid].request for rid in self._running]
        )
        if victims:
            self.preempt(victims[0].request_id)

    def _note_session_fault(self, request_id: int) -> None:
        """Bounded retry: back off in iterations, then terminally fail."""
        tracked = self._tracked[request_id]
        tracked.retry_streak += 1
        tracked.total_retries += 1
        _RETRIES.inc()
        if tracked.retry_streak > self.max_session_retries:
            self._fail(request_id, "transient session faults exceeded "
                       f"{self.max_session_retries} consecutive retries")
            return
        backoff = 2 ** (tracked.retry_streak - 1)
        tracked.cooldown_until = self.iteration + backoff
        TRACER.event(
            "repro.serving.retry",
            request=request_id,
            iteration=self.iteration,
            attempt=tracked.retry_streak,
            backoff_iterations=backoff,
        )

    def _fail(self, request_id: int, reason: str) -> None:
        """Terminal failure: release every resource, keep partial output."""
        tracked = self._tracked[request_id]
        if tracked.output is None:
            tracked.output = RequestOutput(request_id=request_id)
        session = tracked.session
        output = tracked.output
        output.tokens = tracked.committed + (
            [int(t) for t in session.tokens] if session is not None else []
        )
        output.finish_iteration = self.iteration
        output.num_llm_steps = tracked.llm_steps_prior + (
            len(session.steps) if session is not None else 0
        )
        output.preemptions = tracked.preemptions
        output.retries = tracked.total_retries
        output.error = reason
        tracked.request.state = RequestState.FAILED
        if request_id in self._running:
            self._drop_session(request_id)
        elif request_id in self._waiting:
            self._waiting.remove(request_id)
        self._failed_events.append(request_id)
        _FAILED.inc()
        TRACER.event(
            "repro.serving.fail",
            request=request_id,
            iteration=self.iteration,
            tokens=len(output.tokens),
            reason=reason,
        )

    def _drop_session(self, request_id: int) -> None:
        """Free a running request's slot, session cache, and reservation."""
        if self.memory_pool is not None:
            self.memory_pool.release(request_id)
        tracked = self._tracked[request_id]
        release = getattr(tracked.session, "release", None)
        if callable(release):
            release()  # paged/arena caches return their rows to the pool
        tracked.session = None  # free the KV cache
        self._running.remove(request_id)

    # -- internals -----------------------------------------------------------------

    def _session_request(self, tracked: _Tracked) -> Request:
        """The request view handed to the session factory.

        First admission passes the request through unchanged.  After a
        preemption this is the *resume view*: the prompt is extended by the
        committed tokens and the budget shrinks by the same amount, so the
        new session's verified prefix is exactly the preempted session's
        committed state and the concatenated output stays within the
        original budget.
        """
        request = tracked.request
        if not tracked.committed:
            return request
        resume = Request(
            request_id=request.request_id,
            prompt=np.concatenate([
                request.prompt,
                np.asarray(tracked.committed, dtype=np.intp),
            ]),
            config=replace(
                request.config,
                max_new_tokens=(request.config.max_new_tokens
                                - len(tracked.committed)),
            ),
            arrival_iteration=request.arrival_iteration,
        )
        resume.state = RequestState.RUNNING
        return resume

    def _admit(self) -> List[int]:
        """Move waiting requests into free batch slots (sessions are built,
        no model runs); returns the admitted request ids in slot order."""
        admitted: List[int] = []
        ordered = self.policy(
            [self._tracked[rid].request for rid in self._waiting]
        )
        for request in ordered:
            if len(self._running) >= self.max_batch_size:
                break
            request_id = request.request_id
            tracked = self._tracked[request_id]
            if tracked.cooldown_until > self.iteration:
                continue  # backing off after an admission-time fault
            if not self._try_reserve(request):
                continue  # does not fit in KV memory right now; skip ahead
            try:
                session = self.session_factory(self._session_request(tracked))
            except Exception as exc:
                # The reservation must not outlive a failed admission —
                # leaking it here would strand KV capacity forever.
                if self.memory_pool is not None:
                    self.memory_pool.release(request_id)
                if isinstance(exc, FaultError):
                    # Injected transient fault at admission: the request
                    # stays WAITING and retries with backoff.
                    self._note_session_fault(request_id)
                    continue
                if isinstance(exc, ValueError):
                    # The request's own data is unservable (prompt too
                    # long, token id outside the vocabulary): fail it
                    # alone and keep admitting the rest of the round.
                    self._fail(request_id, f"rejected at admission: {exc}")
                    continue
                raise
            tracked.session = session
            if tracked.output is None:
                tracked.output = RequestOutput(request_id=request_id)
            tracked.request.state = RequestState.RUNNING
            self._waiting.remove(request_id)
            self._running.append(request_id)
            admitted.append(request_id)
            _ADMITTED.inc()
            TRACER.event(
                "repro.serving.admit",
                request=request_id,
                iteration=self.iteration,
                queued=self.iteration - tracked.request.arrival_iteration,
                prompt_len=len(tracked.request.prompt),
            )
        return admitted

    def _try_reserve(self, request: Request) -> bool:
        if self.memory_pool is None:
            return True
        tokens = (
            len(request.prompt)
            + request.config.max_new_tokens
            + self.kv_headroom
        )
        if not self.memory_pool.can_admit(tokens):
            return False
        self.memory_pool.reserve(request.request_id, tokens)
        return True

    def _retire(self, request_id: int) -> None:
        tracked = self._tracked[request_id]
        session = tracked.session
        output = tracked.output
        output.tokens = tracked.committed + [int(t) for t in session.tokens]
        output.finished_by_eos = session.finished_by_eos
        output.finish_iteration = self.iteration
        output.num_llm_steps = tracked.llm_steps_prior + len(session.steps)
        output.preemptions = tracked.preemptions
        output.retries = tracked.total_retries
        tracked.request.state = RequestState.FINISHED
        self._drop_session(request_id)
        _RETIRED.inc()
        TRACER.event(
            "repro.serving.retire",
            request=request_id,
            iteration=self.iteration,
            tokens=len(output.tokens),
            llm_steps=output.num_llm_steps,
            finished_by_eos=output.finished_by_eos,
        )
