"""The async streaming serving gateway: the system's front door.

The replay stack (:func:`repro.workloads.arrival.drive_manager`) feeds a
pre-scheduled arrival list into the request manager; this module serves
*live* traffic instead.  A :class:`ServingGateway` accepts concurrent
client requests over an in-process async API (and, via
:mod:`repro.serving.transport`, a localhost TCP/JSONL transport), owns
admission control, and streams tokens back as each
:class:`~repro.engine.pipeline.DecodePipeline` tick commits them.

Layering (see ``docs/serving_gateway.md``):

* :class:`~repro.serving.manager.RequestManager` stays the pure
  *synchronous core* — ``admit`` / ``step`` / retire, no awareness of
  clients, tenants, or wall-clock time.  The replay path drives it
  unchanged.
* :class:`ServingGateway` (this module) is the *policy* layer and the
  asyncio *driver*: bounded per-tenant queues, per-tenant weighted
  round-robin with rate limits into the core's free batch slots, and two
  SLO classes (:class:`SloClass`) that label the latency histograms.  Its
  one task is the only place where the event loop and the core meet: each
  cycle it pumps admissions — a round that admits anything is the core's
  prefill iteration, whose first tokens are dispatched at once — or else
  runs one core ``step``, dispatches the per-request committed-token
  deltas (``IterationStats.emissions``) into client streams, and yields.
  That is the replay path's ``run_iteration``, so both drivers advance the
  core's logical clock identically.  The core never blocks on clients and
  clients never block the core.

Mid-stream fault tolerance is inherited from the core: a preempted
request's stream sees a ``stall`` event, then a ``resume`` and the
continuation tokens — never duplicated or corrupted output, because the
core re-derives the resumed session from the committed prefix and the
stream only ever forwards per-tick deltas.

Everything is observable under ``repro.gateway.*`` (queue depth, admission
outcomes, per-SLO-class TTFT/TBT histograms) plus gateway trace spans.
"""

from __future__ import annotations

import asyncio
import enum
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.engine.generation import GenerationConfig
from repro.obs import REGISTRY, TRACER
from repro.serving.manager import RequestManager
from repro.serving.request import RequestOutput

_SUBMITTED = REGISTRY.counter(
    "repro.gateway.submitted", help="requests offered to the gateway")
_ADMITTED = REGISTRY.counter(
    "repro.gateway.admitted", help="requests admitted into the decode core")
_REJECTED = REGISTRY.counter(
    "repro.gateway.rejected", help="requests rejected at admission (all reasons)")
_REJECTED_QUEUE = REGISTRY.counter(
    "repro.gateway.rejected_queue_full",
    help="requests rejected because the tenant queue was full")
_DEFERRED = REGISTRY.counter(
    "repro.gateway.admission_deferred",
    help="admission attempts deferred by a tenant rate limit; the "
         "request stays queued and retries next tick")
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro.gateway.queue_depth",
    help="requests queued across all tenants awaiting admission")
_STREAMS_OPEN = REGISTRY.gauge(
    "repro.gateway.streams_open", help="client token streams currently open")
_TICKS = REGISTRY.counter(
    "repro.gateway.ticks", help="gateway event-loop decode ticks")
_STALLS = REGISTRY.counter(
    "repro.gateway.stalls",
    help="mid-stream stalls surfaced to clients (preemptions)")

#: How long the loop parks waiting for a wake signal when it has no work.
IDLE_WAIT_SECONDS = 0.05

#: Histogram bucket bounds for client-observed latencies (seconds).  The
#: toy substrate decodes a tick in well under a millisecond, so the lower
#: edge resolves sub-millisecond TTFT; the upper edges absorb loaded runs.
_LATENCY_BUCKETS = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
                    5.0, 30.0)


class SloClass(enum.Enum):
    """The gateway's two service-level objective classes.

    They are labels: the TTFT/TBT histograms are kept per class, and both
    classes are scheduled alike.  (A first token comes from the prompt pass
    of the round that admits the request, so there is no cold request for
    an interactive-only tick to favour.)
    """

    INTERACTIVE = "interactive"
    BATCH = "batch"

    @classmethod
    def parse(cls, value: "str | SloClass") -> "SloClass":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown SLO class {value!r}; expected one of "
                f"{[c.value for c in cls]}"
            ) from None


def _slo_histogram(stem: str) -> Dict[SloClass, object]:
    return {
        slo: REGISTRY.histogram(
            f"repro.gateway.{stem}.{slo.value}", buckets=_LATENCY_BUCKETS,
            help=f"{stem.replace('_', ' ')} for {slo.value}-class requests",
        )
        for slo in SloClass
    }


_TTFT = _slo_histogram("ttft_seconds")
_TBT = _slo_histogram("tbt_seconds")


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant admission policy.

    Attributes:
        name: Tenant identifier.
        weight: Weighted-round-robin share relative to other tenants.
        max_queue_depth: Bounded-queue limit; submissions beyond it are
            rejected with ``queue_full`` (backpressure, not buffering).
        rate_per_tick: Admissions allowed per gateway tick (token bucket
            of capacity ``max(1, rate_per_tick)``); ``None`` disables rate
            limiting for the tenant.
    """

    name: str
    weight: int = 1
    max_queue_depth: int = 16
    rate_per_tick: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.rate_per_tick is not None and self.rate_per_tick <= 0:
            raise ValueError("rate_per_tick must be positive")

    @property
    def bucket_capacity(self) -> float:
        if self.rate_per_tick is None:
            return float("inf")
        return max(1.0, float(self.rate_per_tick))


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway-wide policy knobs.

    Attributes:
        tenants: Explicit tenant configurations by name.
        auto_tenants: Whether submissions naming an unknown tenant create
            one on the fly, with the default policy
            (``TenantConfig(name=tenant)``).
    """

    tenants: Dict[str, TenantConfig] = field(default_factory=dict)
    auto_tenants: bool = True


class AdmissionError(RuntimeError):
    """A submission the gateway refused to queue.

    Attributes:
        reason: Machine-readable reason — ``queue_full`` (tenant queue at
            its bound) or ``unknown_tenant`` (a tenant the gateway does not
            know, with ``auto_tenants`` off).
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


@dataclass(frozen=True)
class StreamEvent:
    """One event on a client token stream.

    ``kind`` is one of ``token`` (one committed token), ``stall`` (the
    request was preempted mid-stream; tokens pause but nothing is lost),
    ``resume`` (the preempted request re-entered the batch and its next
    delta follows), ``done`` (terminal success), or ``failed`` (terminal
    failure after bounded retries).
    """

    kind: str
    token: Optional[int] = None
    index: Optional[int] = None
    reason: Optional[str] = None

    def to_wire(self) -> Dict[str, object]:
        """The event as a JSONL-friendly dict (transport encoding)."""
        record: Dict[str, object] = {"event": self.kind}
        if self.token is not None:
            record["token"] = self.token
        if self.index is not None:
            record["index"] = self.index
        if self.reason is not None:
            record["reason"] = self.reason
        return record


_TERMINAL = ("done", "failed")

#: Every stream a gateway opened and has not yet ended.  ``streams_open``
#: is its size, so a registry reset cannot leave the gauge off by the
#: streams open across it.
_OPEN_STREAMS: "weakref.WeakSet[TokenStream]" = weakref.WeakSet()


def _set_streams_open() -> None:
    _STREAMS_OPEN.set(len(_OPEN_STREAMS))


REGISTRY.on_reset(_set_streams_open)


class TokenStream:
    """The client half of one streaming request.

    Async-iterate to receive :class:`StreamEvent`s as the decode loop
    commits them; iteration ends after the terminal ``done``/``failed``
    event (which is itself yielded).  :meth:`collect` is the convenience
    wrapper that gathers just the tokens.
    """

    def __init__(self, tenant: str, slo: SloClass):
        self.tenant = tenant
        self.slo = slo
        self.request_id: Optional[int] = None
        self.output: Optional[RequestOutput] = None
        self.error: Optional[str] = None
        self.closed = False
        self._queue: "asyncio.Queue[StreamEvent]" = asyncio.Queue()
        self._drained = False

    # -- producer side (gateway loop) ----------------------------------------------

    def push(self, event: StreamEvent) -> None:
        if self.closed:
            return
        self._queue.put_nowait(event)
        if event.kind in _TERMINAL:
            self.closed = True
            _OPEN_STREAMS.discard(self)
            _set_streams_open()

    # -- consumer side (client) ----------------------------------------------------

    def __aiter__(self) -> "TokenStream":
        return self

    async def __anext__(self) -> StreamEvent:
        if self._drained:
            raise StopAsyncIteration
        event = await self._queue.get()
        if event.kind in _TERMINAL:
            self._drained = True
        return event

    async def collect(self) -> List[int]:
        """Drain the stream; returns the full token list.

        Raises :class:`GatewayRequestFailed` if the request terminally
        failed (the partial tokens ride on the exception).
        """
        tokens: List[int] = []
        async for event in self:
            if event.kind == "token":
                tokens.append(int(event.token))
            elif event.kind == "failed":
                raise GatewayRequestFailed(event.reason or "failed", tokens)
        return tokens


class GatewayRequestFailed(RuntimeError):
    """A streamed request ended in terminal failure."""

    def __init__(self, reason: str, partial_tokens: List[int]):
        super().__init__(reason)
        self.partial_tokens = partial_tokens


@dataclass
class _TenantState:
    """One tenant's live admission state."""

    config: TenantConfig
    queue: Deque["_GwRequest"] = field(default_factory=deque)
    bucket: float = 0.0

    def refill(self) -> None:
        rate = self.config.rate_per_tick
        if rate is None:
            return
        self.bucket = min(self.config.bucket_capacity, self.bucket + rate)


@dataclass
class _GwRequest:
    """Gateway-side tracking for one submission."""

    prompt: List[int]
    config: GenerationConfig
    tenant: str
    slo: SloClass
    stream: TokenStream
    submitted_at: float
    request_id: Optional[int] = None
    first_token_at: Optional[float] = None
    last_token_at: Optional[float] = None
    emitted: int = 0
    stalled: bool = False


class ServingGateway:
    """Admission control + streaming dispatch over the synchronous core.

    Args:
        manager: The synchronous scheduling core.  The gateway assumes
            exclusive ownership: nothing else may submit to or step the
            manager while the gateway is running.
        config: Gateway policy knobs.

    Usage::

        gateway = ServingGateway(manager)
        await gateway.start()
        stream = await gateway.submit(prompt, config, tenant="alpha",
                                      slo=SloClass.INTERACTIVE)
        async for event in stream: ...
        await gateway.stop()
    """

    def __init__(self, manager: RequestManager,
                 config: Optional[GatewayConfig] = None):
        self.manager = manager
        self.config = config or GatewayConfig()
        self._tenants: Dict[str, _TenantState] = {
            name: _TenantState(config=cfg)
            for name, cfg in self.config.tenants.items()
        }
        self._by_id: Dict[int, _GwRequest] = {}
        self._wrr_credit: Dict[str, float] = {}
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._closing = False
        self.peak_queue_depth = 0
        #: Decode iterations the loop has run (prefill iterations excluded).
        self.ticks = 0

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the event-loop driver task."""
        if self._task is not None:
            raise RuntimeError("gateway already started")
        self._closing = False
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, drain: bool = True) -> None:
        """Stop the loop task; by default drain all in-flight work first.

        A gateway that is not running has nothing to drain with: every
        stream it still holds ends ``failed`` with reason ``shutdown``.
        """
        if self._task is None:
            self._abort_all("shutdown")
            return
        if not drain:
            self._abort_queued("shutdown")
        self._closing = True
        self._wake.set()
        task, self._task = self._task, None
        await task  # re-raises whatever killed the loop

    def _abort_queued(self, reason: str) -> None:
        for state in self._tenants.values():
            while state.queue:
                gwreq = state.queue.popleft()
                gwreq.stream.push(StreamEvent(kind="failed", reason=reason))
        _QUEUE_DEPTH.set(0)

    def _abort_all(self, reason: str) -> None:
        """Terminal ``failed`` for every queued and in-flight stream (the
        loop is dying: nothing will ever dispatch to them again)."""
        self._abort_queued(reason)
        while self._by_id:
            _, gwreq = self._by_id.popitem()
            gwreq.stream.error = reason
            gwreq.stream.push(StreamEvent(kind="failed", reason=reason))

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def has_work(self) -> bool:
        """Anything queued, in the core, or streaming without its terminal
        event yet."""
        return self.manager.has_work or bool(self._by_id) or any(
            state.queue for state in self._tenants.values()
        )

    @property
    def queue_depth(self) -> int:
        return sum(len(state.queue) for state in self._tenants.values())

    # -- the loop ------------------------------------------------------------------

    async def _run(self) -> None:
        """Drive the core until the gateway is closing and fully drained.

        Every cycle ends in ``asyncio.sleep(0)``, which yields control to
        the event loop so client tasks interleave with decoding.  If the
        core raises, every queued and in-flight stream gets a terminal
        ``failed`` event carrying the reason before the exception
        propagates (``stop()`` re-raises it), so no client outlives the
        loop waiting for tokens.
        """
        try:
            while True:
                if self._pump_admissions():
                    # A prefill iteration ran and its first tokens are on
                    # the client streams: let the clients read them before
                    # a tick.
                    await asyncio.sleep(0)
                    continue
                if not self.manager.num_running:
                    if self._closing and not self.has_work:
                        return
                    if self.has_work:
                        # Work exists but nothing is admissible right now
                        # (rate limit, or a requeued request backing off in
                        # the core), or a request failed at admission and
                        # its terminal event is still in the core: run an
                        # idle core tick so the logical clock — and with it
                        # the rate buckets and retry cooldowns — advances
                        # and the event is dispatched.
                        self._tick()
                        await asyncio.sleep(0)
                        continue
                    await self._wait_for_work()
                    continue
                self._tick()
                await asyncio.sleep(0)
        except Exception as exc:
            self._abort_all(f"gateway loop died: {exc!r}")
            raise

    def _tick(self) -> None:
        """One synchronous decode iteration plus stream dispatch."""
        with TRACER.span(
            "repro.gateway.tick",
            tick=self.ticks,
            running=self.manager.num_running,
            queued=self.queue_depth,
        ):
            stats = self.manager.step()
        _TICKS.inc()
        self.ticks += 1
        self._dispatch(stats)

    async def _wait_for_work(self) -> None:
        """Park until a submission wakes us (or the idle timeout elapses).

        The timeout keeps shutdown responsive even if a wake signal races
        the park; it is not a correctness mechanism.
        """
        if self._closing and not self.has_work:
            return
        self._wake.clear()
        if self.has_work or self._closing:
            return
        try:
            await asyncio.wait_for(self._wake.wait(),
                                   timeout=IDLE_WAIT_SECONDS)
        except asyncio.TimeoutError:
            pass

    # -- submission ----------------------------------------------------------------

    def _tenant_state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            if not self.config.auto_tenants:
                raise AdmissionError("unknown_tenant",
                                     f"unknown tenant {tenant!r}")
            state = _TenantState(config=TenantConfig(name=tenant))
            self._tenants[tenant] = state
        return state

    async def submit(
        self,
        prompt: Sequence[int],
        config: Optional[GenerationConfig] = None,
        tenant: str = "default",
        slo: "str | SloClass" = SloClass.INTERACTIVE,
    ) -> TokenStream:
        """Offer a request; returns its :class:`TokenStream` when queued.

        Raises :class:`AdmissionError` when the tenant's bounded queue is
        full (``queue_full``).  A full batch and rate limits do *not*
        reject — the request waits in the tenant queue and the admission
        pump retries it each tick.  A prompt the model cannot take fails
        alone at admission, as a terminal ``failed`` event on its stream.
        """
        _SUBMITTED.inc()
        slo = SloClass.parse(slo)
        config = config or GenerationConfig()
        state = self._tenant_state(tenant)
        prompt_list = [int(t) for t in prompt]
        if len(state.queue) >= state.config.max_queue_depth:
            _REJECTED.inc()
            _REJECTED_QUEUE.inc()
            TRACER.event("repro.gateway.reject", tenant=tenant,
                         reason="queue_full")
            raise AdmissionError(
                "queue_full",
                f"tenant {tenant!r} queue at bound "
                f"{state.config.max_queue_depth}")
        stream = TokenStream(tenant=tenant, slo=slo)
        gwreq = _GwRequest(
            prompt=prompt_list,
            config=config,
            tenant=tenant,
            slo=slo,
            stream=stream,
            submitted_at=time.perf_counter(),
        )
        state.queue.append(gwreq)
        _OPEN_STREAMS.add(stream)
        _set_streams_open()
        _QUEUE_DEPTH.set(self.queue_depth)
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        TRACER.event("repro.gateway.submit", tenant=tenant, slo=slo.value,
                     prompt_len=len(prompt_list), queued=self.queue_depth)
        if self._wake is not None:
            self._wake.set()
        return stream

    # -- admission pump (called by the loop each cycle) ----------------------------

    def _pump_admissions(self) -> bool:
        """Move queued requests into the core, WRR across tenants, and run
        the core's prefill iteration over whatever the round admits; its
        first tokens are dispatched before this returns.  Returns whether
        a prefill iteration ran.

        A candidate is admitted only when a batch slot is free *and* its
        tenant's rate bucket has credit; otherwise it stays queued
        (deferred, not rejected).
        Within one tenant the queue is strictly FIFO so admission order
        matches submission order — the property the replay-parity suite
        pins.

        Requests already waiting *inside* the core — preempted-and-requeued
        or backing off after an admission-time fault — take precedence:
        they went through gateway admission once and their (earlier)
        arrival iteration wins the core's FCFS ordering, so the pump leaves
        slots for them before submitting new work.
        """
        for state in self._tenants.values():
            state.refill()
        admitted = 0
        blocked: set = set()
        requeued = self.manager.num_waiting
        while self.manager.free_slots - requeued - admitted > 0:
            eligible = {
                name: state.config.weight
                for name, state in self._tenants.items()
                if state.queue and name not in blocked
            }
            if not eligible:
                break
            name = self._wrr_next(eligible)
            state = self._tenants[name]
            gwreq = state.queue[0]
            if state.config.rate_per_tick is not None and state.bucket < 1.0:
                _DEFERRED.inc()
                blocked.add(name)
                continue
            state.queue.popleft()
            if state.config.rate_per_tick is not None:
                state.bucket -= 1.0
            request_id = self.manager.submit(gwreq.prompt, gwreq.config)
            gwreq.request_id = request_id
            gwreq.stream.request_id = request_id
            self._by_id[request_id] = gwreq
            admitted += 1
            _ADMITTED.inc()
            TRACER.event("repro.gateway.admit", request=request_id,
                         tenant=name, slo=gwreq.slo.value)
        stats = None
        if admitted or self.manager.num_waiting:
            # Fill slots even with nothing newly submitted: the core's own
            # waiting queue holds preempted/requeued requests that must
            # re-enter once their cooldown lapses or a slot frees up.
            stats = self.manager.admit()
        _QUEUE_DEPTH.set(self.queue_depth)
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        if stats is not None:
            self._dispatch(stats)
        return stats is not None

    def _wrr_next(self, eligible: Dict[str, int]) -> str:
        """Smooth weighted round-robin over the eligible tenants."""
        total = sum(eligible.values())
        best: Optional[str] = None
        for name in sorted(eligible):
            credit = self._wrr_credit.get(name, 0.0) + eligible[name]
            self._wrr_credit[name] = credit
            if best is None or credit > self._wrr_credit[best]:
                best = name
        self._wrr_credit[best] -= total
        return best

    # -- dispatch (after each core iteration, prefill or decode) -------------------

    def _dispatch(self, stats) -> None:
        """Forward one iteration's outcomes into the client streams."""
        now = time.perf_counter()
        for request_id in stats.preempted_ids:
            gwreq = self._by_id.get(request_id)
            if gwreq is None:
                continue
            gwreq.stalled = True
            _STALLS.inc()
            gwreq.stream.push(StreamEvent(kind="stall", reason="preempted"))
            TRACER.event("repro.gateway.stall", request=request_id,
                         reason="preempted")
        for request_id, tokens in stats.emissions.items():
            gwreq = self._by_id.get(request_id)
            if gwreq is None:
                continue
            if gwreq.stalled:
                gwreq.stalled = False
                gwreq.stream.push(StreamEvent(kind="resume"))
            if gwreq.first_token_at is None:
                gwreq.first_token_at = now
                _TTFT[gwreq.slo].observe(now - gwreq.submitted_at)
            else:
                _TBT[gwreq.slo].observe(now - gwreq.last_token_at)
            gwreq.last_token_at = now
            for token in tokens:
                gwreq.stream.push(StreamEvent(
                    kind="token", token=int(token), index=gwreq.emitted))
                gwreq.emitted += 1
        for request_id in stats.finished_ids:
            gwreq = self._by_id.pop(request_id, None)
            if gwreq is None:
                continue
            gwreq.stream.output = self.manager.output_for(request_id)
            gwreq.stream.push(StreamEvent(kind="done"))
            TRACER.event("repro.gateway.done", request=request_id,
                         tokens=gwreq.emitted)
        for request_id in stats.failed_ids:
            gwreq = self._by_id.pop(request_id, None)
            if gwreq is None:
                continue
            output = self.manager.output_for(request_id)
            gwreq.stream.output = output
            gwreq.stream.error = output.error
            gwreq.stream.push(StreamEvent(
                kind="failed", reason=output.error or "failed"))
            TRACER.event("repro.gateway.fail", request=request_id,
                         reason=output.error or "failed")
