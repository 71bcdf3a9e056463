"""Per-request decode sessions: thin adapters over the unified pipeline.

A session binds one :class:`~repro.serving.request.Request` to a
:class:`~repro.engine.pipeline.DecodeState` and a single-lane
:class:`~repro.engine.pipeline.DecodePipeline`; ``step()`` is one pipeline
tick — a batch of one.  Building a session runs no model: the manager
scores the prompts of every request it admits in one round through
:meth:`~repro.engine.pipeline.DecodePipeline.prefill`, and a standalone
session's first ``step()`` takes the same prompt pass before its first
tick.  The request managers interleave sessions at
iteration granularity (continuous batching) by ticking session *states*
through a pipeline the manager owns wherever one LLM pass can serve the
batch — every incremental session of an iteration through one
``IncrementalBackend`` pipeline, every session through one fused backend
when the manager has one — and by stepping each speculative session
through its own pipeline otherwise (per-request serving; see
:class:`~repro.serving.manager.RequestManager`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional

from repro.engine.generation import StepTrace
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    IncrementalBackend,
    PerRequestBackend,
    TickOutcome,
    VerificationBackend,
)
from repro.model.transformer import TransformerLM
from repro.serving.request import Request
from repro.speculate.speculator import Speculator


class DecodeSession(ABC):
    """State machine advancing one request by one LLM iteration per step.

    Args:
        request: The request being served.
        model: The LLM.
        cache_factory: Optional override for KV-cache allocation — e.g.
            ``pool.new_sequence`` to place this request's cache in a shared
            :class:`~repro.model.paged_cache.PagedKVPool`.  Defaults to a
            private contiguous cache.
        speculator_factory: Builds a fresh per-request speculator, or
            ``None`` for incremental decoding.
    """

    def __init__(self, request: Request, model: TransformerLM,
                 cache_factory: Callable = None,
                 speculator_factory: Optional[Callable[[], Speculator]] = None):
        self.request = request
        self.model = model
        self.state = DecodeState(
            model,
            request.prompt,
            request.config,
            speculator=speculator_factory() if speculator_factory else None,
            cache_factory=cache_factory,
        )
        self._pipeline = DecodePipeline(model, self._make_backend(model))

    @abstractmethod
    def _make_backend(self, model: TransformerLM) -> VerificationBackend:
        """The backend standalone ``step()`` calls verify through."""

    # -- legacy surface (delegates to the pipeline state) --------------------------

    @property
    def tokens(self) -> List[int]:
        return self.state.tokens

    @property
    def steps(self) -> List[StepTrace]:
        return self.state.steps

    @property
    def finished_by_eos(self) -> bool:
        return self.state.finished_by_eos

    @property
    def finished(self) -> bool:
        return self.state.finished

    @property
    def cache(self):
        """The session's KV cache (batched verifiers compact it)."""
        return self.state.cache

    @property
    def speculator(self):
        return self.state.speculator

    def tick(self) -> TickOutcome:
        """One LLM decoding iteration through this session's own pipeline
        (a batch of one)."""
        return self._pipeline.tick([self.state])[0]

    def step(self) -> List[int]:
        """One LLM decoding iteration; returns emitted tokens (led by the
        prompt pass's first token when nobody prefilled this session)."""
        return self.tick().emitted

    def attach_injector(self, injector,
                        fallback_cooldown: Optional[int] = None) -> None:
        """Arm this session's standalone pipeline with a fault injector.

        Per-request serving has one pipeline per session, so the manager
        calls this at admission; fused serving instead arms the single
        shared pipeline.  Speculation/verification faults then degrade this
        session to incremental decoding for ``fallback_cooldown`` ticks.
        """
        self._pipeline.injector = injector
        if fallback_cooldown is not None:
            self._pipeline.fallback_cooldown = fallback_cooldown

    def attach_router(self, router) -> None:
        """Arm this session's standalone pipeline with a speculator router.

        Per-request serving has one pipeline per session (fused serving
        arms the one shared pipeline instead), so the manager calls this at
        admission; the pipeline then feeds the session's per-tick
        acceptance back through ``state.route``.
        """
        self._pipeline.router = router

    def release(self) -> None:
        """Free the session's cache resources (paged caches return their
        blocks to the pool; contiguous caches have nothing to do)."""
        self.state.release()


class IncrementalSession(DecodeSession):
    """One token per iteration (Algorithm 1 — the pipeline's degenerate
    one-node-tree case)."""

    def __init__(self, request: Request, model: TransformerLM,
                 cache_factory: Callable = None):
        super().__init__(request, model, cache_factory=cache_factory)

    def _make_backend(self, model: TransformerLM) -> VerificationBackend:
        return IncrementalBackend(model)


class SpeculativeSession(DecodeSession):
    """Tree-based speculate/verify per iteration (Algorithm 2).

    Args:
        request: The request being served.
        model: The LLM.
        speculator_factory: Builds a fresh :class:`Speculator` per session
            (speculators hold per-request SSM caches).
    """

    def __init__(
        self,
        request: Request,
        model: TransformerLM,
        speculator_factory: Callable[[], Speculator],
        cache_factory: Callable = None,
    ):
        super().__init__(request, model, cache_factory=cache_factory,
                         speculator_factory=speculator_factory)

    def _make_backend(self, model: TransformerLM) -> VerificationBackend:
        # Speculation and verification share the request's seeded RNG, so a
        # standalone session replays exactly like the offline engine.
        return PerRequestBackend(model)


def make_routed_factory(model: TransformerLM, pool, router,
                        cache_factory: Callable = None):
    """A session factory that pins a routed speculator per request at admit.

    The router decides once per request id; the decision is sticky, so a
    preempted request re-admitted through its resume view (same id) gets
    the same pool member back and replays its committed prefix under the
    identical draft distribution.  The assignment rides on
    ``session.state.route``, which the pipeline uses to feed the request's
    per-tick acceptance back to the router after each verify.

    Works for both serving modes: per-request managers additionally call
    :meth:`DecodeSession.attach_router` on the session, fused managers arm
    the shared pipeline via their ``router=`` argument.
    """

    def factory(request: Request) -> SpeculativeSession:
        assignment = router.route(request.request_id, request.prompt)
        session = SpeculativeSession(
            request, model,
            lambda: pool.make_speculator(assignment.member),
            cache_factory=cache_factory,
        )
        session.state.route = assignment
        return session

    return factory
