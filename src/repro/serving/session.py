"""Per-request decode sessions: a request bound to its decode state.

A session pairs one :class:`~repro.serving.request.Request` with its
:class:`~repro.engine.pipeline.DecodeState`.  It owns no pipeline and runs
no model: the session factory only chooses *what* is served (no speculator:
Algorithm 1; a per-request speculator: Algorithm 2), and
:class:`~repro.serving.manager.RequestManager` prefills and ticks every
running session's state through its one pipeline.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engine.generation import StepTrace
from repro.engine.pipeline import DecodeState
from repro.model.transformer import TransformerLM
from repro.serving.request import Request
from repro.speculate.speculator import Speculator


class DecodeSession:
    """One request and its decode state.

    Args:
        request: The request being served.
        model: The LLM.
        cache_factory: Optional KV-cache allocation override (e.g.
            ``arena.new_sequence``); default a private cache.
        speculator_factory: Builds a fresh per-request speculator (they
            hold per-request SSM caches); ``None`` decodes incrementally.
    """

    def __init__(self, request: Request, model: TransformerLM,
                 cache_factory: Callable = None,
                 speculator_factory: Optional[Callable[[], Speculator]] = None):
        self.request = request
        self.model = model
        self.state = DecodeState(
            model, request.prompt, request.config,
            speculator=speculator_factory() if speculator_factory else None,
            cache_factory=cache_factory,
        )

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

    def release(self) -> None:
        """Return the cache's rows to the arena they came from."""
        self.state.release()


class IncrementalSession(DecodeSession):
    """One token per iteration (Algorithm 1): every tree a bare root."""


class SpeculativeSession(DecodeSession):
    """Tree-based speculate/verify per iteration (Algorithm 2)."""

    def __init__(self, request: Request, model: TransformerLM,
                 speculator_factory: Callable[[], Speculator],
                 cache_factory: Callable = None):
        super().__init__(request, model, cache_factory=cache_factory,
                         speculator_factory=speculator_factory)

