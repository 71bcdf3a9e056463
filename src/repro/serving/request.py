"""Request lifecycle types for the serving runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.engine.generation import GenerationConfig


class RequestState(enum.Enum):
    """Where a request is in its lifecycle.

    ``WAITING -> RUNNING -> FINISHED`` is the happy path.  A preempted
    request moves ``RUNNING -> WAITING`` (it re-enters the queue and
    recomputes from its committed tokens on re-admission).  ``FAILED`` is
    terminal: the manager gave up after exhausting bounded retries, so one
    poisoned request cannot stall the batch.
    """

    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class Request:
    """One LLM serving request.

    Attributes:
        request_id: Unique id assigned by the request manager.
        prompt: Input token ids.
        config: Generation bounds/decoding mode.
        arrival_iteration: Manager iteration at which the request arrived.
        state: Lifecycle state (managed by the request manager).
    """

    request_id: int
    prompt: np.ndarray
    config: GenerationConfig
    arrival_iteration: int = 0
    state: RequestState = RequestState.WAITING

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.intp)
        if self.prompt.size == 0:
            raise ValueError("prompt must be non-empty")


@dataclass
class RequestOutput:
    """A finished (or failed) request's result.

    Attributes:
        request_id: The request this output belongs to.
        arrival_iteration: Iteration at which the request was submitted
            (kept across preemptions).
        tokens: Generated tokens (partial for FAILED requests).
        finished_by_eos: Whether generation hit EOS (vs the token budget).
        first_token_iteration: Iteration at which the first token appeared
            (``None`` when the request never emitted — e.g. it failed or
            was retired before producing a token).
        finish_iteration: Iteration at which the request completed/failed.
        num_llm_steps: LLM decoding iterations the request consumed, summed
            across preemption incarnations.
        preemptions: Times the request was preempted and requeued.
        retries: Transient session faults absorbed by bounded retry.
        error: Failure reason (``None`` unless the request FAILED).
    """

    request_id: int
    arrival_iteration: int = 0
    tokens: List[int] = field(default_factory=list)
    finished_by_eos: bool = False
    first_token_iteration: Optional[int] = None
    finish_iteration: Optional[int] = None
    num_llm_steps: int = 0
    preemptions: int = 0
    retries: int = 0
    error: Optional[str] = None
