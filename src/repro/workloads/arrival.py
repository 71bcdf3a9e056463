"""Request arrival processes for serving experiments.

The paper's serving benchmarks submit a fixed batch up front; real serving
sees requests arrive over time.  This module generates Poisson arrival
schedules (memoryless, the standard open-loop model) in the request
manager's iteration clock, so load studies (queueing delay vs
arrival rate, continuous-batching occupancy) can run on the same runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One scheduled request arrival.

    Attributes:
        iteration: Scheduler iteration at which the request arrives.
        prompt: The request's prompt tokens.
        request_id: Stable tie-break key for arrivals that share an
            iteration — the schedule's draw order.  Simultaneous arrivals
            are submitted in ``(iteration, request_id)`` order everywhere
            (replay and gateway admission), so the submission order cannot
            drift with platform-dependent sort behavior.
    """

    iteration: int
    prompt: np.ndarray
    request_id: int = 0


def sort_arrivals(arrivals: List[Arrival]) -> List[Arrival]:
    """Arrivals in canonical submission order: ``(iteration, request_id)``.

    Every consumer of a schedule (the replay driver, the gateway's load
    generators) must order simultaneous arrivals identically or admission
    order — and therefore queueing metrics — diverges between them.
    """
    return sorted(arrivals, key=lambda a: (a.iteration, a.request_id))


class PoissonArrivals:
    """Poisson arrival schedule over manager iterations.

    Args:
        rate: Expected arrivals per iteration.
        dataset: A prompt source with ``sample_prompt(max_len)`` (any
            :class:`~repro.workloads.datasets.PromptDataset`).
        seed: RNG seed.
        max_prompt_len: Truncation for sampled prompts.
    """

    def __init__(self, rate: float, dataset, seed: int = 0,
                 max_prompt_len: int = 0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.dataset = dataset
        self.max_prompt_len = max_prompt_len
        self._rng = np.random.default_rng(seed)

    def schedule(self, num_requests: int) -> List[Arrival]:
        """Arrival times for ``num_requests`` requests.

        Inter-arrival gaps are exponential with mean ``1 / rate``; times are
        floored to integer iterations (multiple arrivals may share one).
        Simultaneous arrivals are tie-broken by the stable
        ``(iteration, request_id)`` key — ``request_id`` is the RNG draw
        order — so replay and gateway admission agree on submission order
        across platforms.
        """
        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        gaps = self._rng.exponential(1.0 / self.rate, size=num_requests)
        times = np.floor(np.cumsum(gaps)).astype(int)
        return sort_arrivals([
            Arrival(
                iteration=int(t),
                prompt=self.dataset.sample_prompt(max_len=self.max_prompt_len),
                request_id=i,
            )
            for i, t in enumerate(times)
        ])


def drive_manager(manager, arrivals: List[Arrival], config=None,
                  max_iterations: int = 100000) -> List[int]:
    """Run a request manager against an arrival schedule.

    Submits each arrival at its scheduled iteration (running idle
    iterations as needed), then drains.  Returns the submitted request ids
    in arrival order.
    """
    from repro.engine.generation import GenerationConfig

    config = config or GenerationConfig()
    pending = sort_arrivals(arrivals)
    ids: List[int] = []
    i = 0
    while i < len(pending):
        # Submit everything scheduled for the current iteration.
        while i < len(pending) and pending[i].iteration <= manager.iteration:
            ids.append(manager.submit(pending[i].prompt, config))
            i += 1
        if i < len(pending):
            manager.run_iteration()
            if manager.iteration > max_iterations:
                raise RuntimeError("arrival schedule never drained")
    manager.run_until_complete(max_iterations=max_iterations)
    return ids
