"""Serving-level latency and throughput metrics.

Converts the request manager's iteration log plus per-request outputs into
the metrics serving papers report: time-to-first-token (TTFT), time per
output token (TPOT), end-to-end completion time, and aggregate throughput.
Times are reported in *iterations* by default — the manager's logical clock
— and can be converted to seconds with a per-iteration latency model (the
cluster simulator's step latencies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.serving.manager import IterationStats
from repro.serving.request import RequestOutput


@dataclass(frozen=True)
class RequestLatency:
    """One request's latency decomposition (iteration units).

    Attributes:
        request_id: The request.
        queueing: Iterations spent waiting before the first decode, or
            ``None`` when the request never emitted a token.
        ttft: Arrival to first emitted token, or ``None`` when the request
            finished (or failed) without emitting — a tokenless request has
            no first token, so TTFT is undefined rather than zero.
        completion: Arrival to finish.
        tpot: Mean decode iterations per emitted token after the first,
            which the prompt pass emits (0.0 for a tokenless request).
    """

    request_id: int
    queueing: Optional[int]
    ttft: Optional[int]
    completion: int
    tpot: float


@dataclass(frozen=True)
class ServingReport:
    """Aggregate metrics over a set of finished requests."""

    num_requests: int
    total_iterations: int
    total_tokens: int
    mean_ttft: float
    p95_ttft: float
    mean_completion: float
    p95_completion: float
    mean_tpot: float
    tokens_per_iteration: float
    mean_batch_occupancy: float


def request_latency(output: RequestOutput, arrival_iteration: int) -> RequestLatency:
    """Latency decomposition for one finished (or failed) request.

    A request that completed without emitting any tokens — it failed, or
    retired with an exhausted context — gets ``ttft=None`` /
    ``queueing=None`` / ``tpot=0.0`` rather than raising: completion time is
    still well-defined for it, and aggregate reports simply exclude it from
    the token-timing statistics.
    """
    if output.finish_iteration is None:
        raise ValueError(f"request {output.request_id} has not finished")
    completion = output.finish_iteration - arrival_iteration
    if output.first_token_iteration is None:
        return RequestLatency(
            request_id=output.request_id,
            queueing=None,
            ttft=None,
            completion=completion,
            tpot=0.0,
        )
    ttft = output.first_token_iteration - arrival_iteration + 1
    running = max(1, output.num_llm_steps)
    return RequestLatency(
        request_id=output.request_id,
        queueing=output.first_token_iteration - arrival_iteration,
        ttft=ttft,
        completion=completion,
        tpot=running / max(1, len(output.tokens) - 1),
    )


def build_report(
    outputs: Sequence[RequestOutput],
    arrivals: Sequence[int],
    iteration_stats: Sequence[IterationStats],
) -> ServingReport:
    """Aggregate a finished run into a :class:`ServingReport`.

    Args:
        outputs: Finished request outputs.
        arrivals: Arrival iteration per output (parallel sequence).
        iteration_stats: The manager's per-iteration log.
    """
    if not outputs:
        raise ValueError("no outputs to report on")
    if len(outputs) != len(arrivals):
        raise ValueError("outputs and arrivals must be parallel")
    latencies = [
        request_latency(output, arrival)
        for output, arrival in zip(outputs, arrivals)
    ]
    # Token-timing statistics only cover requests that actually emitted;
    # tokenless requests (ttft=None) still count toward completion times.
    emitting = [l for l in latencies if l.ttft is not None]
    ttfts = np.array([l.ttft for l in emitting], dtype=np.float64)
    tpots = np.array([l.tpot for l in emitting], dtype=np.float64)
    completions = np.array([l.completion for l in latencies],
                           dtype=np.float64)
    total_tokens = sum(len(o.tokens) for o in outputs)
    busy = [s for s in iteration_stats if s.batch_size > 0]
    total_iterations = len(iteration_stats)
    nan = float("nan")
    return ServingReport(
        num_requests=len(outputs),
        total_iterations=total_iterations,
        total_tokens=total_tokens,
        mean_ttft=float(ttfts.mean()) if emitting else nan,
        p95_ttft=float(np.percentile(ttfts, 95)) if emitting else nan,
        mean_completion=float(completions.mean()),
        p95_completion=float(np.percentile(completions, 95)),
        mean_tpot=float(tpots.mean()) if emitting else nan,
        tokens_per_iteration=total_tokens / max(1, total_iterations),
        mean_batch_occupancy=(
            float(np.mean([s.batch_size for s in busy])) if busy else 0.0
        ),
    )


def report_from_manager(manager) -> ServingReport:
    """Convenience: build a report straight from a drained manager."""
    outputs = manager.finished_outputs()
    arrivals = [
        manager._tracked[o.request_id].request.arrival_iteration
        for o in outputs
    ]
    return build_report(outputs, arrivals, manager.iteration_stats)
