"""Admission-ordering policies for the request manager.

Orca-style iteration-level scheduling decides *when* requests join the
batch; a policy decides *which* waiting request joins first.  The paper
uses FCFS; shortest-job-first and priority policies are provided for
latency studies (SJF minimizes mean completion time when job lengths are
known, a standard scheduling result that holds per-iteration here).
"""

from __future__ import annotations

from typing import Callable, List, Protocol, Sequence

from repro.serving.request import Request

#: A policy orders the waiting queue; the manager admits from the front.
SchedulingPolicy = Callable[[Sequence[Request]], List[Request]]


def fcfs(waiting: Sequence[Request]) -> List[Request]:
    """First-come-first-served (the paper's policy)."""
    return sorted(waiting, key=lambda r: (r.arrival_iteration, r.request_id))


def shortest_job_first(waiting: Sequence[Request]) -> List[Request]:
    """Admit the smallest total work first (prompt + generation budget).

    Ties break FCFS so the policy stays deterministic and starvation-free
    among equal-length jobs.
    """
    return sorted(
        waiting,
        key=lambda r: (
            len(r.prompt) + r.config.max_new_tokens,
            r.arrival_iteration,
            r.request_id,
        ),
    )


def longest_job_first(waiting: Sequence[Request]) -> List[Request]:
    """Admit the largest total work first (throughput-packing heuristic)."""
    return sorted(
        waiting,
        key=lambda r: (
            -(len(r.prompt) + r.config.max_new_tokens),
            r.arrival_iteration,
            r.request_id,
        ),
    )


def make_priority_policy(
    priority_of: Callable[[Request], float]
) -> SchedulingPolicy:
    """Build a policy from a priority function (lower value = sooner)."""

    def policy(waiting: Sequence[Request]) -> List[Request]:
        return sorted(
            waiting,
            key=lambda r: (priority_of(r), r.arrival_iteration, r.request_id),
        )

    return policy


# -- preemption victim selection ---------------------------------------------------

#: Orders the RUNNING requests; the manager preempts from the front.  Used
#: when an injected KV-pressure spike (``FaultKind.KV_PRESSURE``) forces the
#: batch to shed load; the victim is requeued and recomputes from its
#: committed tokens.
PreemptionPolicy = Callable[[Sequence[Request]], List[Request]]


def preempt_newest_first(running: Sequence[Request]) -> List[Request]:
    """Preempt the most recently arrived request first (default).

    The newest request has the least sunk verification work, so requeueing
    it wastes the least recompute; FCFS fairness is preserved for the
    requests that have waited longest.  Ties break on the higher request id
    (later submission) so the ordering stays deterministic.
    """
    return sorted(
        running,
        key=lambda r: (-r.arrival_iteration, -r.request_id),
    )


def preempt_oldest_first(running: Sequence[Request]) -> List[Request]:
    """Preempt the oldest request first (drain-the-stragglers heuristic)."""
    return sorted(
        running,
        key=lambda r: (r.arrival_iteration, r.request_id),
    )


def make_preemption_policy(
    victim_cost: Callable[[Request], float]
) -> PreemptionPolicy:
    """Build a preemption policy from a cost function (lower = preempt
    sooner)."""

    def policy(running: Sequence[Request]) -> List[Request]:
        return sorted(
            running,
            key=lambda r: (victim_cost(r), -r.arrival_iteration, -r.request_id),
        )

    return policy
