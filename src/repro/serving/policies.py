"""Admission ordering and preemption victim order for the request manager.

Orca-style iteration-level scheduling decides *when* requests join the
batch; a policy decides *which* waiting request joins first.  The paper
uses FCFS; shortest-job-first is provided for latency studies (SJF
minimizes mean completion time when job lengths are known, a standard
scheduling result that holds per-iteration here).  Under an injected
KV-pressure spike the manager preempts in :func:`preempt_newest_first`
order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.serving.request import Request

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


# -- preemption victim selection ---------------------------------------------------


def preempt_newest_first(running: Sequence[Request]) -> List[Request]:
    """Order the RUNNING requests for preemption, most recently arrived
    first.  The manager preempts from the front when an injected KV-pressure
    spike (``FaultKind.KV_PRESSURE``) forces the batch to shed load; the
    victim is requeued and recomputes from its committed tokens.

    The newest request has the least sunk verification work, so requeueing
    it wastes the least recompute; FCFS fairness is preserved for the
    requests that have waited longest.  Ties break on the higher request id
    (later submission) so the ordering stays deterministic.
    """
    return sorted(
        running,
        key=lambda r: (-r.arrival_iteration, -r.request_id),
    )
