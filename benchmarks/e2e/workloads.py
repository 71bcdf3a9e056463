"""The four workloads: what each sends, and why it is here.

A workload is made from ``--seed`` alone: the seed drives prompts, lengths
and arrival times, and the program only ever sees the generated requests.
Sizes are constants of the benchmark, the same on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List

import numpy as np

Sampler = Callable[[int, np.random.Generator], List[int]]


@dataclass(frozen=True)
class WorkItem:
    """One request as the load generator sends it."""

    index: int
    prompt: List[int]
    max_new_tokens: int
    kind: str = "closed"
    #: Seed of the request's own sampling stream (stochastic decoding).
    seed: int = 0
    #: Reference seconds (see ``hostspeed``) after the start of the run at
    #: which an open loop sends it.
    due: float = 0.0
    tenant: str = "alpha"
    slo: str = "interactive"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"spec"`` or ``"incr"``: which serving stack answers.
    mode: str
    #: ``"closed"`` (a fixed number of clients, each waiting for its reply)
    #: or ``"open"`` (a seeded schedule, sent whether or not replies came).
    loop: str
    stochastic: bool
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "offline_greedy", "spec", "closed", False,
            "The paper's headline case: greedy SpecInfer at a full batch; "
            "speculate, verify and the tree masks do nearly all the work, "
            "the gateway none."),
        Workload(
            "offline_incr", "incr", "closed", False,
            "Bypass: the same requests through incremental decoding, no SSM "
            "and no tree; a speculate or verify change must not move it, a "
            "model-op change moves it most."),
        Workload(
            "offline_stoch", "spec", "closed", True,
            "The same layers used differently: multi-step speculative "
            "sampling and the per-request speculation path; a greedy-only "
            "fast path that taxes sampling shows here."),
        Workload(
            "online_mix", "spec", "open", False,
            "Open loop through the gateway at a fixed rate: admission, "
            "changing batch occupancy and long-prompt prefill stalling "
            "other streams only matter here."),
    )
}

#: Closed loops: one client per batch slot, so the batch stays full and a
#: request never queues behind another.
CLOSED_CLIENTS = 8
CLOSED_PROMPT_LEN = 32
CLOSED_NEW_TOKENS = 64

#: Open loop: requests per reference second, frozen at about 55% of what
#: the commit that defined the benchmark sustains on this mix.
OPEN_RATE_PER_S = 3.2
CHAT_PROMPT = (8, 32)
CHAT_NEW_TOKENS = 32
DOC_PROMPT = (160, 224)
DOC_NEW_TOKENS = 8
#: Tenant of request ``i`` is ``TENANT_CYCLE[i % 3]``: offered load 2:1,
#: the same as the tenants' weights.
TENANT_CYCLE = ("alpha", "alpha", "beta")


def closed_items(seed: int, sample: Sampler,
                 stochastic: bool) -> Iterator[WorkItem]:
    """An endless seeded stream of equal-sized requests.  The three closed
    workloads draw the same prompts from the same seed, so greedy,
    incremental and stochastic serve identical inputs."""
    rng = np.random.default_rng([seed, 1])
    index = 0
    while True:
        prompt = sample(CLOSED_PROMPT_LEN, rng)
        yield WorkItem(
            index=index, prompt=prompt, max_new_tokens=CLOSED_NEW_TOKENS,
            seed=(seed * 1_000_003 + index) if stochastic else 0,
        )
        index += 1


def open_items(seed: int, sample: Sampler,
               ref_seconds: float) -> List[WorkItem]:
    """The open-loop schedule over ``ref_seconds`` reference seconds.

    Arrival ``i`` is due at a seeded uniform point of the ``i``-th interval
    of length ``1 / rate``: independent senders that never synchronise, at
    an even rate.  A Poisson schedule of the ~64 arrivals one run holds
    clumps differently from seed to seed, and the clumps, not the commit,
    then decide every latency percentile.  Three of every four requests are
    short interactive chats, the fourth a long-prompt batch-class document.
    A longer schedule of the same seed starts with the shorter one.
    """
    rng = np.random.default_rng([seed, 2])
    items: List[WorkItem] = []
    while True:
        index = len(items)
        due = (index + rng.uniform()) / OPEN_RATE_PER_S
        if due >= ref_seconds:
            return items
        is_doc = index % 4 == 3
        low, high = DOC_PROMPT if is_doc else CHAT_PROMPT
        length = int(rng.integers(low, high + 1))
        items.append(WorkItem(
            index=index,
            prompt=sample(length, rng),
            max_new_tokens=DOC_NEW_TOKENS if is_doc else CHAT_NEW_TOKENS,
            kind="doc" if is_doc else "chat",
            due=float(due),
            tenant=TENANT_CYCLE[index % len(TENANT_CYCLE)],
            slo="batch" if is_doc else "interactive",
        ))


def schedule_bytes(items: List[WorkItem]) -> bytes:
    """A canonical encoding of a schedule (same seed, same bytes)."""
    return "\n".join(
        f"{it.index}|{it.due!r}|{it.kind}|{it.tenant}|{it.slo}|"
        f"{it.max_new_tokens}|{it.seed}|{','.join(map(str, it.prompt))}"
        for it in items
    ).encode()
