"""Load generators: a closed loop over the request manager and an open loop
over the gateway, both from one thread of one process.

They know the program only through the callables handed to them, and they
record what a client would see: when each request was due, when each burst
of tokens reached it, and how it ended.  A refusal is recorded and counted;
nothing here retries.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from benchmarks.e2e.hostspeed import Clock
from benchmarks.e2e.workloads import WorkItem

#: Tokens one stream reads within this many seconds of each other were
#: committed by one tick and count as one burst.  The fastest tick is more
#: than ten times longer.
BURST_EPS_S = 0.5e-3
#: Longest single sleep of the open loop's scheduler, in host seconds.
MAX_SLEEP_S = 0.1


@dataclass
class Record:
    """One request's client-side timeline, in reference seconds of the
    run's :class:`~benchmarks.e2e.hostspeed.Clock`."""

    item: WorkItem
    #: When the request should have been sent (open loop: the schedule;
    #: closed loop: the moment its client was free).
    due: float
    sent: Optional[float] = None
    #: ``time.perf_counter()`` at ``sent``, to line the request up with
    #: trace spans (which are not on the run's clock).
    sent_at: Optional[float] = None
    #: ``(time, tokens)`` per burst.
    bursts: List[Tuple[float, int]] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    done: Optional[float] = None
    #: ``completed``, ``failed``, ``refused``, or ``inflight`` (cut off by
    #: the end of a closed-loop window, so neither sent-and-answered nor
    #: failed; not counted as attempted).
    outcome: str = "inflight"
    detail: str = ""
    request_id: Optional[int] = None

    def add_tokens(self, now: float, tokens: List[int],
                   indices: Optional[List[int]] = None) -> None:
        if self.bursts and now - self.bursts[-1][0] <= BURST_EPS_S:
            self.bursts[-1] = (self.bursts[-1][0],
                               self.bursts[-1][1] + len(tokens))
        else:
            self.bursts.append((now, len(tokens)))
        start = len(self.tokens)
        self.tokens.extend(int(t) for t in tokens)
        self.indices.extend(
            indices if indices is not None
            else range(start, start + len(tokens)))


@dataclass
class Run:
    """What one drive produced."""

    records: List[Record]
    #: Length of the measured window in reference seconds.
    wall_s: float
    #: Tokens committed inside the window (all requests, finished or not).
    window_tokens: int
    #: Host seconds per reference second over the window (``hostspeed``).
    factor: float = 1.0


def drive_closed(submit: Callable[[WorkItem], int],
                 step: Callable[[], object],
                 items: Iterator[WorkItem],
                 clients: int, seconds: float, clock: Clock) -> Run:
    """A closed loop of ``clients`` callers: each sends its next request the
    moment its previous one completes, until ``seconds`` have passed.

    The window closes at the end of the first iteration past the deadline
    (or, should ``seconds`` be shorter than a request, when the first one
    completes).  Requests still in flight then are cut off; their tokens so
    far count towards throughput, and they are left out of per-request
    statistics.
    """
    records: List[Record] = []
    live: Dict[int, Record] = {}
    window_tokens = 0

    def send(now: float) -> None:
        record = Record(item=next(items), due=now, sent=now)
        record.request_id = submit(record.item)
        live[record.request_id] = record
        records.append(record)

    for _ in range(clients):
        send(clock.now())
    now = 0.0
    answered = 0
    while live and (now < seconds or not answered):
        stats = step()
        now = clock.now()
        for request_id, tokens in stats.emissions.items():
            live[request_id].add_tokens(now, tokens)
            window_tokens += len(tokens)
        for request_id, outcome in (
                [(r, "completed") for r in stats.finished_ids]
                + [(r, "failed") for r in stats.failed_ids]):
            record = live.pop(request_id)
            record.done = now
            record.outcome = outcome
            answered += 1
            if now < seconds:
                send(now)
        clock.tick()
    return Run(records, now, window_tokens, clock.mean_factor())


async def drive_open(submit: Callable, refused: type,
                     items: List[WorkItem], clock: Clock) -> Run:
    """An open loop: every request is sent at its scheduled time whether or
    not earlier ones were answered, and is timed from when it was *due*, so
    a stall that makes the generator late is charged to the system.

    ``submit(item)`` is awaited and returns an async iterator of stream
    events; raising ``refused`` is a refusal.  Schedule times are reference
    seconds, so a host half as fast is sent requests half as often and
    stays as loaded as a nominal one.
    """
    records = [Record(item=item, due=item.due) for item in items]

    async def client(record: Record) -> None:
        record.sent = clock.now()
        record.sent_at = time.perf_counter()
        try:
            stream = await submit(record.item)
        except refused as exc:
            record.outcome = "refused"
            record.detail = str(exc)
            record.done = clock.now()
            return
        async for event in stream:
            if event.kind == "token":
                record.add_tokens(clock.now(), [event.token], [event.index])
            elif event.kind == "done":
                record.outcome = "completed"
            elif event.kind == "failed":
                record.outcome = "failed"
                record.detail = event.reason or ""
        record.done = clock.now()
        record.request_id = stream.request_id

    async def pacer() -> None:
        while True:
            await asyncio.sleep(max(0.0, clock.unit_due()))
            clock.tick()

    async def schedule() -> None:
        """Start each client when it is due.  Sleeps are capped because the
        factor that turns reference into host seconds keeps changing."""
        clients = []
        for record in records:
            while (delay := record.due - clock.now()) > 0:
                await asyncio.sleep(
                    min(clock.host_seconds(delay), MAX_SLEEP_S))
            clients.append(asyncio.ensure_future(client(record)))
        await asyncio.gather(*clients)

    reference = asyncio.ensure_future(pacer())
    try:
        await schedule()
    finally:
        reference.cancel()
        await asyncio.gather(reference, return_exceptions=True)
    return Run(records, clock.now(), sum(len(r.tokens) for r in records),
               clock.mean_factor())
