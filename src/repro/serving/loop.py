"""The gateway's asyncio driver: prefill-or-decode cycles over the sync core.

:class:`GatewayLoop` is the only place where the event loop and the
synchronous scheduling core meet.  Each cycle it pumps the gateway's
admission queues into the core.  When the round admits anything, the core's
prefill iteration (:meth:`~repro.serving.manager.RequestManager.admit`) has
already produced the new requests' first tokens and the gateway has
dispatched them; the loop yields to the event loop, so clients read their
first token before any tick runs.  Otherwise it runs exactly one synchronous
decode iteration (:meth:`~repro.serving.manager.RequestManager.step`),
hands the resulting :class:`~repro.serving.manager.IterationStats` to the
gateway's dispatcher (which fans committed-token deltas into client
streams), and yields.  That is the replay path's ``run_iteration`` — a
prefill iteration or a decode iteration — so both drivers advance the
core's logical clock identically.

The core never blocks on clients and clients never block the core: all
coupling is through the gateway's queues and streams.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.obs import TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.gateway import ServingGateway

#: How long the loop parks waiting for a wake signal when it has no work.
IDLE_WAIT_SECONDS = 0.05


class GatewayLoop:
    """The async driver owning the gateway's tick cadence.

    Args:
        gateway: The :class:`~repro.serving.gateway.ServingGateway` whose
            admission pump and stream dispatcher this loop drives.

    Every cycle ends in ``asyncio.sleep(0)``, which yields control to the
    event loop so client tasks interleave with decoding.
    """

    def __init__(self, gateway: "ServingGateway"):
        self.gateway = gateway
        self.ticks = 0

    async def run(self) -> None:
        """Drive the gateway until it is closing and fully drained.

        If the core raises, every queued and in-flight stream gets a
        terminal ``failed`` event carrying the reason before the exception
        propagates (``stop()`` re-raises it), so no client outlives the
        loop waiting for tokens.
        """
        try:
            await self._run()
        except Exception as exc:
            self.gateway._abort_all(f"gateway loop died: {exc!r}")
            raise

    async def _run(self) -> None:
        gateway = self.gateway
        while True:
            if gateway._pump_admissions():
                # A prefill iteration ran and its first tokens are on the
                # client streams: let the clients read them before a tick.
                await asyncio.sleep(0)
                continue
            if not gateway.manager.num_running:
                if gateway._closing and not gateway.has_work:
                    return
                if gateway.has_work:
                    # Work exists but nothing is admissible right now
                    # (rate limit, or a requeued request backing off in
                    # the core), or a request failed at
                    # admission and its terminal event is still in the
                    # core: run an idle core tick so the logical clock —
                    # and with it the rate buckets and retry cooldowns —
                    # advances and the event is dispatched.
                    self._tick()
                    await asyncio.sleep(0)
                    continue
                await self._wait_for_work()
                continue
            self._tick()
            await asyncio.sleep(0)

    def _tick(self) -> None:
        """One synchronous decode iteration plus stream dispatch."""
        from repro.serving.gateway import _TICKS

        gateway = self.gateway
        with TRACER.span(
            "repro.gateway.tick",
            tick=self.ticks,
            running=gateway.manager.num_running,
            queued=gateway.queue_depth,
        ):
            stats = gateway.manager.step()
        _TICKS.inc()
        self.ticks += 1
        gateway._dispatch(stats)

    async def _wait_for_work(self) -> None:
        """Park until a submission wakes us (or the idle timeout elapses).

        The timeout keeps shutdown responsive even if a wake signal races
        the park; it is not a correctness mechanism.
        """
        gateway = self.gateway
        if gateway._closing and not gateway.has_work:
            return
        gateway._wake.clear()
        if gateway.has_work or gateway._closing:
            return
        try:
            await asyncio.wait_for(gateway._wake.wait(),
                                   timeout=IDLE_WAIT_SECONDS)
        except asyncio.TimeoutError:
            pass
