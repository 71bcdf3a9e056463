"""In-process streaming semantics: events, ordering, stream lifecycle."""

import asyncio
import gc
import weakref

import pytest

from repro.engine.generation import GenerationConfig
from repro.obs import REGISTRY, reset_observability
from repro.serving.gateway import (
    GatewayRequestFailed,
    ServingGateway,
    SloClass,
    StreamEvent,
    TokenStream,
)

from tests.gateway.conftest import build_manager, replay_reference


def _config(tokens=6):
    return GenerationConfig(max_new_tokens=tokens, stop_on_eos=False)


class TestTokenStreamUnit:
    """TokenStream semantics without a gateway behind it."""

    async def test_iteration_yields_terminal_then_stops(self):
        stream = TokenStream(tenant="t", slo=SloClass.INTERACTIVE)
        stream.push(StreamEvent(kind="token", token=5, index=0))
        stream.push(StreamEvent(kind="done"))
        kinds = [event.kind async for event in stream]
        assert kinds == ["token", "done"]
        with pytest.raises(StopAsyncIteration):
            await stream.__anext__()

    async def test_push_after_terminal_is_ignored(self):
        stream = TokenStream(tenant="t", slo=SloClass.BATCH)
        stream.push(StreamEvent(kind="done"))
        stream.push(StreamEvent(kind="token", token=9, index=0))
        kinds = [event.kind async for event in stream]
        assert kinds == ["done"]

    async def test_collect_returns_tokens(self):
        stream = TokenStream(tenant="t", slo=SloClass.INTERACTIVE)
        for i, token in enumerate((4, 8, 15)):
            stream.push(StreamEvent(kind="token", token=token, index=i))
        stream.push(StreamEvent(kind="done"))
        assert await stream.collect() == [4, 8, 15]

    async def test_collect_raises_with_partial_tokens_on_failure(self):
        stream = TokenStream(tenant="t", slo=SloClass.INTERACTIVE)
        stream.push(StreamEvent(kind="token", token=4, index=0))
        stream.push(StreamEvent(kind="failed", reason="retries_exhausted"))
        with pytest.raises(GatewayRequestFailed) as err:
            await stream.collect()
        assert err.value.partial_tokens == [4]
        assert "retries_exhausted" in str(err.value)

    def test_to_wire_includes_only_set_fields(self):
        assert StreamEvent(kind="token", token=3, index=1).to_wire() == \
            {"event": "token", "token": 3, "index": 1}
        assert StreamEvent(kind="stall", reason="preempted").to_wire() == \
            {"event": "stall", "reason": "preempted"}
        assert StreamEvent(kind="resume").to_wire() == {"event": "resume"}


class TestGatewayStreaming:
    async def test_tokens_arrive_incrementally_with_indices(
            self, llm, prompts):
        manager = build_manager(llm)
        gateway = ServingGateway(manager)
        await gateway.start()
        try:
            stream = await gateway.submit(prompts[0], _config())
            events = [event async for event in stream]
        finally:
            await gateway.stop()
        tokens = [e for e in events if e.kind == "token"]
        assert len(tokens) == 6
        assert [e.index for e in tokens] == list(range(6))
        assert events[-1].kind == "done"
        assert stream.request_id is not None
        assert stream.output is not None
        assert stream.output.tokens == [e.token for e in tokens]

    async def test_concurrent_streams_each_complete(self, llm, prompts):
        manager = build_manager(llm)
        gateway = ServingGateway(manager)
        await gateway.start()
        try:
            streams = [
                await gateway.submit(p, _config()) for p in prompts[:4]
            ]
            results = await asyncio.gather(
                *[stream.collect() for stream in streams])
        finally:
            await gateway.stop()
        for stream, tokens in zip(streams, results):
            assert len(tokens) == 6
            assert stream.output.tokens == tokens

    async def test_streams_open_gauge_returns_to_zero(self, llm, prompts):
        gauge = REGISTRY.gauge("repro.gateway.streams_open")
        before = gauge.value
        manager = build_manager(llm)
        gateway = ServingGateway(manager)
        await gateway.start()
        try:
            stream = await gateway.submit(prompts[0], _config())
            await stream.collect()
        finally:
            await gateway.stop()
        assert gauge.value == before

    async def test_streams_open_gauge_survives_a_registry_reset(
            self, llm, prompts):
        """A reset while a stream is open keeps counting it, so its
        terminal event brings the gauge back to 0, not to -1."""
        gauge = REGISTRY.gauge("repro.gateway.streams_open")
        gateway = ServingGateway(build_manager(llm))
        stream = await gateway.submit(prompts[0], _config())
        # Streams that earlier tests' never-started gateways left open stay
        # in the open set until the cycle collector frees them.
        gc.collect()
        reset_observability()
        assert gauge.value == 1
        stream.push(StreamEvent(kind="done"))
        assert gauge.value == 0

    async def test_stop_without_drain_fails_queued_requests(
            self, llm, prompts):
        # batch=1 and five queued requests: stopping without drain must
        # fail the still-queued ones (shutdown), not hang their clients.
        manager = build_manager(llm, batch=1)
        gateway = ServingGateway(manager)
        streams = [await gateway.submit(p, _config()) for p in prompts[:5]]
        await gateway.start()
        # Let the first request get going, then pull the plug.
        await asyncio.sleep(0)
        await gateway.stop(drain=False)
        outcomes = []
        for stream in streams:
            try:
                await asyncio.wait_for(stream.collect(), timeout=5.0)
                outcomes.append("done")
            except GatewayRequestFailed as exc:
                assert str(exc) == "shutdown"
                outcomes.append("failed")
        assert "failed" in outcomes

    async def test_stop_with_drain_completes_everything(self, llm, prompts):
        manager = build_manager(llm, batch=2)
        gateway = ServingGateway(manager)
        streams = [await gateway.submit(p, _config()) for p in prompts]
        await gateway.start()
        await gateway.stop(drain=True)
        for stream in streams:
            tokens = await stream.collect()
            assert len(tokens) == 6

    async def test_stop_ends_the_streams_of_a_gateway_never_started(
            self, llm, prompts):
        """Nothing will ever serve an unstarted gateway's queue, so
        ``stop()`` ends its streams (``failed``, reason ``shutdown``)
        instead of leaving their clients waiting and the gauge counting
        them."""
        gauge = REGISTRY.gauge("repro.gateway.streams_open")
        gc.collect()  # earlier tests' dropped streams leave the open set
        gateway = ServingGateway(build_manager(llm))
        streams = [await gateway.submit(p, _config()) for p in prompts[:2]]
        opened = gauge.value
        await gateway.stop()
        assert gauge.value == opened - 2
        assert gateway.queue_depth == 0
        for stream in streams:
            with pytest.raises(GatewayRequestFailed, match="shutdown"):
                await asyncio.wait_for(stream.collect(), 1.0)

    async def test_a_dropped_gateway_is_freed_by_refcounting(
            self, llm, prompts):
        """A gateway holds no reference cycle, so one dropped without
        ``stop()`` — never started, streams queued — is freed at once,
        without waiting on the cycle collector.  Its clients' streams
        outlive it and never see a terminal event."""
        gateway = ServingGateway(build_manager(llm))
        stream = await gateway.submit(prompts[0], _config())
        dropped = weakref.ref(gateway)
        gc.disable()
        try:
            del gateway
            assert dropped() is None
        finally:
            gc.enable()
        assert not stream.closed


class TestBadInputCannotStopOtherStreams:
    async def test_bad_prompt_fails_alone_and_the_loop_keeps_serving(
            self, llm, prompts):
        """An over-long prompt ends in ``failed`` on its own stream; its
        neighbour streams the replay tokens and the loop serves on."""
        want = replay_reference(llm, prompts[:2], _config())
        gateway = ServingGateway(build_manager(llm))
        await gateway.start()
        try:
            bad = await gateway.submit(
                list(range(1, llm.config.max_seq_len + 2)), _config())
            good = await gateway.submit(prompts[0], _config())
            assert await asyncio.wait_for(good.collect(), 10.0) == want[0]
            with pytest.raises(GatewayRequestFailed, match="admission"):
                await asyncio.wait_for(bad.collect(), 10.0)
            # A bad prompt alone, nothing running: still terminal.
            alone = await gateway.submit([1, 99], _config())
            with pytest.raises(GatewayRequestFailed, match="admission"):
                await asyncio.wait_for(alone.collect(), 10.0)
            assert gateway.running
            later = await gateway.submit(prompts[1], _config())
            assert await asyncio.wait_for(later.collect(), 10.0) == want[1]
        finally:
            await gateway.stop()

    async def test_no_collect_outlives_a_dead_loop(self, llm, prompts):
        """The core raises (a session factory's ``RuntimeError``): every
        queued and in-flight stream ends in ``failed`` with the reason,
        and ``stop()`` re-raises what killed the loop."""
        manager = build_manager(llm, batch=2)
        healthy_factory = manager.session_factory

        def factory(request):
            if request.request_id == 2:
                raise RuntimeError("model load failed")
            return healthy_factory(request)

        manager.session_factory = factory
        gateway = ServingGateway(manager)
        # Request 0 finishes and frees the slot request 2 dies in, while
        # request 1 is mid-stream and requests 3 and 4 are still queued.
        first = await gateway.submit(prompts[0], _config(4))
        streams = [await gateway.submit(p, _config(40)) for p in prompts[1:5]]
        await gateway.start()
        assert len(await asyncio.wait_for(first.collect(), 10.0)) == 4
        for stream in streams:
            with pytest.raises(GatewayRequestFailed,
                               match="model load failed"):
                await asyncio.wait_for(stream.collect(), 10.0)
        assert not gateway.running
        with pytest.raises(RuntimeError, match="model load failed"):
            await gateway.stop()
