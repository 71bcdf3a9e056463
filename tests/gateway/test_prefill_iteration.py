"""The gateway side of "prefill is an iteration".

A round that admits anything is the core's prefill iteration: the new
requests' first tokens are on their streams, and the loop has yielded,
before the first ``manager.step`` runs.  And because the loop is *admit or
else step* — which is what the replay path's ``run_iteration`` is — the
gateway and the replay driver walk the same iteration log, fault draws
included.
"""

import asyncio

from repro.engine.generation import GenerationConfig
from repro.serving.gateway import ServingGateway

from tests.gateway.conftest import build_manager


def _config(tokens=8):
    return GenerationConfig(max_new_tokens=tokens, stop_on_eos=False)


class TestFirstTokenBeforeFirstStep:
    async def test_first_token_is_readable_before_any_step(
            self, llm, prompts, monkeypatch):
        manager = build_manager(llm, batch=4)
        steps = []
        real_step = manager.step

        def counted_step():
            steps.append(manager.iteration)
            return real_step()

        monkeypatch.setattr(manager, "step", counted_step)
        gateway = ServingGateway(manager)
        streams = [await gateway.submit(p, _config()) for p in prompts[:3]]
        await gateway.start()
        try:
            # Each client's first read completes on the prompt pass alone.
            firsts = [await stream.__anext__() for stream in streams]
            assert steps == [], "a tick ran before the first tokens were read"
            assert [(e.kind, e.index) for e in firsts] == [("token", 0)] * 3
            prefill = manager.iteration_stats[0]
            assert prefill.admitted == 3 and manager.iteration == 1
            assert [prefill.emissions[s.request_id] for s in streams] == \
                [[e.token] for e in firsts]
            rest = await asyncio.gather(*[s.collect() for s in streams])
        finally:
            await gateway.stop()
        assert steps and steps[0] == 1
        for first, tail, stream in zip(firsts, rest, streams):
            assert [first.token] + tail == stream.output.tokens
            assert stream.output.first_token_iteration == 0

    async def test_one_token_request_is_done_without_a_step(
            self, llm, prompts, monkeypatch):
        manager = build_manager(llm, batch=2)

        def no_step():
            raise AssertionError("step ran")

        monkeypatch.setattr(manager, "step", no_step)
        gateway = ServingGateway(manager)
        await gateway.start()
        try:
            stream = await gateway.submit(prompts[0], _config(1))
            kinds = [event.kind async for event in stream]
        finally:
            await gateway.stop()
        assert kinds == ["token", "done"]
        assert not manager.has_work


class TestDriversShareOneClock:
    async def test_gateway_log_equals_replay_log_under_chaos(
            self, llm, prompts):
        """Same submissions, same injector seed: the gateway's admit-or-step
        loop and the replay ``run_iteration`` produce the same iterations —
        kind, batch, emissions, preemptions — so neither the fault draws
        nor the logical clock fork between the two drivers."""
        chaos = dict(backend="fused", fault_rate=0.10, fault_seed=3)

        def log(manager):
            return [(s.iteration, s.admitted, s.batch_size, s.emissions,
                     s.finished_ids, s.preempted_ids, s.failed_ids)
                    for s in manager.iteration_stats]

        replay = build_manager(llm, **chaos)
        for prompt in prompts:
            replay.submit(prompt, _config())
        replay.run_until_complete()

        manager = build_manager(llm, **chaos)
        gateway = ServingGateway(manager)
        streams = [await gateway.submit(p, _config()) for p in prompts]
        await gateway.start()
        try:
            await asyncio.gather(*[s.collect() for s in streams])
        finally:
            await gateway.stop()

        assert log(manager) == log(replay)
        assert any(s.preempted_ids for s in manager.iteration_stats)
