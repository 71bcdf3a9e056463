"""SLO classes: labels on the gateway's latency histograms.

Both classes are scheduled alike — a request's first token comes from the
prompt pass of the round that admits it, so no tick ever has a cold request
to favour — and the class only selects which TTFT/TBT histogram the
request's latencies land in.
"""

import pytest

from repro.engine.generation import GenerationConfig
from repro.obs import REGISTRY
from repro.serving.gateway import ServingGateway, SloClass

from tests.gateway.conftest import build_manager


class TestSloClassParse:
    def test_parses_strings_and_passthrough(self):
        assert SloClass.parse("interactive") is SloClass.INTERACTIVE
        assert SloClass.parse("BATCH") is SloClass.BATCH
        assert SloClass.parse(SloClass.BATCH) is SloClass.BATCH

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            SloClass.parse("platinum")


class TestSloEndToEnd:
    async def test_mixed_classes_complete_and_label_ttft(self, llm, prompts):
        ttft = {
            slo: REGISTRY.histogram(
                f"repro.gateway.ttft_seconds.{slo.value}")
            for slo in SloClass
        }
        before = {slo: hist.count for slo, hist in ttft.items()}
        manager = build_manager(llm, batch=4)
        gateway = ServingGateway(manager)
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        streams = [
            await gateway.submit(p, config,
                                 slo=SloClass.BATCH if i < 2
                                 else SloClass.INTERACTIVE)
            for i, p in enumerate(prompts[:4])
        ]
        await gateway.start()
        await gateway.stop(drain=True)
        for stream in streams:
            assert len(await stream.collect()) == 8
        # One TTFT sample per request, in its own class's histogram.
        for slo, hist in ttft.items():
            assert hist.count - before[slo] == 2
        # All four were admitted in one round: one prefill iteration gave
        # every request its first token, and every later iteration decoded
        # the whole batch.
        log = manager.iteration_stats
        assert log[0].admitted == 4
        assert sorted(log[0].emissions) == [s.request_id for s in streams]
        assert all(stats.batch_size == 4 for stats in log[1:-1])
