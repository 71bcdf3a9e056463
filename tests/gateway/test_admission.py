"""Admission control: bounded queues, rate limits, WRR."""

import pytest

from repro.engine.generation import GenerationConfig
from repro.obs import REGISTRY
from repro.serving.gateway import (
    AdmissionError,
    GatewayConfig,
    ServingGateway,
    TenantConfig,
)

from tests.gateway.conftest import build_manager


def _config(tokens=4):
    return GenerationConfig(max_new_tokens=tokens, stop_on_eos=False)


class TestTenantConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TenantConfig(name="t", weight=0)
        with pytest.raises(ValueError):
            TenantConfig(name="t", max_queue_depth=0)
        with pytest.raises(ValueError):
            TenantConfig(name="t", rate_per_tick=0)

    def test_bucket_capacity_defaults(self):
        assert TenantConfig(name="t").bucket_capacity == float("inf")
        assert TenantConfig(name="t", rate_per_tick=0.5).bucket_capacity == 1.0
        assert TenantConfig(name="t", rate_per_tick=2).bucket_capacity == 2.0


class TestRejects:
    async def test_queue_full_rejects_at_submit(self, llm, prompts):
        config = GatewayConfig(tenants={
            "a": TenantConfig(name="a", max_queue_depth=2)})
        gateway = ServingGateway(build_manager(llm), config)
        rejected = REGISTRY.counter("repro.gateway.rejected_queue_full")
        before = rejected.value
        # Gateway not started: nothing drains the queue, so the bound is
        # exact — two queued, the third refused.
        await gateway.submit(prompts[0], _config(), tenant="a")
        await gateway.submit(prompts[1], _config(), tenant="a")
        with pytest.raises(AdmissionError) as err:
            await gateway.submit(prompts[2], _config(), tenant="a")
        assert err.value.reason == "queue_full"
        assert rejected.value == before + 1
        assert gateway.queue_depth == 2
        await gateway.stop()

    async def test_unknown_tenant_without_auto_tenants(self, llm, prompts):
        config = GatewayConfig(
            tenants={"a": TenantConfig(name="a")}, auto_tenants=False)
        gateway = ServingGateway(build_manager(llm), config)
        with pytest.raises(AdmissionError) as err:
            await gateway.submit(prompts[0], _config(), tenant="ghost")
        assert err.value.reason == "unknown_tenant"

    async def test_auto_tenants_get_the_default_policy(self, llm, prompts):
        gateway = ServingGateway(build_manager(llm), GatewayConfig())
        await gateway.submit(prompts[0], _config(), tenant="fresh")
        assert gateway._tenants["fresh"].config == TenantConfig(name="fresh")
        await gateway.stop()


class TestDeferral:
    async def test_rate_limit_defers_and_eventually_serves(
            self, llm, prompts):
        config = GatewayConfig(tenants={
            "slow": TenantConfig(name="slow", rate_per_tick=0.5,
                                 max_queue_depth=8)})
        gateway = ServingGateway(build_manager(llm), config)
        deferred = REGISTRY.counter("repro.gateway.admission_deferred")
        before = deferred.value
        streams = [
            await gateway.submit(p, _config(), tenant="slow")
            for p in prompts[:4]
        ]
        await gateway.start()
        await gateway.stop(drain=True)
        for stream in streams:
            assert len(await stream.collect()) == 4
        assert deferred.value > before


class TestWeightedRoundRobin:
    def test_smooth_wrr_ordering(self, llm):
        gateway = ServingGateway(build_manager(llm))
        eligible = {"a": 2, "b": 1}
        picks = [gateway._wrr_next(dict(eligible)) for _ in range(6)]
        # Weight 2:1 and smooth: a,b,a repeating — never two b in a row.
        assert picks == ["a", "b", "a", "a", "b", "a"]

    def test_equal_weights_alternate(self, llm):
        gateway = ServingGateway(build_manager(llm))
        picks = [
            gateway._wrr_next({"x": 1, "y": 1}) for _ in range(4)
        ]
        assert sorted(picks[:2]) == ["x", "y"]
        assert sorted(picks[2:]) == ["x", "y"]

    async def test_heavier_tenant_admits_first(self, llm, prompts):
        config = GatewayConfig(tenants={
            "heavy": TenantConfig(name="heavy", weight=2),
            "light": TenantConfig(name="light", weight=1),
        })
        manager = build_manager(llm, batch=2)
        gateway = ServingGateway(manager, config)
        heavy = [
            await gateway.submit(p, _config(), tenant="heavy")
            for p in prompts[:2]
        ]
        light = [
            await gateway.submit(p, _config(), tenant="light")
            for p in prompts[2:4]
        ]
        gateway._pump_admissions()
        # Two slots, weights 2:1 — smooth WRR gives heavy, light.
        assert heavy[0].request_id is not None
        assert light[0].request_id is not None
        assert heavy[1].request_id is None
        assert light[1].request_id is None
        assert heavy[0].request_id < light[0].request_id
        manager.run_until_complete()
        await gateway.stop()


class TestQueueAccounting:
    async def test_queue_depth_gauge_tracks_and_drains(self, llm, prompts):
        gauge = REGISTRY.gauge("repro.gateway.queue_depth")
        manager = build_manager(llm, batch=2)
        gateway = ServingGateway(manager)
        for p in prompts:
            await gateway.submit(p, _config())
        assert gateway.queue_depth == len(prompts)
        assert gateway.peak_queue_depth >= len(prompts)
        await gateway.start()
        await gateway.stop(drain=True)
        assert gateway.queue_depth == 0
        assert gauge.value == 0
