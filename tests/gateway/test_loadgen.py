"""Load-generator acceptance: concurrency, fairness, bounded queues."""

from repro.obs.workload import WorkloadSpec
from repro.serving.gateway import SloClass
from repro.serving.loadgen import (
    LoadgenSpec,
    _client_plan,
    run_loadgen,
)

import pytest


class TestClientPlan:
    def test_covers_every_tenant_and_class(self):
        spec = LoadgenSpec(clients=8, tenants=("alpha", "beta"))
        plan = _client_plan(spec)
        pairs = {(c.tenant, c.slo) for c in plan}
        assert pairs == {
            ("alpha", SloClass.INTERACTIVE),
            ("alpha", SloClass.BATCH),
            ("beta", SloClass.INTERACTIVE),
            ("beta", SloClass.BATCH),
        }

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadgenSpec(clients=0)
        with pytest.raises(ValueError):
            LoadgenSpec(requests_per_client=0)
        with pytest.raises(ValueError):
            LoadgenSpec(tenants=())


class TestLoadgenAcceptance:
    async def test_eight_clients_two_tenants_both_classes(self):
        """The PR's acceptance run: >= 8 concurrent clients across two
        tenants and both SLO classes; per-class latency histograms
        populate, admission rejects are counted (not errors), and the
        queue stays bounded."""
        spec = LoadgenSpec(clients=8, requests_per_client=2,
                           max_queue_depth=2,
                           workload=WorkloadSpec(max_new_tokens=8, batch=4))
        report = await run_loadgen(spec)
        total = spec.clients * spec.requests_per_client
        assert report.completed == total
        assert report.failed == 0
        assert report.dropped == 0
        assert report.tokens == total * spec.workload.max_new_tokens
        # All four (tenant, class) combinations saw traffic, so both
        # classes populated both latency histograms.
        for slo in SloClass:
            assert report.ttft_counts[slo.value] > 0
            assert report.tbt_counts[slo.value] > 0
        # Eight clients racing two depth-2 tenant queues: overflow
        # submissions were rejected and retried, never fatal.
        assert report.rejections > 0
        # The queue is bounded by the admission limit throughout.
        assert report.queue_bound == spec.max_queue_depth * len(spec.tenants)
        assert 0 < report.peak_queue_depth <= report.queue_bound
        assert report.final_queue_depth == 0
        assert report.ticks > 0

    async def test_rate_limited_run_still_completes(self):
        spec = LoadgenSpec(clients=4, requests_per_client=1,
                           rate_per_tick=0.5, max_queue_depth=8,
                           workload=WorkloadSpec(max_new_tokens=4))
        report = await run_loadgen(spec)
        assert report.completed == 4
        assert report.dropped == 0
        assert report.final_queue_depth == 0

    async def test_chaos_run_accounts_for_every_request(self):
        """Fault injection under live load: requests may stall (and in the
        worst case terminally fail after bounded retries), but every
        submission is accounted for and the gateway drains clean."""
        spec = LoadgenSpec(clients=4, requests_per_client=2,
                           workload=WorkloadSpec(max_new_tokens=4,
                                                 fault_rate=0.05))
        report = await run_loadgen(spec)
        total = spec.clients * spec.requests_per_client
        assert report.completed + report.failed == total
        assert report.dropped == 0
        assert report.final_queue_depth == 0

    def test_report_renders_every_headline(self):
        report_cls_fields = LoadgenSpec(clients=2)
        # render() is the `repro loadgen` CLI body; pin its headline rows.
        from repro.serving.loadgen import ClientStats, LoadgenReport

        report = LoadgenReport(spec=report_cls_fields, clients=[
            ClientStats(client_id=0, tenant="alpha",
                        slo=SloClass.INTERACTIVE, completed=2, tokens=12),
        ], peak_queue_depth=3, queue_bound=8, ticks=40,
            ttft_counts={"interactive": 2, "batch": 0},
            tbt_counts={"interactive": 10, "batch": 0})
        out = report.render()
        assert "completed          : 2" in out
        assert "tokens streamed    : 12" in out
        assert "peak queue depth   : 3 (bound 8)" in out
        assert "ttft samples interactive: 2" in out
        assert "tbt samples interactive : 10" in out
