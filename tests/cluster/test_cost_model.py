"""Tests for the roofline cost model: magnitudes and monotonicity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cost_model import LatencyModel
from repro.cluster.hardware import single_node_cluster, two_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.parallel import ParallelPlan


@pytest.fixture(scope="module")
def llama7b_model():
    return LatencyModel(paper_model("llama-7b"), ParallelPlan(),
                        single_node_cluster())


class TestMagnitudes:
    def test_llama7b_incremental_in_paper_range(self, llama7b_model):
        """Paper Figure 7: ~20-40 ms per token for LLaMA-7B on one A10."""
        latency = llama7b_model.step_latency(1, 100)
        assert 0.015 < latency < 0.045

    def test_weight_traffic_dominates_small_batch(self, llama7b_model):
        cost = llama7b_model.step_cost(1, 100)
        assert cost.weight_time > cost.compute_time
        assert cost.weight_time > cost.kv_time

    def test_ssm_step_far_cheaper_than_llm(self):
        cluster = single_node_cluster()
        llm = LatencyModel(paper_model("llama-7b"), ParallelPlan(), cluster)
        ssm = LatencyModel(paper_model("llama-68m"), ParallelPlan(), cluster)
        assert ssm.step_latency(1, 100) < llm.step_latency(1, 100) / 10

    def test_llama65b_two_nodes_in_paper_range(self):
        """Paper Figure 7: ~60-120 ms per token for LLaMA-65B on 8 GPUs."""
        model = LatencyModel(
            paper_model("llama-65b"),
            ParallelPlan(tensor_parallel=4, pipeline_stages=2),
            two_node_cluster(),
        )
        latency = model.step_latency(1, 100)
        assert 0.04 < latency < 0.15


class TestShape:
    def test_tree_verification_nearly_free_at_batch_one(self, llama7b_model):
        """Scoring a 10-token tree costs ~the same as one token (the
        memory-bound regime the paper exploits)."""
        one = llama7b_model.step_latency(1, 100)
        tree = llama7b_model.step_latency(10, 110)
        assert tree < one * 1.15

    def test_compute_bound_at_large_batch_tokens(self, llama7b_model):
        """At B x T in the hundreds, compute overtakes weight traffic and
        step latency grows — the reason speedup shrinks with batch size."""
        small = llama7b_model.step_latency(1, 100)
        large = llama7b_model.step_latency(1024, 2000)
        assert large > small * 1.5

    def test_monotone_in_scored_tokens(self, llama7b_model):
        latencies = [
            llama7b_model.step_latency(t, 100 + t)
            for t in (1, 64, 256, 1024)
        ]
        assert latencies == sorted(latencies)

    def test_monotone_in_context(self, llama7b_model):
        assert llama7b_model.step_latency(1, 10_000) > \
            llama7b_model.step_latency(1, 100)

    def test_monotone_in_model_size(self):
        cluster = single_node_cluster()
        small = LatencyModel(paper_model("llama-68m"), ParallelPlan(), cluster)
        big = LatencyModel(paper_model("llama-7b"), ParallelPlan(), cluster)
        assert big.step_latency(1, 100) > small.step_latency(1, 100)

    def test_tp_reduces_weight_time_but_adds_comm(self):
        cluster = single_node_cluster()
        model = paper_model("llama-7b")
        tp1 = LatencyModel(model, ParallelPlan(tensor_parallel=1), cluster)
        tp4 = LatencyModel(model, ParallelPlan(tensor_parallel=4), cluster)
        c1 = tp1.step_cost(1, 100)
        c4 = tp4.step_cost(1, 100)
        assert c4.weight_time < c1.weight_time
        assert c4.tp_comm_time > c1.tp_comm_time

    def test_more_kernels_cost_more(self, llama7b_model):
        one = llama7b_model.step_latency(10, 110, num_kernel_batches=1)
        five = llama7b_model.step_latency(10, 110, num_kernel_batches=5)
        assert five > one

    def test_pp_adds_network_cost(self):
        cluster = two_node_cluster()
        model = paper_model("llama-65b")
        pp = LatencyModel(
            model, ParallelPlan(tensor_parallel=4, pipeline_stages=2), cluster
        )
        cost = pp.step_cost(1, 100)
        assert cost.pp_comm_time > 0

    @given(tokens=st.integers(1, 2048))
    @settings(max_examples=30, deadline=None)
    def test_latency_always_positive_and_finite(self, llama7b_model, tokens):
        latency = llama7b_model.step_latency(tokens, tokens + 10)
        assert 0 < latency < 10

    def test_rejects_zero_tokens(self, llama7b_model):
        with pytest.raises(ValueError):
            llama7b_model.step_latency(0, 10)

    def test_verify_seconds_rejects_empty_batch_or_tree(self, llama7b_model):
        with pytest.raises(ValueError):
            llama7b_model.verify_seconds(0, 8, 128)
        with pytest.raises(ValueError):
            llama7b_model.verify_seconds(4, 0, 128)
