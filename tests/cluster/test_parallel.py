"""Tests for parallelization plans."""

import pytest

from repro.cluster.hardware import single_node_cluster, two_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.parallel import ParallelPlan


class TestParallelPlan:
    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            ParallelPlan(tensor_parallel=0)
        with pytest.raises(ValueError):
            ParallelPlan(pipeline_stages=0)
        with pytest.raises(ValueError):
            ParallelPlan(bytes_per_param=3)

    def test_weight_bytes_split(self):
        model = paper_model("llama-7b")
        single = ParallelPlan().weight_bytes_per_gpu(model)
        quad = ParallelPlan(tensor_parallel=4).weight_bytes_per_gpu(model)
        assert quad == pytest.approx(single / 4)

    def test_llama7b_fits_one_gpu(self):
        ParallelPlan().validate(paper_model("llama-7b"),
                                single_node_cluster())

    def test_opt30b_needs_four_gpus(self):
        model = paper_model("opt-30b")
        cluster = single_node_cluster()
        with pytest.raises(ValueError, match="GB"):
            ParallelPlan().validate(model, cluster)
        ParallelPlan(tensor_parallel=4).validate(model, cluster)

    def test_llama65b_needs_two_nodes(self):
        model = paper_model("llama-65b")
        with pytest.raises(ValueError):
            ParallelPlan(tensor_parallel=4).validate(model,
                                                     single_node_cluster())
        ParallelPlan(tensor_parallel=4, pipeline_stages=2).validate(
            model, two_node_cluster()
        )

    def test_tp_cannot_exceed_node(self):
        with pytest.raises(ValueError, match="exceeds"):
            ParallelPlan(tensor_parallel=8).validate(
                paper_model("llama-7b"), single_node_cluster()
            )

    def test_tp_must_divide_the_heads(self):
        """Megatron-style sharding splits attention by whole heads: tp=3
        cannot shard LLaMA-7B's 32 heads, tp=2 and tp=4 can."""
        model = paper_model("llama-7b")
        with pytest.raises(ValueError, match="32 attention heads"):
            ParallelPlan(tensor_parallel=3).validate(
                model, single_node_cluster())
        for tp in (2, 4):
            ParallelPlan(tensor_parallel=tp).validate(
                model, single_node_cluster())

    def test_pp_cannot_exceed_nodes(self):
        with pytest.raises(ValueError, match="exceed"):
            ParallelPlan(pipeline_stages=2).validate(
                paper_model("llama-7b"), single_node_cluster()
            )

    def test_for_model_picks_paper_plans(self):
        """Auto-placement reproduces the paper's configurations."""
        assert ParallelPlan.for_model(
            paper_model("llama-7b"), single_node_cluster()
        ) == ParallelPlan(tensor_parallel=1, pipeline_stages=1)
        assert ParallelPlan.for_model(
            paper_model("opt-30b"), single_node_cluster()
        ) == ParallelPlan(tensor_parallel=4, pipeline_stages=1)
        assert ParallelPlan.for_model(
            paper_model("llama-65b"), two_node_cluster()
        ) == ParallelPlan(tensor_parallel=4, pipeline_stages=2)

    def test_for_model_raises_when_impossible(self):
        with pytest.raises(ValueError, match="does not fit"):
            ParallelPlan.for_model(paper_model("llama-65b"),
                                   single_node_cluster())

    def test_ssms_fit_one_gpu(self):
        for name in ("llama-68m", "opt-125m"):
            ParallelPlan().validate(paper_model(name), single_node_cluster())
