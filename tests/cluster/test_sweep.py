"""Tests for what-if sweeps over the cost model."""

import numpy as np
import pytest

from repro.cluster.hardware import single_node_cluster, two_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.sweep import (
    best_point,
    expected_tokens_per_step,
    sweep_speculation_depth,
    sweep_ssm_size,
    sweep_tensor_parallel,
)


class TestClosedForms:
    def test_alpha_zero_gives_one_token(self):
        assert expected_tokens_per_step(0.0, 8) == 1.0

    def test_alpha_one_accepts_everything(self):
        assert expected_tokens_per_step(1.0, 8) == 9.0

    def test_matches_geometric_sum(self):
        alpha, depth = 0.7, 5
        expected = sum(alpha**k for k in range(depth + 1))
        assert expected_tokens_per_step(alpha, depth) == \
            pytest.approx(expected)

    def test_monte_carlo_agreement(self):
        """Closed form matches direct simulation of the acceptance chain."""
        rng = np.random.default_rng(0)
        alpha, depth = 0.6, 8
        emitted = []
        for _ in range(20000):
            k = 0
            while k < depth and rng.uniform() < alpha:
                k += 1
            emitted.append(k + 1)
        assert np.mean(emitted) == pytest.approx(
            expected_tokens_per_step(alpha, depth), abs=0.03
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_tokens_per_step(1.5, 4)
        with pytest.raises(ValueError):
            expected_tokens_per_step(0.5, -1)


class TestTensorParallelSweep:
    def test_small_model_gains_little_from_tp(self):
        """LLaMA-7B: TP=4 helps less than 4x (all-reduce overhead).  TP=3
        is skipped: it does not divide the 32 attention heads."""
        points = sweep_tensor_parallel(paper_model("llama-7b"),
                                       single_node_cluster())
        assert [p.x for p in points] == [1, 2, 4]
        tp1 = points[0].latency
        tp4 = points[-1].latency
        assert tp4 < tp1           # still faster...
        assert tp4 > tp1 / 4       # ...but sublinearly

    def test_big_model_skips_undersized_degrees(self):
        """OPT-30B does not fit below TP=4, so the sweep starts there."""
        points = sweep_tensor_parallel(paper_model("opt-30b"),
                                       single_node_cluster())
        assert [p.x for p in points] == [4]

    def test_impossible_model_raises(self):
        with pytest.raises(ValueError, match="fits no"):
            sweep_tensor_parallel(paper_model("llama-65b"),
                                  single_node_cluster())


class TestSpeculationDepthSweep:
    def test_curve_has_interior_minimum_for_moderate_alpha(self):
        points = sweep_speculation_depth(
            paper_model("llama-7b"), paper_model("llama-68m"),
            single_node_cluster(), alpha=0.7,
        )
        best = best_point(points)
        assert 2 <= best.x <= 16
        # The curve actually bends: depth 1 and depth 16 are both worse.
        assert points[0].latency > best.latency
        # For alpha=0.7 speculating deeper than ~10 pays nothing.
        assert points[-1].latency >= best.latency

    def test_higher_alpha_prefers_deeper(self):
        def optimal(alpha):
            return best_point(
                sweep_speculation_depth(
                    paper_model("llama-7b"), paper_model("llama-68m"),
                    single_node_cluster(), alpha=alpha,
                )
            ).x

        assert optimal(0.9) >= optimal(0.5)

    def test_paper_configuration_near_optimal(self):
        """With Table-1-like alpha ~0.7, the optimal depth is close to the
        paper's 8."""
        best = best_point(
            sweep_speculation_depth(
                paper_model("llama-7b"), paper_model("llama-68m"),
                single_node_cluster(), alpha=0.7,
            )
        )
        assert 4 <= best.x <= 14

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            sweep_speculation_depth(
                paper_model("llama-7b"), paper_model("llama-68m"),
                single_node_cluster(), alpha=1.5,
            )


class TestSsmSizeSweep:
    #: Bigger SSMs align better — a plausible alpha(scale) curve.
    ALPHAS = {0.01: 0.55, 0.05: 0.7, 0.15: 0.8, 0.5: 0.9}

    def test_sweet_spot_is_a_small_ssm(self):
        """The latency-optimal SSM is much smaller than the LLM — the
        paper's 100-1000x size-gap observation."""
        points = sweep_ssm_size(
            paper_model("llama-7b"), single_node_cluster(), self.ALPHAS
        )
        best = best_point(points)
        assert best.x <= 0.15

    def test_all_scales_evaluated(self):
        points = sweep_ssm_size(
            paper_model("llama-7b"), single_node_cluster(), self.ALPHAS
        )
        assert len(points) == len(self.ALPHAS)

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="scale"):
            sweep_ssm_size(
                paper_model("llama-7b"), single_node_cluster(), {2.0: 0.9}
            )

    def test_best_point_empty_raises(self):
        with pytest.raises(ValueError):
            best_point([])
