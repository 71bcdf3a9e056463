"""Tests for dynamic (best-first) token tree expansion."""

import numpy as np
import pytest

from repro.model.coupled import CoupledSSM
from repro.speculate.adaptive import (
    AdaptiveConfig,
    _adaptive_width,
    expand_token_tree_adaptive,
)
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt


class TestAdaptiveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_tokens": 0},
            {"max_depth": 0},
            {"max_width": 0},
            {"coverage": 0.0},
            {"coverage": 1.5},
            {"min_path_prob": 1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)


class TestAdaptiveWidth:
    def test_confident_distribution_expands_one(self):
        probs = np.array([0.9, 0.05, 0.03, 0.02])
        config = AdaptiveConfig(coverage=0.85, max_width=4)
        assert len(_adaptive_width(probs, config)) == 1

    def test_uncertain_distribution_expands_wide(self):
        probs = np.full(10, 0.1)
        config = AdaptiveConfig(coverage=0.85, max_width=4)
        assert len(_adaptive_width(probs, config)) == 4

    def test_returns_most_likely_first(self):
        probs = np.array([0.1, 0.6, 0.3])
        config = AdaptiveConfig(coverage=0.95, max_width=3)
        order = _adaptive_width(probs, config)
        assert order[0] == 1


class TestExpandAdaptive:
    def test_budget_respected(self, llm, ssm, rng):
        prompt = make_prompt(rng, length=5)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        config = AdaptiveConfig(max_tokens=6, max_depth=8, max_width=3,
                                min_path_prob=0.0)
        tree = expand_token_tree_adaptive(ssm, int(prompt[-1]), cache, config)
        tree.validate()
        assert 1 <= tree.num_speculated() <= 6

    def test_depth_limit_respected(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        config = AdaptiveConfig(max_tokens=30, max_depth=3,
                                min_path_prob=0.0)
        tree = expand_token_tree_adaptive(ssm, int(prompt[-1]), cache, config)
        assert tree.max_depth() <= 3

    def test_cache_restored(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        before = cache.snapshot()
        expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=8, min_path_prob=0.0),
        )
        assert cache.snapshot() == before

    def test_expands_highest_probability_first(self, llm, rng):
        """With budget 1, the single speculated token is the SSM argmax."""
        ssm = CoupledSSM(llm, alignment=1.0)  # oracle = deterministic
        prompt = make_prompt(rng, length=5)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        probe = ssm.new_cache()
        ssm.prefill(prompt[:-1], probe)
        expected = int(np.argmax(ssm.decode(int(prompt[-1]), probe)))
        tree = expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=1, min_path_prob=0.0),
        )
        assert tree.num_speculated() == 1
        assert tree.tokens[1] == expected

    def test_proposals_recorded(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        tree = expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=6, min_path_prob=0.0),
            stochastic=True, rng=np.random.default_rng(0),
        )
        # Every speculated node carries the distribution it was drawn from.
        for idx in range(1, len(tree)):
            assert tree.proposal_for(idx) is not None

    def test_min_path_prob_prunes(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        strict = expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=30, max_depth=6, min_path_prob=0.5),
        )
        loose = expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=30, max_depth=6, min_path_prob=0.0),
        )
        assert strict.num_speculated() <= loose.num_speculated()

    def test_stochastic_requires_rng(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        with pytest.raises(ValueError, match="rng"):
            expand_token_tree_adaptive(
                ssm, int(prompt[-1]), cache, AdaptiveConfig(),
                stochastic=True,
            )

    def test_stochastic_mode_runs(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        tree = expand_token_tree_adaptive(
            ssm, int(prompt[-1]), cache,
            AdaptiveConfig(max_tokens=8, min_path_prob=0.0),
            stochastic=True, rng=np.random.default_rng(0),
        )
        tree.validate()


class TestAdaptiveEngine:
    def test_lossless_with_adaptive_speculator(self, llm, ssm, rng):
        from repro.engine.generation import GenerationConfig
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine

        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=16)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        engine = SpecInferEngine(
            llm,
            Speculator([ssm], adaptive=AdaptiveConfig(max_tokens=10,
                                                      max_depth=5)),
        )
        result = engine.generate(prompt, config)
        assert result.tokens == incremental.tokens

    def test_latency_steps_uses_adaptive_depth(self, ssm):
        spec = Speculator([ssm], adaptive=AdaptiveConfig(max_depth=5))
        assert spec.speculation_latency_steps() == 5
