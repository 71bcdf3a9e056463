"""Tests for the SpecInfer engine — headed by the losslessness property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import prune_to_size
from repro.engine.tree_spec import SpecInferEngine
from repro.model.coupled import CoupledSSM
from repro.model.sampling import SamplingConfig
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from repro.tree.token_tree import TokenTree
from tests.conftest import make_prompt


def make_engine(llm, alignment=0.9, config=None, seed=7):
    ssm = CoupledSSM(llm, alignment=alignment, seed=seed, noise_scale=2.0)
    speculator = Speculator([ssm], config or ExpansionConfig.paper_default())
    return SpecInferEngine(llm, speculator)


class TestGreedyLosslessness:
    """SpecInfer must emit *exactly* the incremental greedy sequence."""

    def test_matches_incremental(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=24)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        speculative = make_engine(llm).generate(prompt, config)
        assert speculative.tokens == incremental.tokens

    @given(
        prompt_seed=st.integers(0, 10_000),
        alignment=st.sampled_from([0.2, 0.6, 0.9, 1.0]),
        width=st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_lossless_for_any_speculator(self, llm, prompt_seed, alignment,
                                         width):
        """Losslessness holds regardless of speculation quality or shape."""
        rng = np.random.default_rng(prompt_seed)
        prompt = make_prompt(rng, length=4)
        config = GenerationConfig(max_new_tokens=12)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        engine = make_engine(
            llm, alignment=alignment,
            config=ExpansionConfig.width_sweep(width, depth=4, expand_step=1),
            seed=prompt_seed,
        )
        speculative = engine.generate(prompt, config)
        assert speculative.tokens == incremental.tokens

    def test_fewer_llm_steps_with_aligned_ssm(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=24)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        speculative = make_engine(llm, alignment=0.92).generate(prompt, config)
        assert speculative.num_llm_steps < incremental.num_llm_steps
        assert speculative.mean_tokens_per_step > 1.3

    def test_weak_ssm_still_correct_but_slow(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=16)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        speculative = make_engine(llm, alignment=0.1).generate(prompt, config)
        assert speculative.tokens == incremental.tokens


class TestStochasticMode:
    def test_reproducible_by_seed(self, llm, rng):
        prompt = make_prompt(rng)
        config = GenerationConfig(
            max_new_tokens=10, sampling=SamplingConfig(temperature=1.0),
            seed=5,
        )
        engine = make_engine(llm)
        assert engine.generate(prompt, config).tokens == engine.generate(
            prompt, config
        ).tokens

    def test_runs_with_naive_sampling(self, llm, rng):
        prompt = make_prompt(rng)
        ssm = CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)
        engine = SpecInferEngine(
            llm, Speculator([ssm], ExpansionConfig((2, 1))),
            use_naive_sampling=True,
        )
        result = engine.generate(
            prompt,
            GenerationConfig(max_new_tokens=8,
                             sampling=SamplingConfig(temperature=1.0)),
        )
        assert result.num_tokens == 8 or result.finished_by_eos

    def test_mss_accepts_more_than_naive(self, llm):
        """Table 3's claim at engine level: MSS verifies more tokens/step."""
        rng = np.random.default_rng(0)
        prompts = [make_prompt(rng, length=5) for _ in range(6)]
        config = GenerationConfig(
            max_new_tokens=16, sampling=SamplingConfig(temperature=1.0),
            seed=3,
        )
        ssm_args = dict(alignment=0.92, seed=7, noise_scale=2.0)
        spec_cfg = ExpansionConfig.width_sweep(5, depth=6, expand_step=0)

        def tokens_per_step(naive):
            ssm = CoupledSSM(llm, **ssm_args)
            engine = SpecInferEngine(
                llm, Speculator([ssm], spec_cfg), use_naive_sampling=naive
            )
            rates = [
                engine.generate(p, config).mean_tokens_per_step
                for p in prompts
            ]
            return float(np.mean(rates))

        assert tokens_per_step(naive=False) > tokens_per_step(naive=True)


class TestTraces:
    def test_step_traces_populated(self, llm, rng):
        result = make_engine(llm).generate(
            make_prompt(rng), GenerationConfig(max_new_tokens=12)
        )
        for step in result.steps:
            assert step.tree_size >= 1
            assert step.tree_depth >= 0
            assert step.tree_leaves >= 1
            assert step.tree_path_tokens >= step.tree_size
            assert step.ssm_steps == 8  # paper-default depth
            assert 1 <= step.tokens_emitted <= step.tree_depth + 1

    def test_emitted_tokens_match_sum_of_steps(self, llm, rng):
        result = make_engine(llm).generate(
            make_prompt(rng),
            GenerationConfig(max_new_tokens=13, stop_on_eos=False),
        )
        # The prompt pass emits the first token; the steps the rest.
        total = 1 + sum(s.tokens_emitted for s in result.steps)
        # The last step may overshoot max_new_tokens before truncation.
        assert total >= result.num_tokens
        assert result.num_tokens == 13


class TestPruning:
    def test_prune_keeps_root_and_limit(self):
        tree = TokenTree(1)
        a = tree.add_child(0, 2)
        tree.add_child(0, 3)
        tree.add_child(a, 4)
        tree.add_child(a, 5)
        pruned = prune_to_size(tree, 3)
        pruned.validate()
        assert len(pruned) == 3
        assert pruned.tokens[0] == 1

    def test_prune_preserves_proposals(self):
        tree = TokenTree(1)
        tree.add_child(0, 2, tree.add_proposal(np.full(4, 0.25)))
        tree.add_child(0, 3, tree.add_proposal(np.full(4, 0.5)))
        pruned = prune_to_size(tree, 2)
        pruned.validate()
        np.testing.assert_array_equal(pruned.proposal_for(1), 0.25)

    def test_generation_near_capacity_terminates(self, llm, rng):
        """Requests that hit the context limit end gracefully."""
        prompt = make_prompt(rng, length=5)
        engine = make_engine(llm)
        result = engine.generate(
            prompt, GenerationConfig(max_new_tokens=500, stop_on_eos=False)
        )
        # capacity is 96; generation must stop without raising.
        assert result.num_tokens <= 96
