"""Failure injection: the system degrades gracefully at resource limits."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.kv_cache import BatchArena
from repro.model.transformer import TransformerLM
from repro.serving.manager import RequestManager
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import SMALL_CONFIG, make_prompt


class TestContextLimits:
    def test_generation_stops_at_context_limit_not_crash(self, rng):
        """A request whose budget exceeds the context window ends cleanly
        with fewer tokens, for all engines."""
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine

        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                             n_heads=2, max_seq_len=24)
        llm = TransformerLM(config, seed=0)
        ssm = CoupledSSM(llm, alignment=0.8, seed=1, noise_scale=2.0)
        prompt = rng.integers(1, 32, size=6)
        generation = GenerationConfig(max_new_tokens=100, stop_on_eos=False)
        for engine in (
            IncrementalEngine(llm),
            SpecInferEngine(llm, Speculator([ssm], ExpansionConfig((2, 2)))),
        ):
            result = engine.generate(list(prompt), generation)
            assert 0 < result.num_tokens <= 24

    def test_speculation_near_limit_still_lossless(self, rng):
        """Trees pruned at the context boundary must not corrupt output."""
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine

        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                             n_heads=2, max_seq_len=26)
        llm = TransformerLM(config, seed=3)
        ssm = CoupledSSM(llm, alignment=0.9, seed=4, noise_scale=2.0)
        prompt = list(rng.integers(1, 32, size=5))
        generation = GenerationConfig(max_new_tokens=100, stop_on_eos=False)
        reference = IncrementalEngine(llm).generate(prompt, generation)
        speculative = SpecInferEngine(
            llm, Speculator([ssm], ExpansionConfig((2, 2, 2)))
        ).generate(prompt, generation)
        n = min(reference.num_tokens, speculative.num_tokens)
        assert speculative.tokens[:n] == reference.tokens[:n]


class TestPoolExhaustion:
    def test_arena_exhaustion_is_loud(self, llm, rng):
        """A full arena raises MemoryError, and a prompt past a cache's
        rows raises ValueError (never silent corruption)."""
        arena = BatchArena(SMALL_CONFIG, capacity=16)
        cache = arena.new_sequence(8)
        neighbour = arena.new_sequence(8)
        with pytest.raises(MemoryError, match="exhausted"):
            arena.new_sequence(1)
        with pytest.raises(ValueError, match="overflow"):
            llm.prefill(rng.integers(1, 64, size=12), cache)

    def test_oversubscribed_batch_fails_fast(self, llm, rng):
        """A manager without admission control on an undersized arena
        surfaces MemoryError instead of deadlocking."""
        arena = BatchArena(SMALL_CONFIG, max_requests=3)
        mgr = RequestManager(
            lambda req: IncrementalSession(req, llm,
                                           cache_factory=arena.new_sequence),
            max_batch_size=4,
        )
        for _ in range(4):
            mgr.submit(make_prompt(rng, length=8),
                       GenerationConfig(max_new_tokens=8, stop_on_eos=False))
        with pytest.raises(MemoryError):
            mgr.run_until_complete()


class TestAdversarialTrees:
    def test_verifier_handles_tree_with_unknown_proposals(self, llm, rng):
        """Hand-built trees lacking proposal distributions verify without
        error in stochastic mode (deterministic-proposal semantics)."""
        from repro.engine.batched import BatchedTreeVerifier
        from repro.model.sampling import SamplingConfig
        from repro.tree.token_tree import TokenTree

        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = TokenTree(int(prompt[-1]))
        tree.add_path([1, 2, 3])
        tree.add_path([4, 5])
        result = BatchedTreeVerifier(llm).verify_batch(
            [tree], [cache], [SamplingConfig(temperature=1.0)],
            [np.random.default_rng(0)])[0]
        result.validate()

    def test_deep_chain_tree_within_limits(self, llm, rng):
        """A maximum-depth chain (degenerate tree) verifies correctly."""
        from repro.engine.batched import BatchedTreeVerifier
        from repro.model.sampling import SamplingConfig
        from repro.tree.token_tree import TokenTree

        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = TokenTree(int(prompt[-1]))
        tree.add_path(list(rng.integers(1, 64, size=30)))
        result = BatchedTreeVerifier(llm).verify_batch(
            [tree], [cache], [SamplingConfig(greedy=True)], [rng])[0]
        result.validate()
        assert cache.length == len(prompt) - 1 + len(result.accepted_nodes)

    def test_duplicate_heavy_merge(self):
        """Merging many copies of the same tree never duplicates nodes."""
        from repro.tree.token_tree import TokenTree, merge_trees

        tree = TokenTree(1)
        tree.add_path([2, 3, 4])
        merged = merge_trees([tree] * 10)
        assert len(merged) == len(tree)
