"""Cross-module integration tests: the full SpecInfer pipeline."""

import numpy as np
import pytest

from repro import (
    CoupledSSM,
    ExpansionConfig,
    GenerationConfig,
    IncrementalEngine,
    SamplingConfig,
    SpecInferEngine,
    Speculator,
    make_sequence_spec_engine,
)
from repro.cluster.cost_model import LatencyModel
from repro.cluster.hardware import single_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.parallel import ParallelPlan
from repro.cluster.simulator import ServingSimulator
from repro.workloads.datasets import make_dataset
from tests.conftest import make_prompt


class TestFullPipelineGreedy:
    def test_three_systems_agree_on_output(self, llm, rng):
        """Incremental, sequence-spec and tree-spec all emit the same
        greedy sequence — the paper's losslessness claim end to end."""
        prompt = make_prompt(rng, length=6)
        config = GenerationConfig(max_new_tokens=20)
        ssm = CoupledSSM(llm, alignment=0.88, seed=5, noise_scale=2.0)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        sequence = make_sequence_spec_engine(
            llm, CoupledSSM(llm, alignment=0.88, seed=5, noise_scale=2.0)
        ).generate(prompt, config)
        tree = SpecInferEngine(
            llm, Speculator([ssm], ExpansionConfig.paper_default())
        ).generate(prompt, config)
        assert incremental.tokens == sequence.tokens == tree.tokens

    def test_step_ordering_tree_fewest(self, llm):
        """LLM steps: tree-spec <= sequence-spec <= incremental, on average
        (the mechanism behind Figures 7 and 9)."""
        rng = np.random.default_rng(1)
        prompts = [make_prompt(rng, length=6) for _ in range(5)]
        config = GenerationConfig(max_new_tokens=24, stop_on_eos=False)

        def steps(engine_builder):
            return float(np.mean([
                engine_builder().generate(p, config).num_llm_steps
                for p in prompts
            ]))

        inc = steps(lambda: IncrementalEngine(llm))
        seq = steps(lambda: make_sequence_spec_engine(
            llm, CoupledSSM(llm, alignment=0.9, seed=5, noise_scale=2.0)
        ))
        tree = steps(lambda: SpecInferEngine(
            llm,
            Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=5, noise_scale=2.0)],
                ExpansionConfig.width_sweep(3, depth=8, expand_step=0),
            ),
        ))
        assert tree <= seq <= inc
        assert tree < inc

    def test_simulated_latency_speedup_in_paper_band(self, llm):
        """End-to-end: algorithm traces + cost model land in 1.2-4x for
        distributed inference at BS=1 (paper: 1.5-2.8x)."""
        rng = np.random.default_rng(2)
        prompts = [make_prompt(rng, length=6) for _ in range(4)]
        config = GenerationConfig(max_new_tokens=24, stop_on_eos=False)
        cluster = single_node_cluster()
        sim = ServingSimulator(
            LatencyModel(paper_model("llama-7b"), ParallelPlan(), cluster),
            LatencyModel(paper_model("llama-68m"), ParallelPlan(), cluster),
        )
        inc_traces = [IncrementalEngine(llm).generate(p, config)
                      for p in prompts]
        engine = SpecInferEngine(
            llm,
            Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=5, noise_scale=2.0)],
                ExpansionConfig.paper_default(),
            ),
        )
        spec_traces = [engine.generate(p, config) for p in prompts]
        inc_latency = sim.replay_many(inc_traces).per_token_seconds
        spec_latency = sim.replay_many(spec_traces).per_token_seconds
        speedup = inc_latency / spec_latency
        assert 1.2 < speedup < 4.0, speedup


class TestFullPipelineStochastic:
    def test_stochastic_output_distribution_preserved(self, llm):
        """Theorem 4.2 end-to-end: the first generated token's empirical
        distribution under tree-spec matches incremental decoding's."""
        rng = np.random.default_rng(3)
        prompt = make_prompt(rng, length=5)
        sampling = SamplingConfig(temperature=1.0)
        n_trials = 400
        vocab = llm.config.vocab_size

        def first_token_freqs(make_result):
            counts = np.zeros(vocab)
            for seed in range(n_trials):
                tokens = make_result(seed)
                counts[tokens[0]] += 1
            return counts / counts.sum()

        inc_engine = IncrementalEngine(llm)
        freq_inc = first_token_freqs(
            lambda seed: inc_engine.generate(
                prompt,
                GenerationConfig(max_new_tokens=1, sampling=sampling,
                                 seed=seed),
            ).tokens
        )
        engine = SpecInferEngine(
            llm,
            Speculator(
                [CoupledSSM(llm, alignment=0.8, seed=5, noise_scale=2.0)],
                ExpansionConfig((3, 1)),
            ),
        )
        freq_tree = first_token_freqs(
            lambda seed: engine.generate(
                prompt,
                GenerationConfig(max_new_tokens=1, sampling=sampling,
                                 seed=seed),
            ).tokens
        )
        # Both are 400-sample estimates of the same distribution.
        from tests.conftest import total_variation_distance

        assert total_variation_distance(freq_inc, freq_tree) < 0.25


class TestWorkloadIntegration:
    def test_datasets_drive_generation(self, llm):
        dataset = make_dataset("Alpaca", vocab_size=llm.config.vocab_size)
        engine = SpecInferEngine(
            llm,
            Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=5, noise_scale=2.0)],
                ExpansionConfig.paper_default(),
            ),
        )
        for prompt in dataset.sample_prompts(3, max_len=10):
            result = engine.generate(
                list(prompt), GenerationConfig(max_new_tokens=8)
            )
            assert result.num_tokens >= 1
