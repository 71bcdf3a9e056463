"""Tests for the incremental decoding engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.model.sampling import SamplingConfig
from tests.conftest import make_prompt


class TestIncrementalEngine:
    def test_generates_exact_token_budget(self, llm, rng):
        engine = IncrementalEngine(llm)
        result = engine.generate(
            make_prompt(rng), GenerationConfig(max_new_tokens=10,
                                               stop_on_eos=False)
        )
        assert result.num_tokens == 10
        # The prompt pass emits the first token; steps count decode steps.
        assert result.num_llm_steps == 9

    def test_rejects_empty_prompt(self, llm):
        with pytest.raises(ValueError, match="non-empty"):
            IncrementalEngine(llm).generate([])

    def test_greedy_matches_manual_decode(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        engine = IncrementalEngine(llm)
        result = engine.generate(prompt, GenerationConfig(max_new_tokens=5))
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        t = int(prompt[-1])
        expected = []
        for _ in range(5):
            t = int(np.argmax(llm.decode(t, cache)))
            expected.append(t)
        assert result.tokens == expected

    def test_stops_on_eos(self, llm, rng):
        # Find a seed/prompt that hits EOS within budget, by construction:
        # force EOS as the most likely token by hand is hard with a fixed
        # model, so test via stop_on_eos=False equivalence instead.
        prompt = make_prompt(rng)
        engine = IncrementalEngine(llm)
        with_eos = engine.generate(
            prompt, GenerationConfig(max_new_tokens=20, stop_on_eos=True)
        )
        without = engine.generate(
            prompt, GenerationConfig(max_new_tokens=20, stop_on_eos=False)
        )
        if with_eos.finished_by_eos:
            eos = llm.config.eos_token_id
            assert with_eos.tokens[-1] == eos
            assert with_eos.tokens == without.tokens[: len(with_eos.tokens)]
        else:
            assert with_eos.tokens == without.tokens

    def test_steps_trace_one_token_each(self, llm, rng):
        engine = IncrementalEngine(llm)
        result = engine.generate(
            make_prompt(rng), GenerationConfig(max_new_tokens=6)
        )
        for step in result.steps:
            assert step.llm_tokens_scored == 1
            assert step.tokens_emitted == 1
            assert step.ssm_steps == 0
        assert result.mean_tokens_per_step == 1.0

    def test_stochastic_reproducible_by_seed(self, llm, rng):
        prompt = make_prompt(rng)
        config = GenerationConfig(
            max_new_tokens=8,
            sampling=SamplingConfig(temperature=1.0),
            seed=123,
        )
        engine = IncrementalEngine(llm)
        a = engine.generate(prompt, config)
        b = engine.generate(prompt, config)
        assert a.tokens == b.tokens

    def test_stochastic_varies_by_seed(self, llm, rng):
        prompt = make_prompt(rng)
        engine = IncrementalEngine(llm)
        outs = {
            tuple(
                engine.generate(
                    prompt,
                    GenerationConfig(
                        max_new_tokens=8,
                        sampling=SamplingConfig(temperature=1.5),
                        seed=s,
                    ),
                ).tokens
            )
            for s in range(5)
        }
        assert len(outs) > 1

    def test_prefix_len_trace_grows(self, llm, rng):
        engine = IncrementalEngine(llm)
        result = engine.generate(
            make_prompt(rng, length=4), GenerationConfig(max_new_tokens=5)
        )
        prefixes = [s.prefix_len for s in result.steps]
        assert prefixes == sorted(prefixes)
        assert prefixes[0] == 4  # the prompt; the first token is pending
