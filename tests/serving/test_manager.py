"""Tests for the request manager: continuous batching invariants."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.model.coupled import CoupledSSM
from repro.serving.manager import RequestManager
from repro.serving.request import RequestState
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt


def incremental_factory(llm, cache_factory=None):
    return lambda req: IncrementalSession(req, llm,
                                          cache_factory=cache_factory)


def speculative_factory(llm, cache_factory=None):
    def factory(req):
        return SpeculativeSession(
            req,
            llm,
            lambda: Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
                ExpansionConfig((1, 2, 1)),
            ),
            cache_factory=cache_factory,
        )

    return factory


class TestSubmission:
    def test_ids_are_unique_and_sequential(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm))
        ids = [mgr.submit(make_prompt(rng)) for _ in range(3)]
        assert ids == [0, 1, 2]
        assert mgr.num_waiting == 3

    def test_rejects_bad_batch_size(self, llm):
        with pytest.raises(ValueError):
            RequestManager(incremental_factory(llm), max_batch_size=0)


class TestContinuousBatching:
    def test_batch_never_exceeds_limit(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm), max_batch_size=2)
        for _ in range(5):
            mgr.submit(make_prompt(rng), GenerationConfig(max_new_tokens=4,
                                                          stop_on_eos=False))
        while mgr.has_work:
            stats = mgr.run_iteration()
            assert stats.batch_size <= 2

    def test_new_requests_join_mid_flight(self, llm, rng):
        """A request submitted later is admitted as soon as a slot frees —
        without waiting for the whole batch to finish."""
        mgr = RequestManager(incremental_factory(llm), max_batch_size=2)
        mgr.submit(make_prompt(rng), GenerationConfig(max_new_tokens=2,
                                                      stop_on_eos=False))
        mgr.submit(make_prompt(rng), GenerationConfig(max_new_tokens=8,
                                                      stop_on_eos=False))
        mgr.run_iteration()
        late = mgr.submit(make_prompt(rng),
                          GenerationConfig(max_new_tokens=2,
                                           stop_on_eos=False))
        outputs = mgr.run_until_complete()
        late_output = mgr.output_for(late)
        # The long request (8 tokens) must still be running when the late
        # one was admitted and finished.
        long_output = mgr.output_for(1)
        assert late_output.finish_iteration < long_output.finish_iteration

    def test_all_requests_complete_with_full_budget(self, llm, rng):
        mgr = RequestManager(speculative_factory(llm), max_batch_size=3)
        ids = [
            mgr.submit(make_prompt(rng),
                       GenerationConfig(max_new_tokens=6, stop_on_eos=False))
            for _ in range(5)
        ]
        outputs = mgr.run_until_complete()
        assert len(outputs) == 5
        for request_id in ids:
            assert len(mgr.output_for(request_id).tokens) == 6

    def test_speculative_serving_matches_engine_output(self, llm, rng):
        """Greedy serving through the manager equals direct engine output."""
        from repro.engine.incremental import IncrementalEngine

        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=10)
        mgr = RequestManager(speculative_factory(llm), max_batch_size=2)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        served = mgr.output_for(rid).tokens
        reference = IncrementalEngine(llm).generate(prompt, config).tokens
        assert served == reference

    def test_iteration_stats_accounting(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm), max_batch_size=4)
        for _ in range(3):
            mgr.submit(make_prompt(rng),
                       GenerationConfig(max_new_tokens=3, stop_on_eos=False))
        mgr.run_until_complete()
        total_emitted = sum(s.tokens_emitted for s in mgr.iteration_stats)
        total_tokens = sum(
            len(o.tokens) for o in mgr.finished_outputs()
        )
        assert total_emitted == total_tokens
        assert sum(s.admitted for s in mgr.iteration_stats) == 3
        assert sum(s.finished for s in mgr.iteration_stats) == 3

    def test_speculative_finishes_in_fewer_iterations(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=12, stop_on_eos=False)
        inc = RequestManager(incremental_factory(llm))
        inc.submit(prompt, config)
        inc.run_until_complete()
        spec = RequestManager(speculative_factory(llm))
        spec.submit(prompt, config)
        spec.run_until_complete()
        assert spec.iteration <= inc.iteration


class TestOutputs:
    def test_output_for_unknown_raises(self, llm):
        mgr = RequestManager(incremental_factory(llm))
        with pytest.raises(KeyError):
            mgr.output_for(99)

    def test_output_for_unfinished_raises(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm))
        rid = mgr.submit(make_prompt(rng))
        with pytest.raises(ValueError, match="not finished"):
            mgr.output_for(rid)

    def test_first_token_iteration_recorded(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm))
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=3,
                                          stop_on_eos=False))
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.first_token_iteration == 0
        assert output.finish_iteration >= output.first_token_iteration

    def test_session_freed_after_finish(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm))
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=2,
                                          stop_on_eos=False))
        mgr.run_until_complete()
        assert mgr._tracked[rid].session is None
        assert mgr._tracked[rid].request.state is RequestState.FINISHED
