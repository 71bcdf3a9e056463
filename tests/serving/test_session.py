"""Tests for per-request decode sessions."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.model.coupled import CoupledSSM
from repro.serving.request import Request
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt


def make_request(prompt, max_new=8, rid=0):
    return Request(
        request_id=rid,
        prompt=np.asarray(prompt),
        config=GenerationConfig(max_new_tokens=max_new, stop_on_eos=False),
    )


def spec_session(llm, request):
    return SpeculativeSession(
        request,
        llm,
        lambda: Speculator(
            [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
            ExpansionConfig((1, 2, 1)),
        ),
    )


class TestIncrementalSession:
    def test_one_token_per_step(self, llm, rng):
        session = IncrementalSession(make_request(make_prompt(rng)), llm)
        # A standalone session's first step also takes the prompt pass,
        # whose token leads the delta.
        emitted = session.step()
        assert len(emitted) == 2
        assert session.tokens == emitted
        assert len(session.step()) == 1

    def test_finishes_at_budget(self, llm, rng):
        session = IncrementalSession(
            make_request(make_prompt(rng), max_new=3), llm
        )
        steps = 0
        while not session.finished:
            session.step()
            steps += 1
        assert steps == 2  # prompt pass + tick, then one more tick
        assert len(session.tokens) == 3

    def test_step_after_finish_is_noop(self, llm, rng):
        session = IncrementalSession(
            make_request(make_prompt(rng), max_new=1), llm
        )
        session.step()
        assert session.finished
        assert session.step() == []

    def test_matches_engine(self, llm, rng):
        from repro.engine.incremental import IncrementalEngine

        prompt = make_prompt(rng, length=5)
        session = IncrementalSession(make_request(prompt, max_new=6), llm)
        while not session.finished:
            session.step()
        engine_result = IncrementalEngine(llm).generate(
            prompt, GenerationConfig(max_new_tokens=6, stop_on_eos=False)
        )
        assert session.tokens == engine_result.tokens


class TestSpeculativeSession:
    def test_can_emit_multiple_tokens_per_step(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        session = spec_session(llm, make_request(prompt, max_new=12))
        emitted = session.step()
        assert 2 <= len(emitted) <= 5  # prompt pass + depth-3 tree + bonus
        assert 1 <= len(session.step()) <= 4

    def test_matches_incremental_greedy(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        inc = IncrementalSession(make_request(prompt, max_new=10), llm)
        spec = spec_session(llm, make_request(prompt, max_new=10))
        while not inc.finished:
            inc.step()
        while not spec.finished:
            spec.step()
        assert spec.tokens == inc.tokens

    def test_respects_budget_exactly(self, llm, rng):
        session = spec_session(llm, make_request(make_prompt(rng), max_new=5))
        while not session.finished:
            session.step()
        assert len(session.tokens) == 5

    def test_traces_recorded(self, llm, rng):
        session = spec_session(llm, make_request(make_prompt(rng), max_new=8))
        session.step()
        assert len(session.steps) == 1
        assert session.steps[0].tree_size >= 1
        assert session.steps[0].ssm_steps == 3
