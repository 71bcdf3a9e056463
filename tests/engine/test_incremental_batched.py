"""Iteration-level batching of Algorithm 1 is an *optimization*, not a fork.

``IncrementalBackend.verify`` scores every state of a tick in one LLM
forward (``TransformerLM.decode_batch``).  The loop it replaced — one
``model.decode`` per state — is kept here as the reference, and the two are
compared tick for tick: committed tokens exactly, logits to 1e-12.  Not bit
for bit: a one-row product goes through GEMV and a B-row one through GEMM,
and the two round differently in the last digits.  Sampling stays exact
because every state draws from its own RNG stream, in batch order, exactly
once per tick on both sides.

At manager level, ``RequestManager(incremental_factory)`` ticks its
sessions through one shared pipeline; its outputs must equal
``IncrementalEngine.generate`` per prompt, across preemption and a
session-fault cooldown too.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    IncrementalBackend,
)
from repro.faults import FaultKind
from repro.model.kv_cache import BatchArena
from repro.model.sampling import SamplingConfig, sample_token
from repro.serving.manager import RequestManager
from repro.verify.result import VerificationResult
from tests.conftest import ScriptedInjector, make_prompt
from tests.serving.test_manager import incremental_factory

LOGIT_TOLERANCE = 1e-12


class PerStateBackend(IncrementalBackend):
    """The reference: one ``model.decode`` per state, as before batching."""

    def __init__(self, model):
        super().__init__(model)
        self.logits = []  # per tick: (states, vocab)

    def verify(self, states, trees):
        rows, results = [], []
        for state, tree in zip(states, trees):
            logits = self.model.decode(int(tree.tokens[0]), state.cache)
            rows.append(np.array(logits))
            token = int(sample_token(logits, state.sampling, state.rng))
            results.append(VerificationResult(
                accepted_tokens=[token], accepted_nodes=[0],
                bonus_token=token, num_candidates_considered=1,
            ))
        self.logits.append(np.stack(rows))
        return results


class LogitTap:
    """``model`` with each ``decode_batch`` result copied out of the arena
    (per tick: (states, vocab))."""

    def __init__(self, model):
        self._model = model
        self.logits = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def decode_batch(self, tokens, caches, scratch=None):
        logits = self._model.decode_batch(tokens, caches, scratch=scratch)
        self.logits.append(np.array(logits))
        return logits


def _cache_factory(llm, kind, slots):
    """A fresh KV home per run, so the two sides never share storage:
    ``contiguous`` gives each request a private arena of its own, ``arena``
    a slot of one shared arena."""
    if kind == "contiguous":
        return None
    return BatchArena(llm.config, max_requests=slots).new_sequence


def _state(llm, cache_factory, greedy, seed, prompt_len, max_new_tokens):
    sampling = (SamplingConfig(greedy=True) if greedy
                else SamplingConfig(temperature=1.0))
    prompt = make_prompt(np.random.default_rng(1000 * seed + prompt_len),
                         length=prompt_len)
    # The prompt pass emits one token here, so the ticks under test emit
    # ``max_new_tokens`` more.
    config = GenerationConfig(max_new_tokens=max_new_tokens + 1,
                              sampling=sampling, stop_on_eos=False,
                              seed=seed + prompt_len)
    state = DecodeState(llm, prompt, config, cache_factory=cache_factory)
    DecodePipeline(llm).prefill([state])
    return state


def _drive(llm, backend, cache_kind, greedy, seed, shapes, late=()):
    """Run ``shapes`` (``(prompt_len, max_new_tokens)`` per request) to
    completion, admitting ``late`` (``(tick, prompt_len, budget)``) on the
    way; returns per-tick ``[(request, emitted, retired), ...]``."""
    factory = _cache_factory(llm, cache_kind, len(shapes) + len(late))
    batch = [(r, _state(llm, factory, greedy, seed, *shape))
             for r, shape in enumerate(shapes)]
    pending = [(tick, len(shapes) + k, shape)
               for k, (tick, *shape) in enumerate(sorted(late))]
    pipeline = DecodePipeline(llm, backend)
    ticks = []
    while batch or pending:
        while pending and pending[0][0] <= len(ticks):
            _, r, shape = pending.pop(0)
            batch.append((r, _state(llm, factory, greedy, seed, *shape)))
        outcomes = pipeline.tick([state for _, state in batch])
        ticks.append([(r, list(o.emitted), o.retired)
                      for (r, _), o in zip(batch, outcomes)])
        for _, state in batch:
            if state.finished:
                state.release()
        batch = [(r, state) for r, state in batch if not state.finished]
    return ticks


def _assert_batched_equals_per_state(llm, cache_kind, greedy, seed, shapes,
                                     late=()):
    reference = PerStateBackend(llm)
    batched = LogitTap(llm)
    expected = _drive(llm, reference, cache_kind, greedy, seed, shapes, late)
    actual = _drive(llm, IncrementalBackend(batched), cache_kind, greedy,
                    seed, shapes, late)
    assert actual == expected
    assert len(batched.logits) == len(reference.logits) > 0
    for got, want in zip(batched.logits, reference.logits):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= LOGIT_TOLERANCE
    return expected


CACHES = ["contiguous", "arena"]
MODES = pytest.mark.parametrize("greedy", [True, False],
                                ids=["greedy", "sampling"])


class TestBatchedEqualsPerState:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cache_kind", CACHES)
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @MODES
    def test_uneven_prefixes(self, llm, greedy, batch, cache_kind, seed):
        """Every request at its own position; uneven budgets, so the batch
        also shrinks one request at a time."""
        shapes = [(2 + 3 * r, 5 + r) for r in range(batch)]
        ticks = _assert_batched_equals_per_state(
            llm, cache_kind, greedy, seed, shapes)
        assert len(ticks[0]) == batch and len(ticks[-1]) == 1

    @pytest.mark.parametrize("cache_kind", CACHES)
    @MODES
    def test_batch_composition_changes_mid_run(self, llm, greedy,
                                               cache_kind):
        """One request finishes on the third tick, another is admitted on
        the fifth."""
        ticks = _assert_batched_equals_per_state(
            llm, cache_kind, greedy, 5, [(4, 3), (7, 12), (11, 9)],
            late=[(4, 6, 7)])
        assert [r for r, _, _ in ticks[2]] == [0, 1, 2]
        assert [r for r, _, _ in ticks[4]] == [1, 2, 3]

    @pytest.mark.parametrize("cache_kind", CACHES)
    @MODES
    def test_request_retires_at_context_capacity(self, llm, greedy,
                                                 cache_kind):
        """90 of 96 positions are prompt: the request runs out of context
        and retires mid-run while its neighbours keep decoding."""
        ticks = _assert_batched_equals_per_state(
            llm, cache_kind, greedy, 3, [(5, 14), (90, 40), (9, 14)])
        retired_at = [t for t, tick in enumerate(ticks)
                      if any(r == 1 and retired for r, _, retired in tick)]
        assert retired_at and retired_at[0] < len(ticks) - 1
        assert all(r != 1 for r, _, _ in ticks[retired_at[0] + 1])


def _submit_all(llm, mgr, greedy, seed, n=4):
    """Submit ``n`` requests; returns ``{id: engine tokens}``."""
    sampling = (SamplingConfig(greedy=True) if greedy
                else SamplingConfig(temperature=1.0))
    rng = np.random.default_rng(seed)
    expected = {}
    for r in range(n):
        prompt = make_prompt(rng, length=3 + 2 * r)
        config = GenerationConfig(max_new_tokens=6 + r, sampling=sampling,
                                  stop_on_eos=False, seed=seed + r)
        expected[mgr.submit(prompt, config)] = (
            IncrementalEngine(llm).generate(prompt, config).tokens)
    return expected


class TestManagerEqualsEngine:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cache_kind", CACHES)
    @MODES
    def test_outputs_equal_engine_per_prompt(self, llm, greedy, cache_kind,
                                             seed):
        """More requests than slots, so admissions join a running batch."""
        mgr = RequestManager(
            incremental_factory(llm, _cache_factory(llm, cache_kind, 3)),
            max_batch_size=3)
        expected = _submit_all(llm, mgr, greedy, seed, n=5)
        mgr.run_until_complete()
        assert {rid: mgr.output_for(rid).tokens
                for rid in expected} == expected

    def test_preempt_requeue_resume(self, llm):
        mgr = RequestManager(incremental_factory(llm), max_batch_size=3)
        expected = _submit_all(llm, mgr, greedy=True, seed=7, n=3)
        for _ in range(3):
            mgr.run_iteration()
        mgr.preempt(1)
        # Request 1 re-enters through a prefill iteration of its own ...
        stats = mgr.run_iteration()
        assert stats.admitted == 1 and set(stats.emissions) == {1}
        # ... and decodes with the others from the next one.
        assert set(mgr.run_iteration().emissions) == {0, 1, 2}
        mgr.run_until_complete()
        assert mgr.output_for(1).preemptions == 1
        assert {rid: mgr.output_for(rid).tokens
                for rid in expected} == expected

    def test_session_fault_cooldown_skips_only_that_request(self, llm):
        """The cooling request is absent from the batch; the others
        advance, and every output is still the engine's."""
        # SESSION draws are per schedulable request per decode iteration,
        # in running order (the prefill iteration draws none): the first
        # decode iteration draws (0, 0, 0), the second (0, 1, 0).
        injector = ScriptedInjector({FaultKind.SESSION: [0, 0, 0, 0, 1, 0]})
        mgr = RequestManager(incremental_factory(llm), max_batch_size=3,
                             injector=injector)
        expected = _submit_all(llm, mgr, greedy=True, seed=11, n=3)
        assert mgr.run_iteration().admitted == 3
        assert set(mgr.run_iteration().emissions) == {0, 1, 2}
        assert set(mgr.run_iteration().emissions) == {0, 2}
        assert set(mgr.run_iteration().emissions) == {0, 1, 2}
        mgr.run_until_complete()
        assert mgr.output_for(1).retries == 1
        assert {rid: mgr.output_for(rid).tokens
                for rid in expected} == expected

    def test_verification_fault_is_drawn_once_per_iteration(self, llm):
        """One shared pipeline: one draw for the batch (not one per
        session), and a firing one degrades the whole batch's tick — which
        is Algorithm 1 either way, so tokens do not move."""
        injector = ScriptedInjector({FaultKind.VERIFICATION: [0, 1]})
        mgr = RequestManager(incremental_factory(llm), max_batch_size=3,
                             injector=injector)
        expected = _submit_all(llm, mgr, greedy=True, seed=13, n=3)
        for _ in range(3):  # the prefill iteration, then two ticks
            assert set(mgr.run_iteration().emissions) == {0, 1, 2}
        assert injector.checks[FaultKind.VERIFICATION] == 2
        assert injector.checks[FaultKind.SPECULATION] == 0
        assert injector.injected[FaultKind.VERIFICATION] == 1
        mgr.run_until_complete()
        assert {rid: mgr.output_for(rid).tokens
                for rid in expected} == expected
