"""Manager fault tolerance: preemption, bounded retry, terminal failure.

These tests drive the failure paths deterministically (scripted injector
decisions) and assert the two load-bearing invariants: resources are fully
reclaimed (batch slots and arena rows, the SSM mirror slots included), and
under greedy verification every surviving request's output is
bit-identical to a fault-free run.  Every lifecycle path here runs in the
sanitized chaos step, with the arena's overlap guard armed.
"""

from itertools import repeat

import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.model.config import ModelConfig
from repro.model.kv_cache import BatchArena
from repro.model.transformer import TransformerLM
from repro.faults import FaultError, FaultInjector, FaultKind
from repro.serving.manager import MAX_SESSION_RETRIES, RequestManager
from repro.serving.request import RequestState
from tests.conftest import (
    SMALL_CONFIG,
    ScriptedInjector,
    arena_rows_used,
    make_prompt,
)
from tests.serving.test_manager import incremental_factory, speculative_factory

pytestmark = pytest.mark.chaos


def reference_tokens(llm, prompt, config):
    return IncrementalEngine(llm).generate(prompt, config).tokens


class TestPreemption:
    def test_preempt_requeues_and_recomputes_bit_identically(self, llm, rng):
        """A preempted request's final output equals the unpreempted run."""
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=12, stop_on_eos=False)
        mgr = RequestManager(speculative_factory(llm), max_batch_size=2)
        rid = mgr.submit(prompt, config)
        for _ in range(2):  # cannot finish: 2 ticks emit at most 8 tokens
            mgr.run_iteration()
        committed_before = list(mgr._tracked[rid].session.tokens)
        assert committed_before, "need progress before preempting"
        mgr.preempt(rid)
        assert mgr._tracked[rid].request.state is RequestState.WAITING
        assert mgr._tracked[rid].session is None
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.preemptions == 1
        assert output.tokens == reference_tokens(llm, prompt, config)
        assert output.tokens[: len(committed_before)] == committed_before

    def test_preempt_gives_back_arena_rows(self, llm, rng):
        before = arena_rows_used()
        arena = BatchArena(SMALL_CONFIG, max_requests=1)
        mgr = RequestManager(
            speculative_factory(llm, cache_factory=arena.new_sequence))
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=6,
                                          stop_on_eos=False))
        mgr.run_iteration()
        assert arena.used_rows > 0
        mgr.preempt(rid)
        assert arena.used_rows == 0
        assert arena_rows_used() == before
        mgr.run_until_complete()
        assert arena.used_rows == 0
        assert arena_rows_used() == before

    def test_preempt_non_running_raises(self, llm, rng):
        mgr = RequestManager(incremental_factory(llm))
        rid = mgr.submit(make_prompt(rng))
        with pytest.raises(ValueError, match="not running"):
            mgr.preempt(rid)
        with pytest.raises(KeyError):
            mgr.preempt(99)

    def test_kv_pressure_fault_preempts_one_victim(self, llm, rng):
        """An injected pressure spike sheds the newest request, which then
        finishes with unchanged output."""
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        prompts = [make_prompt(rng, length=4) for _ in range(2)]
        injector = ScriptedInjector({FaultKind.KV_PRESSURE: [0, 0, 1]})
        mgr = RequestManager(incremental_factory(llm), max_batch_size=2,
                             injector=injector)
        ids = [mgr.submit(p, config) for p in prompts]
        mgr.run_until_complete()
        victim = mgr.output_for(ids[1])  # the newest request goes first
        assert victim.preemptions == 1
        assert mgr.output_for(ids[0]).preemptions == 0
        for rid, prompt in zip(ids, prompts):
            assert mgr.output_for(rid).tokens == \
                reference_tokens(llm, prompt, config)


class TestPreemptionAtTheContextEdge:
    """A request preempted with its context full has no room left to
    decode: it finishes with what it committed, as the tick's fitter would
    have retired it, instead of failing to re-admit a resume prompt one
    token longer than the context."""

    @pytest.mark.parametrize("factory, max_seq_len", [
        (incremental_factory, 12), (speculative_factory, 16),
    ], ids=["incremental", "speculative"])
    def test_preempted_full_context_finishes(self, factory, max_seq_len):
        llm = TransformerLM(ModelConfig(
            vocab_size=64, d_model=16, n_layers=1, n_heads=2,
            max_seq_len=max_seq_len, name="edge"), seed=5)
        prompt = list(range(1, 9))
        config = GenerationConfig(max_new_tokens=50, stop_on_eos=False)
        clean = FaultInjector()
        mgr = RequestManager(factory(llm), injector=clean)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        expected = mgr.output_for(rid).tokens
        # The context, not the budget, ended the clean run.
        assert len(prompt) + len(expected) == max_seq_len + 1
        # Its last decode iteration found the cache full and retired it:
        # preempt it there instead.
        last = clean.checks[FaultKind.KV_PRESSURE]
        before = arena_rows_used()
        injector = ScriptedInjector(
            {FaultKind.KV_PRESSURE: [0] * (last - 1) + [1]})
        mgr = RequestManager(factory(llm), injector=injector)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        assert mgr.failed_outputs() == []
        output = mgr.output_for(rid)
        assert mgr._tracked[rid].request.state is RequestState.FINISHED
        assert output.preemptions == 1 and output.error is None
        assert output.tokens == expected
        assert [rid] == [r for stats in mgr.iteration_stats
                         for r in stats.finished_ids]
        assert arena_rows_used() == before


class TestBoundedRetry:
    def test_transient_fault_backs_off_then_recovers(self, llm, rng):
        prompt = make_prompt(rng, length=4)
        config = GenerationConfig(max_new_tokens=6, stop_on_eos=False)
        injector = ScriptedInjector({FaultKind.SESSION: [0, 1]})
        mgr = RequestManager(incremental_factory(llm), injector=injector)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.retries == 1
        assert output.error is None
        assert output.tokens == reference_tokens(llm, prompt, config)
        # The faulted iteration advanced nothing: one extra iteration beyond
        # the fault-free finish (iteration 5 for 6 one-token iterations).
        assert output.finish_iteration == 5 + 1

    def test_backoff_skips_iterations_exponentially(self, llm, rng):
        """Consecutive faults double the cooldown: 1, 2, 4 iterations."""
        injector = ScriptedInjector({FaultKind.SESSION: [1, 1]})
        mgr = RequestManager(incremental_factory(llm), injector=injector)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=2,
                                          stop_on_eos=False))
        mgr.run_iteration()  # iteration 0: the prompt pass, no check
        assert injector.checks[FaultKind.SESSION] == 0
        mgr.run_iteration()  # fault 1 -> cooldown until iteration 2
        tracked = mgr._tracked[rid]
        assert tracked.cooldown_until == 2
        mgr.run_iteration()  # fault 2 -> cooldown until iteration 4
        assert tracked.cooldown_until == 4
        mgr.run_iteration()  # iteration 3: still cooling down, no check
        assert injector.checks[FaultKind.SESSION] == 2
        mgr.run_until_complete()
        assert mgr.output_for(rid).retries == 2

    def test_exhausted_retries_fail_terminally(self, llm, rng):
        injector = ScriptedInjector({FaultKind.SESSION: repeat(1)})
        mgr = RequestManager(incremental_factory(llm), injector=injector)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=4,
                                          stop_on_eos=False))
        outputs = mgr.run_until_complete()
        assert outputs == []  # nothing finished
        failed = mgr.failed_outputs()
        assert [o.request_id for o in failed] == [rid]
        assert mgr._tracked[rid].request.state is RequestState.FAILED
        assert "retries" in failed[0].error
        # Every tolerated fault, then the fatal one.
        assert failed[0].retries == MAX_SESSION_RETRIES + 1 == 4
        # The prompt pass's token is all it has: no tick ever ran.
        assert len(failed[0].tokens) == 1
        assert failed[0].num_llm_steps == 0

    def test_failure_releases_resources(self, llm, rng):
        before = arena_rows_used()
        arena = BatchArena(SMALL_CONFIG, max_requests=1)
        injector = ScriptedInjector({FaultKind.SESSION: repeat(1)})
        mgr = RequestManager(
            speculative_factory(llm, cache_factory=arena.new_sequence),
            injector=injector)
        rid = mgr.submit(make_prompt(rng))
        mgr.run_until_complete()
        assert mgr._tracked[rid].session is None
        assert mgr.free_slots == mgr.max_batch_size
        assert arena.used_rows == 0
        assert arena_rows_used() == before

    def test_streak_resets_on_successful_advance(self, llm, rng):
        """Retries are consecutive, not cumulative: streaks of tolerated
        faults between advances never exhaust the budget, however many
        faults they add up to."""
        streak = [1] * MAX_SESSION_RETRIES + [0]
        injector = ScriptedInjector({FaultKind.SESSION: streak * 2})
        mgr = RequestManager(incremental_factory(llm), injector=injector)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=4,
                                          stop_on_eos=False))
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.error is None
        assert output.retries == 2 * MAX_SESSION_RETRIES


class TestAdmissionFaults:
    def test_factory_exception_holds_no_rows(self, llm, rng):
        """A session factory that raises something other than a fault or
        a bad-request error propagates, and neither a slot nor a row stays
        taken."""
        before = arena_rows_used()

        def exploding_factory(request):
            raise RuntimeError("model load failed")

        mgr = RequestManager(exploding_factory)
        mgr.submit(make_prompt(rng))
        with pytest.raises(RuntimeError, match="model load failed"):
            mgr.run_iteration()
        assert mgr.num_running == 0 and mgr.num_waiting == 1
        assert arena_rows_used() == before

    @pytest.mark.parametrize("bad_prompt", [
        list(range(1, SMALL_CONFIG.max_seq_len + 2)), [1, 99], [1, -3],
    ], ids=["too_long", "id_past_vocab", "negative_id"])
    def test_bad_prompt_fails_alone(self, llm, rng, bad_prompt):
        """One request whose own data is unservable is FAILED with a
        reason at admission; its neighbour's stream is Algorithm 1's and
        every arena row comes back."""
        before = arena_rows_used()
        arena = BatchArena(SMALL_CONFIG, max_requests=2)
        arena_factory = speculative_factory(
            llm, cache_factory=arena.new_sequence)
        mgr = RequestManager(arena_factory, max_batch_size=2)
        config = GenerationConfig(max_new_tokens=6, stop_on_eos=False)
        prompt = make_prompt(rng)
        bad = mgr.submit(bad_prompt, config)
        good = mgr.submit(prompt, config)
        first = mgr.run_iteration()
        assert first.failed_ids == [bad] and first.admitted == 1
        outputs = mgr.run_until_complete()
        assert [o.request_id for o in outputs] == [good]
        assert outputs[0].tokens == reference_tokens(llm, prompt, config)
        failed = mgr.output_for(bad)
        assert failed.tokens == [] and "rejected at admission" in failed.error
        assert [o.request_id for o in mgr.failed_outputs()] == [bad]
        assert arena.used_rows == 0
        assert arena_rows_used() == before

    def test_transient_factory_fault_retries_with_backoff(self, llm, rng):
        """A FaultError from the factory keeps the request WAITING and
        re-admits it after the cooldown."""
        before = arena_rows_used()
        arena = BatchArena(SMALL_CONFIG, max_requests=1)
        attempts = []
        inner = incremental_factory(llm, cache_factory=arena.new_sequence)

        def flaky_factory(request):
            attempts.append(request.request_id)
            if len(attempts) == 1:
                raise FaultError("injected")
            return inner(request)

        prompt = make_prompt(rng)
        config = GenerationConfig(max_new_tokens=4, stop_on_eos=False)
        mgr = RequestManager(flaky_factory)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        assert len(attempts) == 2
        assert arena.used_rows == 0
        assert arena_rows_used() == before
        output = mgr.output_for(rid)
        assert output.retries == 1
        assert output.tokens == reference_tokens(llm, prompt, config)


class TestDrainedAccounting:
    def test_arena_rows_back_after_chaotic_drain(self, llm, rng):
        """Many admit/retire/preempt/retry cycles under random faults end
        with every arena row — request caches and SSM mirror slots — back."""
        before = arena_rows_used()
        arena = BatchArena(SMALL_CONFIG, max_requests=3)
        injector = FaultInjector(rate=0.2, seed=13)
        mgr = RequestManager(
            speculative_factory(llm, cache_factory=arena.new_sequence),
            max_batch_size=3, injector=injector)
        for _ in range(5):
            mgr.submit(make_prompt(rng, length=4),
                       GenerationConfig(max_new_tokens=6, stop_on_eos=False))
        mgr.run_until_complete(max_iterations=2000)
        assert mgr.iteration_stats and not mgr.has_work
        assert arena.used_rows == 0
        assert arena_rows_used() == before
