"""Manager fault tolerance: preemption, bounded retry, terminal failure.

These tests drive the failure paths deterministically (scripted injector
decisions) and assert the two load-bearing invariants: resources are fully
reclaimed (KV reservations, arena slots), and under greedy verification
every surviving request's output is bit-identical to a fault-free run.
"""

import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.model.arena import BatchArena
from repro.faults import (
    FaultInjector,
    FaultKind,
    TransientSessionFault,
)
from repro.serving.manager import RequestManager
from repro.serving.memory import KvMemoryPool
from repro.serving.policies import preempt_oldest_first
from repro.serving.request import RequestState
from tests.conftest import SMALL_CONFIG, make_prompt
from tests.serving.test_manager import incremental_factory, speculative_factory


class ScriptedInjector(FaultInjector):
    """Deterministic test double: fires per-kind scripted decisions."""

    def __init__(self, script):
        super().__init__(rate=0.0)
        self._script = {kind: list(flags) for kind, flags in script.items()}

    def _decide(self, kind):
        flags = self._script.get(kind)
        return bool(flags.pop(0)) if flags else False


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

    def test_preempt_releases_kv_reservation(self, llm, rng):
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        mgr = RequestManager(incremental_factory(llm), memory_pool=pool)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=6,
                                          stop_on_eos=False))
        mgr.run_iteration()
        assert pool.num_reservations == 1
        mgr.preempt(rid)
        assert pool.num_reservations == 0
        assert pool.reserved_bytes == 0
        mgr.run_until_complete()
        assert pool.reserved_bytes == 0

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
        victim = mgr.output_for(ids[1])  # newest-first default policy
        assert victim.preemptions == 1
        assert mgr.output_for(ids[0]).preemptions == 0
        for rid, prompt in zip(ids, prompts):
            assert mgr.output_for(rid).tokens == \
                reference_tokens(llm, prompt, config)

    def test_preemption_policy_override(self, llm, rng):
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        injector = ScriptedInjector({FaultKind.KV_PRESSURE: [0, 0, 1]})
        mgr = RequestManager(incremental_factory(llm), max_batch_size=2,
                             injector=injector,
                             preemption_policy=preempt_oldest_first)
        ids = [mgr.submit(make_prompt(rng, length=4), config)
               for _ in range(2)]
        mgr.run_until_complete()
        assert mgr.output_for(ids[0]).preemptions == 1
        assert mgr.output_for(ids[1]).preemptions == 0


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
        mgr = RequestManager(incremental_factory(llm), injector=injector,
                             max_session_retries=3)
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
        injector = FaultInjector(rates={FaultKind.SESSION: 1.0})
        mgr = RequestManager(incremental_factory(llm), injector=injector,
                             max_session_retries=2)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=4,
                                          stop_on_eos=False))
        outputs = mgr.run_until_complete()
        assert outputs == []  # nothing finished
        failed = mgr.failed_outputs()
        assert [o.request_id for o in failed] == [rid]
        assert mgr._tracked[rid].request.state is RequestState.FAILED
        assert "retries" in failed[0].error
        assert failed[0].retries == 3  # 2 tolerated + the fatal one
        # The prompt pass's token is all it has: no tick ever ran.
        assert len(failed[0].tokens) == 1
        assert failed[0].num_llm_steps == 0

    def test_failure_releases_resources(self, llm, rng):
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        injector = FaultInjector(rates={FaultKind.SESSION: 1.0})
        mgr = RequestManager(incremental_factory(llm), memory_pool=pool,
                             injector=injector, max_session_retries=1)
        rid = mgr.submit(make_prompt(rng))
        mgr.run_until_complete()
        assert mgr._tracked[rid].session is None
        assert pool.reserved_bytes == 0
        assert pool.num_reservations == 0

    def test_streak_resets_on_successful_advance(self, llm, rng):
        """Retries are consecutive, not cumulative: spaced-out faults never
        exhaust the budget."""
        injector = ScriptedInjector(
            {FaultKind.SESSION: [1, 0, 1, 0, 1, 0, 1, 0]}
        )
        mgr = RequestManager(incremental_factory(llm), injector=injector,
                             max_session_retries=1)
        rid = mgr.submit(make_prompt(rng),
                         GenerationConfig(max_new_tokens=4,
                                          stop_on_eos=False))
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.error is None
        assert output.retries >= 2  # several faults absorbed, none fatal


class TestAdmissionFaults:
    def test_factory_exception_releases_reservation(self, llm, rng):
        """Regression: a failing session factory must not leak its KV
        reservation."""
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)

        def exploding_factory(request):
            raise RuntimeError("model load failed")

        mgr = RequestManager(exploding_factory, memory_pool=pool)
        mgr.submit(make_prompt(rng))
        with pytest.raises(RuntimeError, match="model load failed"):
            mgr.run_iteration()
        assert pool.reserved_bytes == 0
        assert pool.num_reservations == 0

    @pytest.mark.parametrize("bad_prompt", [
        list(range(1, SMALL_CONFIG.max_seq_len + 2)), [1, 99], [1, -3],
    ], ids=["too_long", "id_past_vocab", "negative_id"])
    def test_bad_prompt_fails_alone(self, llm, rng, bad_prompt):
        """One request whose own data is unservable is FAILED with a
        reason at admission; its neighbour's stream is Algorithm 1's and
        every reservation and arena row comes back."""
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        arena = BatchArena(SMALL_CONFIG, max_requests=2)
        arena_factory = speculative_factory(
            llm, cache_factory=arena.new_sequence)
        mgr = RequestManager(arena_factory, max_batch_size=2,
                             memory_pool=pool)
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
        assert pool.reserved_bytes == 0 and pool.num_reservations == 0
        assert arena.used_rows == 0

    def test_transient_factory_fault_retries_with_backoff(self, llm, rng):
        """A FaultError from the factory keeps the request WAITING and
        re-admits it after the cooldown."""
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        attempts = []
        inner = incremental_factory(llm)

        def flaky_factory(request):
            attempts.append(request.request_id)
            if len(attempts) == 1:
                raise TransientSessionFault("injected")
            return inner(request)

        prompt = make_prompt(rng)
        config = GenerationConfig(max_new_tokens=4, stop_on_eos=False)
        mgr = RequestManager(flaky_factory, memory_pool=pool)
        rid = mgr.submit(prompt, config)
        mgr.run_until_complete()
        assert len(attempts) == 2
        assert pool.reserved_bytes == 0
        output = mgr.output_for(rid)
        assert output.retries == 1
        assert output.tokens == reference_tokens(llm, prompt, config)


class TestDrainedAccounting:
    def test_reserved_bytes_exactly_zero_after_chaotic_drain(self, llm, rng):
        """Integer KV accounting: many reserve/release/preempt cycles end at
        exactly 0 reserved bytes, not a float epsilon."""
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        injector = FaultInjector(rate=0.2, seed=13)
        mgr = RequestManager(speculative_factory(llm), max_batch_size=3,
                             memory_pool=pool, injector=injector)
        for _ in range(5):
            mgr.submit(make_prompt(rng, length=4),
                       GenerationConfig(max_new_tokens=6, stop_on_eos=False))
        mgr.run_until_complete(max_iterations=2000)
        assert pool.reserved_bytes == 0
        assert isinstance(pool.reserved_bytes, int)
        assert pool.num_reservations == 0
