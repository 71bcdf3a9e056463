"""Chaos parity: fault injection never changes greedy serving output.

The acceptance bar for the fault layer — a workload served under seeded
fault injection (preemptions, retries, speculation fallback) must emit
final tokens bit-identical to the fault-free run, across seeds, with no
request failed and no arena row leaked.  Parity is promised under
greedy verification only; stochastic decoding consumes RNG on paths that
faults reorder.
"""

from dataclasses import replace

import pytest

from repro.engine.generation import GenerationConfig
from repro.faults import FaultInjector
from repro.obs import REGISTRY, reset_observability
from repro.obs.workload import WorkloadSpec, run_observed_workload
from repro.serving.manager import RequestManager
from tests.conftest import arena_rows_used, make_prompt
from tests.serving.test_manager import (
    incremental_factory,
    speculative_factory,
)

pytestmark = pytest.mark.chaos


def run_workload_tokens(spec):
    reset_observability()
    manager = run_observed_workload(spec)
    finished = {o.request_id: o.tokens for o in manager.finished_outputs()}
    failed = manager.failed_outputs()
    return finished, failed


class TestWorkloadParity:
    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_fused_workload_survives_rate_005(self, seed):
        """ISSUE acceptance: greedy workload at fault rate 0.05, three
        seeds, bit-identical finished tokens and zero failures."""
        spec = WorkloadSpec(requests=4, max_new_tokens=8, seed=seed)
        expected, _ = run_workload_tokens(spec)
        actual, failed = run_workload_tokens(
            replace(spec, fault_rate=0.05)
        )
        assert failed == []
        assert actual == expected

    def test_parity_holds_under_heavy_faults(self):
        """Rate 0.3 actually exercises every path (preempt/retry/fallback)
        on this workload and parity still holds."""
        spec = WorkloadSpec(requests=6, max_new_tokens=10, seed=11)
        expected, _ = run_workload_tokens(spec)
        actual, failed = run_workload_tokens(replace(spec, fault_rate=0.3))
        assert failed == []
        assert actual == expected
        assert REGISTRY.get("repro.faults.injected").value > 0

    def test_zero_rate_runs_without_injector(self):
        """fault_rate=0 must not even construct an injector, keeping the
        byte-determinism contract of the observed workload intact."""
        reset_observability()
        manager = run_observed_workload(
            WorkloadSpec(requests=2, max_new_tokens=4)
        )
        assert manager.injector is None
        checks = REGISTRY.get("repro.faults.checks")
        assert checks is None or checks.value == 0


class TestPerRequestParity:
    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_per_request_chaos_is_lossless_and_leak_free(self, llm, rng,
                                                         seed):
        """Per-request serving under random faults: same tokens as the
        clean run, every arena row back."""
        self._check(llm, rng, speculative_factory(llm), 0.05, seed)

    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_incremental_chaos_is_lossless_and_leak_free(self, llm, rng,
                                                         seed):
        """The same through the manager's one shared incremental pipeline,
        where a verification fault degrades the whole batch's tick."""
        self._check(llm, rng, incremental_factory(llm), 0.10, seed)

    def _check(self, llm, rng, factory, rate, seed):
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        prompts = [make_prompt(rng, length=4) for _ in range(4)]

        clean = RequestManager(factory, max_batch_size=3)
        clean_ids = [clean.submit(p, config) for p in prompts]
        clean.run_until_complete()
        expected = [clean.output_for(rid).tokens for rid in clean_ids]

        before = arena_rows_used()
        chaotic = RequestManager(
            factory, max_batch_size=3,
            injector=FaultInjector(rate=rate, seed=seed),
        )
        ids = [chaotic.submit(p, config) for p in prompts]
        chaotic.run_until_complete(max_iterations=2000)
        assert chaotic.failed_outputs() == []
        assert [chaotic.output_for(rid).tokens for rid in ids] == expected
        assert arena_rows_used() == before
