"""Tests for admission ordering, preemption victim order and their manager
integration."""

import numpy as np

from repro.engine.generation import GenerationConfig
from repro.serving.manager import RequestManager
from repro.serving.policies import (
    fcfs,
    preempt_newest_first,
    shortest_job_first,
)
from repro.serving.request import Request
from repro.serving.session import IncrementalSession
from tests.conftest import make_prompt


def make_request(rid, prompt_len, max_new, arrival=0):
    return Request(
        request_id=rid,
        prompt=np.arange(1, prompt_len + 1),
        config=GenerationConfig(max_new_tokens=max_new, stop_on_eos=False),
        arrival_iteration=arrival,
    )


class TestPolicyOrdering:
    def test_fcfs_orders_by_arrival(self):
        requests = [
            make_request(0, 5, 5, arrival=3),
            make_request(1, 5, 5, arrival=1),
            make_request(2, 5, 5, arrival=2),
        ]
        assert [r.request_id for r in fcfs(requests)] == [1, 2, 0]

    def test_sjf_orders_by_total_work(self):
        requests = [
            make_request(0, 10, 20),
            make_request(1, 2, 3),
            make_request(2, 5, 5),
        ]
        assert [r.request_id for r in shortest_job_first(requests)] == \
            [1, 2, 0]

    def test_sjf_ties_break_fcfs(self):
        requests = [
            make_request(5, 5, 5, arrival=2),
            make_request(3, 5, 5, arrival=1),
        ]
        assert [r.request_id for r in shortest_job_first(requests)] == [3, 5]

    def test_policies_do_not_mutate_input(self):
        requests = [make_request(1, 5, 5), make_request(0, 2, 2)]
        shortest_job_first(requests)
        assert [r.request_id for r in requests] == [1, 0]


class _KvSpike:
    """Stub injector: fire one KV-pressure spike, nothing else."""

    def __init__(self):
        self.fired = False

    def should_fire(self, kind, **_kw):
        from repro.faults import FaultKind

        if kind is FaultKind.KV_PRESSURE and not self.fired:
            self.fired = True
            return True
        return False


class TestPreemptionTieBreak:
    """Same-iteration admissions share an arrival iteration; victim choice
    must tie-break on request id, not sort stability."""

    def _same_iteration_batch(self):
        return [
            make_request(1, 5, 5, arrival=2),
            make_request(0, 5, 5, arrival=2),
            make_request(2, 5, 5, arrival=1),
        ]

    def test_newest_first_ties_on_higher_request_id(self):
        order = preempt_newest_first(self._same_iteration_batch())
        assert [r.request_id for r in order] == [1, 0, 2]

    def test_manager_picks_tie_broken_victim(self, llm, rng):
        """Three requests admitted in the same iteration (identical
        arrival iteration): a KV-pressure spike must preempt the one the
        tie-broken newest-first order names, the highest request id."""
        victim = 2
        mgr = RequestManager(
            lambda req: IncrementalSession(req, llm),
            max_batch_size=3,
        )
        config = GenerationConfig(max_new_tokens=4, stop_on_eos=False)
        ids = [mgr.submit(make_prompt(rng, length=4), config)
               for _ in range(3)]
        assert ids == [0, 1, 2]
        mgr.run_iteration()  # admits all three at iteration 0
        mgr.injector = _KvSpike()
        stats = mgr.run_iteration()
        assert stats.preempted_ids == [victim]
        mgr.injector = None
        mgr.run_until_complete()
        assert mgr.output_for(victim).preemptions == 1


class TestPreemptAfterPrefill:
    def test_resumes_through_the_prompt_pass(self, llm, rng):
        """The earliest a request can be preempted is right after its
        prefill iteration, holding exactly the prompt pass's token; it
        re-admits through the resume view (prompt + that token, budget
        minus one) and another prompt pass."""
        config = GenerationConfig(max_new_tokens=5, stop_on_eos=False)
        prompt = make_prompt(rng, length=6)

        reference = RequestManager(
            lambda req: IncrementalSession(req, llm), max_batch_size=2)
        ref_id = reference.submit(prompt, config)
        reference.run_until_complete()
        expected = reference.output_for(ref_id).tokens

        mgr = RequestManager(
            lambda req: IncrementalSession(req, llm), max_batch_size=2)
        rid = mgr.submit(prompt, config)
        stats = mgr.admit()  # the prefill iteration: no tick has run
        assert stats.admitted == 1 and stats.emissions == {rid: expected[:1]}
        mgr.preempt(rid)
        tracked = mgr._tracked[rid]
        assert tracked.committed == expected[:1]
        assert tracked.preemptions == 1
        view = mgr._session_request(tracked)
        assert list(view.prompt) == list(prompt) + expected[:1]
        assert view.config.max_new_tokens == 4
        assert mgr.admit().emissions == {rid: expected[1:2]}
        mgr.run_until_complete()
        output = mgr.output_for(rid)
        assert output.tokens == expected
        assert output.preemptions == 1


class TestManagerWithPolicy:
    def test_sjf_finishes_short_jobs_first(self, llm, rng):
        mgr = RequestManager(
            lambda req: IncrementalSession(req, llm),
            max_batch_size=1,  # force sequential service
            policy=shortest_job_first,
        )
        long_id = mgr.submit(make_prompt(rng, length=4),
                             GenerationConfig(max_new_tokens=10,
                                              stop_on_eos=False))
        short_id = mgr.submit(make_prompt(rng, length=4),
                              GenerationConfig(max_new_tokens=2,
                                               stop_on_eos=False))
        mgr.run_until_complete()
        short = mgr.output_for(short_id)
        long = mgr.output_for(long_id)
        assert short.finish_iteration < long.finish_iteration

    def test_mean_completion_sjf_beats_fcfs(self, llm, rng):
        """The classic scheduling result, observed end-to-end."""
        def run(policy):
            mgr = RequestManager(
                lambda req: IncrementalSession(req, llm),
                max_batch_size=1,
                policy=policy,
            )
            lengths = [8, 2, 5, 3]
            for n in lengths:
                mgr.submit(make_prompt(rng, length=4),
                           GenerationConfig(max_new_tokens=n,
                                            stop_on_eos=False))
            mgr.run_until_complete()
            return np.mean([o.finish_iteration - o.arrival_iteration
                            for o in mgr.finished_outputs()])

        assert run(shortest_job_first) < run(fcfs)
