"""Tests for arrival processes and manager driving."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.serving.manager import RequestManager
from repro.serving.session import IncrementalSession
from repro.workloads.arrival import (
    Arrival,
    PoissonArrivals,
    drive_manager,
    sort_arrivals,
)
from repro.workloads.datasets import make_dataset


@pytest.fixture()
def dataset():
    return make_dataset("Alpaca", vocab_size=64)


def spaced(dataset, gap, count):
    """``count`` arrivals ``gap`` iterations apart (0 = one batch)."""
    return [
        Arrival(iteration=i * gap, prompt=dataset.sample_prompt(max_len=6),
                request_id=i)
        for i in range(count)
    ]


class TestPoissonArrivals:
    def test_schedule_shape(self, dataset):
        arrivals = PoissonArrivals(rate=0.5, dataset=dataset,
                                   seed=0).schedule(20)
        assert len(arrivals) == 20
        times = [a.iteration for a in arrivals]
        assert times == sorted(times)

    def test_rate_controls_density(self, dataset):
        fast = PoissonArrivals(rate=2.0, dataset=dataset, seed=1).schedule(50)
        slow = PoissonArrivals(rate=0.2, dataset=dataset, seed=1).schedule(50)
        assert fast[-1].iteration < slow[-1].iteration

    def test_mean_gap_matches_rate(self, dataset):
        arrivals = PoissonArrivals(rate=0.5, dataset=dataset,
                                   seed=2).schedule(400)
        span = arrivals[-1].iteration
        # 400 arrivals at rate 0.5/iter -> span ~ 800 iterations.
        assert 600 < span < 1000

    def test_rejects_bad_args(self, dataset):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0, dataset=dataset)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1, dataset=dataset).schedule(0)

    def test_reproducible(self, dataset):
        a = PoissonArrivals(rate=1.0, dataset=dataset, seed=5).schedule(10)
        b = PoissonArrivals(
            rate=1.0, dataset=make_dataset("Alpaca", 64), seed=5
        ).schedule(10)
        assert [x.iteration for x in a] == [x.iteration for x in b]


class TestArrivalTieBreak:
    """Simultaneous arrivals order by the stable (iteration, request_id)
    key everywhere, so replay and gateway admission agree."""

    def test_sort_arrivals_breaks_iteration_ties_by_request_id(self):
        prompt = np.array([1], dtype=np.intp)
        shuffled = [
            Arrival(iteration=3, prompt=prompt, request_id=2),
            Arrival(iteration=1, prompt=prompt, request_id=1),
            Arrival(iteration=3, prompt=prompt, request_id=0),
        ]
        ordered = sort_arrivals(shuffled)
        assert [(a.iteration, a.request_id) for a in ordered] == \
            [(1, 1), (3, 0), (3, 2)]

    def test_poisson_schedule_pinned_order(self, dataset):
        """Pinned regression: seed 3 at rate 4 floors several arrivals onto
        shared iterations; the schedule must come back tie-broken by draw
        order, not by whatever the platform's sort did with equal keys."""
        arrivals = PoissonArrivals(rate=4.0, dataset=dataset,
                                   seed=3).schedule(10)
        assert [(a.iteration, a.request_id) for a in arrivals] == [
            (0, 0), (0, 1), (0, 2), (1, 3), (1, 4),
            (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
        ]

    def test_drive_manager_submission_order_is_canonical(self, llm, dataset):
        """A shuffled arrival list submits in canonical order: the ids
        drive_manager returns are assigned ascending along the sorted
        (iteration, request_id) sequence."""
        arrivals = PoissonArrivals(rate=4.0, dataset=dataset,
                                   seed=3).schedule(6)
        shuffled = [arrivals[i] for i in (4, 1, 5, 0, 3, 2)]
        mgr = RequestManager(lambda req: IncrementalSession(req, llm),
                             max_batch_size=2)
        ids = drive_manager(
            mgr, shuffled,
            GenerationConfig(max_new_tokens=2, stop_on_eos=False),
        )
        assert ids == sorted(ids)
        canonical = sort_arrivals(shuffled)
        for request_id, arrival in zip(ids, canonical):
            tracked = mgr._tracked[request_id].request
            assert tracked.prompt.tolist() == arrival.prompt.tolist()


class TestDriveManager:
    def test_all_requests_served(self, llm, dataset):
        mgr = RequestManager(lambda req: IncrementalSession(req, llm),
                             max_batch_size=2)
        arrivals = spaced(dataset, gap=2, count=5)
        ids = drive_manager(
            mgr, arrivals,
            GenerationConfig(max_new_tokens=3, stop_on_eos=False),
        )
        assert len(ids) == 5
        assert len(mgr.finished_outputs()) == 5

    def test_arrival_iterations_respected(self, llm, dataset):
        mgr = RequestManager(lambda req: IncrementalSession(req, llm),
                             max_batch_size=4)
        arrivals = spaced(dataset, gap=3, count=3)
        ids = drive_manager(
            mgr, arrivals,
            GenerationConfig(max_new_tokens=2, stop_on_eos=False),
        )
        for request_id, arrival in zip(ids, arrivals):
            recorded = mgr.output_for(request_id).arrival_iteration
            assert recorded >= arrival.iteration

    def test_higher_load_increases_queueing(self, llm, dataset):
        """At high arrival rate the batch saturates and TTFT grows."""
        def run(gap):
            mgr = RequestManager(lambda req: IncrementalSession(req, llm),
                                 max_batch_size=1)
            arrivals = spaced(dataset, gap=gap, count=6)
            drive_manager(
                mgr, arrivals,
                GenerationConfig(max_new_tokens=4, stop_on_eos=False),
            )
            return np.mean([o.first_token_iteration - o.arrival_iteration
                            for o in mgr.finished_outputs()])

        assert run(0) > run(6)
