"""Tests for serving-level metrics."""

import pytest

from repro.engine.generation import GenerationConfig
from repro.serving.manager import IterationStats, RequestManager
from repro.serving.metrics import (
    build_report,
    report_from_manager,
    request_latency,
)
from repro.serving.request import RequestOutput
from repro.serving.session import IncrementalSession
from tests.conftest import make_prompt


def finished_output(rid=0, first=2, finish=6, steps=3, tokens=4):
    """Four tokens: one from the prompt pass, three decode steps."""
    return RequestOutput(
        request_id=rid,
        tokens=list(range(tokens)),
        first_token_iteration=first,
        finish_iteration=finish,
        num_llm_steps=steps,
    )


class TestRequestLatency:
    def test_decomposition(self):
        latency = request_latency(finished_output(), arrival_iteration=1)
        assert latency.queueing == 1
        assert latency.ttft == 2
        assert latency.completion == 5
        assert latency.tpot == 1.0

    def test_unfinished_raises(self):
        output = RequestOutput(request_id=0)
        with pytest.raises(ValueError, match="not finished"):
            request_latency(output, 0)

    def test_tokenless_request_has_none_ttft(self):
        """Regression: a request that finished without emitting (failed, or
        retired on an exhausted context) must not raise — TTFT is simply
        undefined for it."""
        output = RequestOutput(request_id=3, finish_iteration=5)
        latency = request_latency(output, arrival_iteration=1)
        assert latency.ttft is None
        assert latency.queueing is None
        assert latency.completion == 4
        assert latency.tpot == 0.0


class TestBuildReport:
    def test_aggregates(self):
        outputs = [
            finished_output(0, first=0, finish=4, steps=3, tokens=4),
            finished_output(1, first=1, finish=9, steps=8, tokens=8),
        ]
        stats = [
            IterationStats(iteration=i, batch_size=2, tokens_emitted=2,
                           llm_tokens_scored=2, admitted=0, finished=0)
            for i in range(10)
        ]
        report = build_report(outputs, arrivals=[0, 0],
                              iteration_stats=stats)
        assert report.num_requests == 2
        assert report.total_tokens == 12
        assert report.total_iterations == 10
        assert report.tokens_per_iteration == pytest.approx(1.2)
        assert report.mean_batch_occupancy == 2.0

    def test_mismatched_arrivals_raise(self):
        with pytest.raises(ValueError, match="parallel"):
            build_report([finished_output()], arrivals=[0, 1],
                         iteration_stats=[])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_report([], [], [])

    def test_tokenless_outputs_excluded_from_token_timing(self):
        """Tokenless requests count toward completion but not TTFT/TPOT."""
        import math

        outputs = [
            finished_output(0, first=0, finish=4, steps=3, tokens=4),
            RequestOutput(request_id=1, finish_iteration=6),  # no tokens
        ]
        report = build_report(outputs, arrivals=[0, 0], iteration_stats=[])
        assert report.num_requests == 2
        assert report.total_tokens == 4
        assert report.mean_ttft == 1.0  # only the emitting request
        assert report.mean_completion == 5.0  # both requests
        assert not math.isnan(report.mean_tpot)

    def test_all_tokenless_yields_nan_token_timing(self):
        import math

        outputs = [RequestOutput(request_id=0, finish_iteration=3)]
        report = build_report(outputs, arrivals=[0], iteration_stats=[])
        assert math.isnan(report.mean_ttft)
        assert math.isnan(report.p95_ttft)
        assert math.isnan(report.mean_tpot)
        assert report.mean_completion == 3.0


class TestReportFromManager:
    def test_end_to_end(self, llm, rng):
        mgr = RequestManager(lambda req: IncrementalSession(req, llm),
                             max_batch_size=2)
        for _ in range(3):
            mgr.submit(make_prompt(rng),
                       GenerationConfig(max_new_tokens=4, stop_on_eos=False))
        mgr.run_until_complete()
        report = report_from_manager(mgr)
        assert report.num_requests == 3
        assert report.total_tokens == 12
        assert report.mean_ttft >= 1
        assert report.mean_tpot == pytest.approx(1.0)  # incremental
        assert 0 < report.mean_batch_occupancy <= 2
