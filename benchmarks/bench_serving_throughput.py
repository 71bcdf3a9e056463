"""Serving-level benchmark: continuous batching under load.

Beyond per-request latency (Figures 7/8), the serving runtime's aggregate
behaviour matters: tokens per scheduler iteration as the batch limit grows,
speculative vs incremental sessions, and the effect of the admission policy
on completion latency.  These are the Orca-style metrics the paper's
request manager (section 5.1) is built to optimize.
"""

import numpy as np
import pytest

from benchmarks.harness import bench_llm, dataset_ssm, save_report
from repro.engine.generation import GenerationConfig
from repro.reporting.tables import AsciiTable
from repro.serving.manager import RequestManager
from repro.serving.policies import fcfs, shortest_job_first
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from repro.workloads.datasets import make_dataset

N_REQUESTS = 8
TOKENS = 16


def _prompts():
    dataset = make_dataset("Alpaca", vocab_size=96)
    return dataset.sample_prompts(N_REQUESTS, max_len=12)


def _factory(speculative: bool):
    llm = bench_llm()
    if not speculative:
        return lambda req: IncrementalSession(req, llm)
    return lambda req: SpeculativeSession(
        req, llm,
        lambda: Speculator([dataset_ssm("Alpaca")],
                           ExpansionConfig.paper_default()),
    )


def _run(speculative: bool, batch_size: int, policy=fcfs,
         budgets=None):
    manager = RequestManager(_factory(speculative),
                             max_batch_size=batch_size, policy=policy)
    budgets = budgets or [TOKENS] * N_REQUESTS
    for prompt, budget in zip(_prompts(), budgets):
        manager.submit(prompt, GenerationConfig(max_new_tokens=budget,
                                                stop_on_eos=False))
    manager.run_until_complete()
    return manager


def _tokens_per_iteration(manager) -> float:
    tokens = sum(len(o.tokens) for o in manager.finished_outputs())
    return tokens / len(manager.iteration_stats)


def _mean_completion(manager) -> float:
    """Mean submission-to-finish time, in scheduler iterations."""
    return float(np.mean([o.finish_iteration - o.arrival_iteration
                          for o in manager.finished_outputs()]))


def _build_throughput_report():
    table = AsciiTable(
        ["sessions", "BS=1", "BS=2", "BS=4", "BS=8"],
        title=(
            "Continuous batching: tokens per scheduler iteration "
            f"({N_REQUESTS} requests x {TOKENS} tokens)"
        ),
    )
    grid = {}
    for label, speculative in (("incremental", False), ("SpecInfer", True)):
        grid[label] = [
            _tokens_per_iteration(_run(speculative, bs))
            for bs in (1, 2, 4, 8)
        ]
        table.add_row(label, *(f"{v:.2f}" for v in grid[label]))
    return table.render(), grid


@pytest.mark.benchmark(group="serving")
def test_throughput_vs_batch_size(benchmark):
    report, grid = benchmark.pedantic(_build_throughput_report, rounds=1,
                                      iterations=1)
    save_report("serving_throughput", report)
    # Larger batches raise iteration-level throughput for both modes.
    for label in ("incremental", "SpecInfer"):
        assert grid[label][-1] > grid[label][0]
    # Speculative sessions emit more tokens per iteration at every batch.
    for i in range(4):
        assert grid["SpecInfer"][i] > grid["incremental"][i]


@pytest.mark.benchmark(group="serving")
def test_sjf_policy_improves_mean_completion(benchmark):
    def compute():
        budgets = [4, 20, 6, 18, 4, 20, 6, 18]
        fcfs_run = _run(False, batch_size=2, policy=fcfs, budgets=budgets)
        sjf_run = _run(False, batch_size=2, policy=shortest_job_first,
                       budgets=budgets)
        return _mean_completion(fcfs_run), _mean_completion(sjf_run)

    fcfs_mean, sjf_mean = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "serving_policies",
        f"mean completion (iterations): FCFS={fcfs_mean:.1f}, "
        f"SJF={sjf_mean:.1f}",
    )
    assert sjf_mean <= fcfs_mean
