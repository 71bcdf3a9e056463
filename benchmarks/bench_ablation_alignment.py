"""Ablation — SSM/LLM alignment vs end-to-end speedup.

The paper's section 3 argues speculation quality is bounded by the model
capacity gap between SSM and LLM.  This ablation sweeps the coupled SSM's
alignment knob through that gap and measures (a) verified tokens per step
and (b) simulated end-to-end speedup on LLaMA-7B hardware — quantifying
how much SSM quality the tree construction can compensate for.
"""

from typing import Sequence

import numpy as np
import pytest

from benchmarks.harness import (
    bench_llm,
    dataset_prompts,
    distributed_simulator,
    incremental_traces,
    run_traces,
    save_report,
)
from repro.cluster.simulator import mean_tokens_per_step
from repro.engine.generation import GenerationResult
from repro.engine.tree_spec import SpecInferEngine
from repro.model.coupled import CoupledSSM
from repro.reporting.tables import AsciiTable
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator

ALIGNMENTS = (0.3, 0.6, 0.8, 0.9, 1.0)
DATASET = "Alpaca"


def estimate_alpha(results: Sequence[GenerationResult]) -> float:
    """Estimate the per-token acceptance rate from engine traces.

    Maximum-likelihood estimate under the geometric acceptance model: each
    verification step accepting ``k`` of ``L`` speculated tokens contributes
    ``k`` Bernoulli successes plus one failure when ``k < L`` (the step
    that rejected) and no failure when the whole speculation was accepted.
    ``alpha_hat = successes / trials``.
    """
    successes = 0
    trials = 0
    for result in results:
        for step in result.steps:
            if step.tree_depth == 0:
                continue
            accepted = step.tokens_emitted - 1
            successes += accepted
            trials += accepted
            if accepted < step.tree_depth:
                trials += 1  # the rejected position
    if trials == 0:
        raise ValueError("traces contain no speculation steps")
    return successes / trials


def _engine(alignment: float) -> SpecInferEngine:
    ssm = CoupledSSM(bench_llm(), alignment=alignment, seed=77,
                     noise_scale=2.5, uniform_mix=2.5)
    return SpecInferEngine(
        bench_llm(),
        Speculator([ssm], ExpansionConfig.paper_default()),
    )


def _build_report():
    prompts = dataset_prompts(DATASET, n=3)
    sim = distributed_simulator("llama-7b")
    incremental_ms = sim.replay_many(
        incremental_traces(prompts), batch_size=1
    ).per_token_ms
    table = AsciiTable(
        ["alignment", "alpha (est.)", "tokens/step", "per-token ms",
         "speedup"],
        title="Ablation: SSM alignment vs speculative speedup (llama-7b, BS=1)",
    )
    speedups = {}
    for alignment in ALIGNMENTS:
        traces = run_traces(_engine(alignment), prompts)
        rate = mean_tokens_per_step(traces)
        alpha = estimate_alpha(traces)
        latency = sim.replay_many(traces, batch_size=1).per_token_ms
        speedups[alignment] = incremental_ms / latency
        table.add_row(
            f"{alignment:.1f}", f"{alpha:.2f}", f"{rate:.2f}",
            f"{latency:.1f}", f"{speedups[alignment]:.2f}x",
        )
    return table.render(), speedups


@pytest.mark.benchmark(group="ablation-alignment")
def test_alignment_sweep(benchmark):
    report, speedups = benchmark.pedantic(_build_report, rounds=1,
                                          iterations=1)
    save_report("ablation_alignment", report)
    # Speedup is monotone (up to noise) in SSM quality...
    assert speedups[1.0] > speedups[0.3]
    # ...an oracle SSM approaches depth+1 tokens per step...
    assert speedups[1.0] > 3.0
    # ...and even a poor SSM never makes the system slower than ~baseline
    # (verification is nearly free at BS=1).
    assert speedups[0.3] > 0.7
