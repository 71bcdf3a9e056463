"""Figure 7 — end-to-end distributed inference latency, six systems.

Paper: per-token latency for LLaMA-7B (1 A10), OPT-30B (4 A10, TP) and
LLaMA-65B (8 A10 over 2 nodes, TP+PP) at batch sizes 1-16, comparing vLLM,
HuggingFace TGI, FasterTransformer, SpecInfer-with-incremental-decoding,
SpecInfer-with-sequence-based-speculation, and SpecInfer (tree-based).
Headline: tree-based SpecInfer wins 1.5-2.5x single-node and 2.4-2.8x
multi-node over incremental systems, 1.2-1.5x over sequence-based
speculation, with the advantage narrowing as batch size grows.

Method here: the comparator systems all decode incrementally with the same
kernels (the paper's own ablation shows they match SpecInfer-incremental),
so they share one trace set; latencies come from replaying measured
algorithm traces through the A10 cluster cost model (see DESIGN.md).
"""

import pytest

from benchmarks.harness import (
    dataset_prompts,
    distributed_simulator,
    incremental_traces,
    run_traces,
    save_report,
    spec_engine,
)
from repro.reporting.tables import AsciiTable
from repro.speculate.expansion import ExpansionConfig

LLMS = ("llama-7b", "opt-30b", "llama-65b")
BATCH_SIZES = (1, 2, 4, 8, 16)
DATASET = "Alpaca"

SYSTEMS = (
    "vLLM",
    "HuggingFace TGI",
    "FasterTransformer",
    "SpecInfer (incremental)",
    "SpecInfer (sequence-based)",
    "SpecInfer (tree-based)",
)


def _trace_sets():
    """Algorithm-layer traces for each decoding mode (shared across LLMs)."""
    prompts = dataset_prompts(DATASET)
    incremental = incremental_traces(prompts)
    sequence = run_traces(
        spec_engine(DATASET, ExpansionConfig.sequence(8)), prompts
    )
    tree = run_traces(
        spec_engine(DATASET, ExpansionConfig.paper_default()), prompts
    )
    return incremental, sequence, tree


def _latency_ms(sim, traces, batch_size):
    return sim.replay_many(traces, batch_size=batch_size).per_token_ms


def _build_report():
    incremental, sequence, tree = _trace_sets()
    tables = []
    speedups = {}
    for llm_name in LLMS:
        sim = distributed_simulator(llm_name)
        table = AsciiTable(
            ["system"] + [f"BS={b}" for b in BATCH_SIZES],
            title=f"Figure 7 ({llm_name}): per-token latency (ms)",
        )
        rows = {}
        for system in SYSTEMS:
            if system == "SpecInfer (sequence-based)":
                traces = sequence
            elif system == "SpecInfer (tree-based)":
                traces = tree
            else:
                traces = incremental
            rows[system] = [
                _latency_ms(sim, traces, b) for b in BATCH_SIZES
            ]
            table.add_row(system, *(f"{v:.1f}" for v in rows[system]))
        tables.append(table.render())
        speedups[llm_name] = [
            rows["SpecInfer (incremental)"][i]
            / rows["SpecInfer (tree-based)"][i]
            for i in range(len(BATCH_SIZES))
        ]
        tables.append(
            "speedup tree vs incremental: "
            + ", ".join(
                f"BS={b}: {s:.2f}x"
                for b, s in zip(BATCH_SIZES, speedups[llm_name])
            )
        )
    return "\n\n".join(tables), speedups


def _build_sequence_vs_tree_report():
    _, sequence, tree = _trace_sets()
    sim = distributed_simulator("llama-7b")
    ratio = _latency_ms(sim, sequence, 1) / _latency_ms(sim, tree, 1)
    return (f"llama-7b BS=1: sequence-based / tree-based latency = "
            f"{ratio:.2f}x"), ratio


@pytest.mark.benchmark(group="fig7")
def test_fig7_distributed_latency(benchmark):
    report, speedups = benchmark.pedantic(_build_report, rounds=1,
                                          iterations=1)
    save_report("fig7_distributed", report)
    for llm_name in LLMS:
        series = speedups[llm_name]
        # Paper shape 1: tree-based SpecInfer wins at small batch sizes.
        assert series[0] > 1.3, (llm_name, series)
        # Paper shape 2: the advantage narrows as batch size grows.
        assert series[-1] < series[0], (llm_name, series)


@pytest.mark.benchmark(group="fig7")
def test_fig7_sequence_vs_tree(benchmark):
    """Tree-based beats sequence-based speculation (paper: 1.2-1.5x)."""
    report, ratio = benchmark.pedantic(_build_sequence_vs_tree_report,
                                       rounds=1, iterations=1)
    save_report("fig7_sequence_vs_tree", report)
    assert ratio > 1.02
