"""Dynamic tree planner vs static expansion configurations.

The planner's claim is *robustness*: at any one operating point a
well-chosen static tree is near-optimal, but no single static tree is
near-optimal across operating points — batch size moves the verify-side
roofline knee, and acceptance drift moves the useful speculation depth.
This benchmark measures both:

* **steady sweep** — batches 1–16, fixed SSM/LLM alignment: the planner
  must stay within a few percent of the *best* static configuration at
  small batches (the CI gate pins >= 0.95x at its gated batch sizes) and
  win outright at large ones, each static config being best somewhere;
* **acceptance drift** — alignment drops mid-run (a boosted SSM leaving
  its competence pocket): deep trees win the first half, shallow trees
  the second, so no static tree wins both; the planner re-solves per tick
  and must strictly beat every static config overall.

Every variant emits bit-identical greedy tokens (asserted); only
*tokens per second* differs.  Seconds are **modeled** seconds from the
paper-scale hardware cost model (LLaMA-7B verify + LLaMA-68M draft on one
A10 node, the same :class:`~repro.cluster.cost_model.LatencyModel` the
planner optimizes against), priced from each tick's realized step traces —
wall-clock of the NumPy toy substrate would only measure the substrate.
Results are deterministic, so CI gates on them (``ci_gate.py``).
"""

import argparse
import json
import os

import numpy as np
import pytest

from benchmarks.harness import save_report
from repro.cluster.cost_model import LatencyModel
from repro.cluster.hardware import single_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.parallel import ParallelPlan
from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import DecodePipeline, DecodeState, FusedBackend
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.reporting.tables import AsciiTable
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.planner import TreePlanner
from repro.speculate.speculator import Speculator

BATCH_SIZES = (1, 2, 4, 8, 16)
QUICK_BATCH_SIZES = (1, 8)
DRIFT_BATCH = 8
PROMPT_LEN = 12
STEADY_ALIGNMENT = 0.9
DRIFT_START_ALIGNMENT = 0.95
DRIFT_END_ALIGNMENT = 0.25

#: Static comparison set: each entry is near-optimal somewhere (shallow
#: chains at low acceptance / large batch, deep or wide trees at high
#: acceptance / small batch), none everywhere.
STATIC_CONFIGS = (
    ("chain2", ExpansionConfig.sequence(2)),
    ("chain4", ExpansionConfig.sequence(4)),
    ("chain8", ExpansionConfig.sequence(8)),
    ("paper", ExpansionConfig.paper_default()),
    ("wide", ExpansionConfig((4, 2, 1, 1))),
)

PLANNER_BENCH_CONFIG = ModelConfig(
    vocab_size=96,
    d_model=48,
    n_layers=3,
    n_heads=4,
    max_seq_len=512,
    name="planner-bench-llm",
)


def _cost_models():
    cluster = single_node_cluster()
    plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
    return (
        LatencyModel(paper_model("llama-7b"), plan, cluster),
        LatencyModel(paper_model("llama-68m"), plan, cluster),
    )


def _price_tick(llm_cost, ssm_cost, traces):
    """Modeled seconds of one tick from the advanced states' step traces.

    One fused verification pass over the batch (scored positions and KV
    reads summed across requests) plus the level-synchronous draft phase
    (the deepest request's SSM step count, each level one batched draft
    decode).
    """
    scored = sum(t.llm_tokens_scored for t in traces)
    context = sum(t.prefix_len + t.llm_tokens_scored for t in traces)
    seconds = llm_cost.step_latency(scored, context)
    levels = max((t.ssm_steps for t in traces), default=0)
    if levels:
        live = len(traces)
        prefix = sum(t.prefix_len for t in traces)
        seconds += levels * ssm_cost.step_latency(live, prefix + live)
    return seconds


def run_variant(batch, max_new_tokens, config=None, planner=None,
                drift=False):
    """Serve one batch to completion; return tokens, modeled seconds, halves.

    Exactly one of ``config`` (a static :class:`ExpansionConfig`) and
    ``planner`` (a :class:`TreePlanner`) drives speculation.  With
    ``drift=True`` every SSM's alignment drops from
    ``DRIFT_START_ALIGNMENT`` to ``DRIFT_END_ALIGNMENT`` once half the
    batch's token budget has committed.
    """
    llm = TransformerLM(PLANNER_BENCH_CONFIG, seed=7)
    alignment = DRIFT_START_ALIGNMENT if drift else STEADY_ALIGNMENT
    states, ssms = [], []
    for i in range(batch):
        rng = np.random.default_rng(1000 + i)
        prompt = rng.integers(
            1, PLANNER_BENCH_CONFIG.vocab_size, size=PROMPT_LEN
        ).astype(np.intp)
        ssm = CoupledSSM(llm, alignment=alignment, seed=11, noise_scale=2.0)
        speculator = Speculator(
            [ssm], config or ExpansionConfig.paper_default()
        )
        states.append(DecodeState(
            llm, prompt,
            GenerationConfig(max_new_tokens=max_new_tokens,
                             stop_on_eos=False),
            speculator=speculator,
        ))
        ssms.append(ssm)
    pipeline = DecodePipeline(llm, FusedBackend(llm), planner=planner)
    llm_cost, ssm_cost = _cost_models()
    total_budget = batch * max_new_tokens
    flipped = not drift
    # (tokens, seconds) before and after the drift flip.
    halves = [[0, 0.0], [0, 0.0]]
    ticks = 0
    while not all(s.finished for s in states):
        if not flipped and sum(len(s.tokens) for s in states) >= (
                total_budget // 2):
            for ssm in ssms:
                ssm.alignment = DRIFT_END_ALIGNMENT
            flipped = True
        outcomes = pipeline.tick(states)
        ticks += 1
        traces = [o.state.steps[-1] for o in outcomes if o.advanced]
        seconds = _price_tick(llm_cost, ssm_cost, traces)
        emitted = sum(len(o.emitted) for o in outcomes)
        half = 1 if (drift and flipped) else 0
        halves[half][0] += emitted
        halves[half][1] += seconds
    tokens = sum(len(s.tokens) for s in states)
    seconds = halves[0][1] + halves[1][1]
    return {
        "tokens": tokens,
        "seconds": seconds,
        "tokens_per_sec": tokens / seconds,
        "ticks": ticks,
        "halves": halves,
        "outputs": [list(s.tokens) for s in states],
    }


def run_steady_sweep(batch_sizes=BATCH_SIZES, max_new_tokens=48):
    """Static configs vs planner at a fixed alignment, over batch sizes.

    The horizon must be long enough that a batch-1 run is many ticks:
    short horizons measure the planner's cold start plus tick
    quantization (24 tokens is ~6 ticks), not its steady state.  The
    quick/CI variant keeps a short horizon and compensates with the
    gate's 0.95x slack.
    """
    table = AsciiTable(
        ["batch"]
        + [f"{name} tok/s" for name, _ in STATIC_CONFIGS]
        + ["planner tok/s", "planner vs best static"],
        title="Dynamic tree planner vs static expansion configs "
              "(modeled tokens/sec, steady acceptance)",
    )
    measures = {}
    for batch in batch_sizes:
        row = {}
        outputs = None
        for name, config in STATIC_CONFIGS:
            result = run_variant(batch, max_new_tokens, config=config)
            row[name] = result["tokens_per_sec"]
            if outputs is None:
                outputs = result["outputs"]
            assert result["outputs"] == outputs, (
                f"greedy parity violated by static {name} at batch {batch}"
            )
        planned = run_variant(batch, max_new_tokens,
                              planner=TreePlanner())
        assert planned["outputs"] == outputs, (
            f"greedy parity violated by the planner at batch {batch}"
        )
        row["planner"] = planned["tokens_per_sec"]
        best_static = max(row[name] for name, _ in STATIC_CONFIGS)
        measures[batch] = {
            **row,
            "best_static": best_static,
            "planner_vs_best_static": row["planner"] / best_static,
        }
        table.add_row(
            str(batch),
            *[f"{row[name]:.1f}" for name, _ in STATIC_CONFIGS],
            f"{row['planner']:.1f}",
            f"{row['planner'] / best_static:.3f}x",
        )
    return table.render(), measures


def run_drift(batch=DRIFT_BATCH, max_new_tokens=32):
    """Mid-run acceptance drift: deep trees win half 1, shallow half 2."""
    table = AsciiTable(
        ["variant", "tok/s overall", "tok/s half 1", "tok/s half 2"],
        title=f"Acceptance drift (alignment {DRIFT_START_ALIGNMENT} -> "
              f"{DRIFT_END_ALIGNMENT} mid-run) at batch {batch}",
    )
    measures = {}
    outputs = None

    def record(name, result, replans=0):
        h1, h2 = result["halves"]
        measures[name] = {
            "tokens_per_sec": result["tokens_per_sec"],
            "half1_tokens_per_sec": h1[0] / h1[1],
            "half2_tokens_per_sec": h2[0] / h2[1],
            "replans": replans,
        }
        table.add_row(
            name,
            f"{result['tokens_per_sec']:.1f}",
            f"{h1[0] / h1[1]:.1f}",
            f"{h2[0] / h2[1]:.1f}",
        )

    for name, config in STATIC_CONFIGS:
        result = run_variant(batch, max_new_tokens, config=config,
                             drift=True)
        if outputs is None:
            outputs = result["outputs"]
        assert result["outputs"] == outputs, (
            f"greedy parity violated by static {name} under drift"
        )
        record(name, result)
    replans_before = REGISTRY.counter("repro.planner.replans").value
    planned = run_variant(batch, max_new_tokens,
                          planner=TreePlanner(), drift=True)
    assert planned["outputs"] == outputs, (
        "greedy parity violated by the planner under drift"
    )
    record("planner", planned,
           replans=REGISTRY.counter("repro.planner.replans").value
           - replans_before)
    measures["best_static"] = max(
        measures[name]["tokens_per_sec"] for name, _ in STATIC_CONFIGS
    )
    return table.render(), measures


@pytest.mark.benchmark(group="planner")
def test_planner_beats_static(benchmark, tmp_path):
    # Same operating points as the CI gate (quick batches, quick horizon):
    # this test and ci_gate.gate_planner enforce one contract.  The quick
    # report goes to a scratch directory: only ``main`` (all batch sizes)
    # writes the committed benchmarks/results/planner.txt.
    report, steady = benchmark.pedantic(
        lambda: run_steady_sweep(batch_sizes=QUICK_BATCH_SIZES,
                                 max_new_tokens=16),
        rounds=1, iterations=1,
    )
    drift_report, drift = run_drift()
    save_report("planner", report + "\n\n" + drift_report, str(tmp_path))
    for batch, m in steady.items():
        assert m["planner_vs_best_static"] >= 0.95
    assert drift["planner"]["tokens_per_sec"] > drift["best_static"]


def record_registry_metrics(steady, drift):
    """Mirror the measures into ``repro.bench.planner.*`` for ``ci_gate``."""
    for batch, m in steady.items():
        prefix = f"repro.bench.planner.batch{batch}"
        for name, _ in STATIC_CONFIGS:
            REGISTRY.gauge(f"{prefix}.static_{name}.tokens_per_sec").set(
                round(m[name], 3)
            )
        REGISTRY.gauge(f"{prefix}.planner.tokens_per_sec").set(
            round(m["planner"], 3)
        )
        REGISTRY.gauge(f"{prefix}.best_static.tokens_per_sec").set(
            round(m["best_static"], 3)
        )
        REGISTRY.gauge(f"{prefix}.planner_vs_best_static").set(
            round(m["planner_vs_best_static"], 6)
        )
    for name in [n for n, _ in STATIC_CONFIGS] + ["planner"]:
        m = drift[name]
        prefix = f"repro.bench.planner.drift.{name}"
        for key in ("tokens_per_sec", "half1_tokens_per_sec",
                    "half2_tokens_per_sec"):
            REGISTRY.gauge(f"{prefix}.{key}").set(round(m[key], 3))
    REGISTRY.gauge("repro.bench.planner.drift.best_static.tokens_per_sec"
                   ).set(round(drift["best_static"], 3))
    REGISTRY.gauge("repro.bench.planner.drift.planner.replans").set(
        drift["planner"]["replans"]
    )


def write_json(path):
    """Merge ``repro.bench.planner.*`` gauges into ``path``.

    The perf-smoke job runs several benchmarks into one ``BENCH_ci.json``;
    merging (instead of overwriting) lets ``ci_gate.py`` read every gate's
    inputs from a single artifact.
    """
    merged = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    snapshot = {
        name: value
        for name, value in REGISTRY.snapshot().items()
        if name.startswith("repro.bench.planner.")
    }
    merged.update(snapshot)
    with open(path, "w") as fh:
        fh.write(REGISTRY.to_json(merged) + "\n")
    return len(snapshot)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Dynamic tree planner benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: batch sizes 1 and 8, shorter generations",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="merge the planner benchmark gauges into this JSON file",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, steady = run_steady_sweep(
            batch_sizes=QUICK_BATCH_SIZES, max_new_tokens=16
        )
        drift_report, drift = run_drift(max_new_tokens=24)
        print(report)
        print()
        print(drift_report)
    else:
        report, steady = run_steady_sweep()
        drift_report, drift = run_drift()
        save_report("planner", report + "\n\n" + drift_report)
        print()

    if args.json:
        record_registry_metrics(steady, drift)
        count = write_json(args.json)
        print(f"merged {count} planner benchmark metrics into {args.json}")


if __name__ == "__main__":
    main()
