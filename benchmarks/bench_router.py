"""Routed speculator pool vs fixed single-SSM baselines (routing ablation).

The pool's claim is *coverage*: a single draft model is only competent on
part of a diverse workload mix, while a routed heterogeneous pool serves
each request with the member that accepts best for requests of its kind.
This benchmark constructs exactly that situation from the five paper
workloads: three pool members whose draft alignment is a function of the
request's prompt-length bucket — a ``short_expert`` (strong below 16
tokens, weak beyond 24), a ``long_expert`` (the mirror image), and a
``broad`` generalist — the same feature space the router's bandit learns
over, standing in for corpus-sliced boost-tuned specialists.

Two epochs over an interleaved mixed stream of all five datasets:

* **epoch 1 (cold)** — the routed variant serves the stream while its UCB
  arms learn from per-request acceptance (reported as ``routed_cold``);
* **epoch 2 (measured)** — the router is frozen (exploit-only) and every
  variant — routed, each fixed member, round-robin — serves the *same*
  fresh stream; these are the gated numbers, sliced per workload and
  aggregated over the mix.

Every variant emits bit-identical greedy tokens (asserted — routing never
changes content, only tokens per second).  Seconds are **modeled** from
the paper-scale hardware cost model exactly as in ``bench_planner.py``.
Results are deterministic, so CI gates on them (``ci_gate.py`` check 5:
routed >= 0.97x the best fixed member per workload, and a strict win over
every fixed member on the mixed aggregate).
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
from repro.speculate.pool import PoolMember, SpeculatorPool
from repro.speculate.router import RouterConfig, SpeculatorRouter
from repro.speculate.speculator import Speculator
from repro.workloads.datasets import DATASET_NAMES, make_dataset

ROUTER_BENCH_CONFIG = ModelConfig(
    vocab_size=96,
    d_model=48,
    n_layers=3,
    n_heads=4,
    max_seq_len=256,
    name="router-bench-llm",
)

#: The router's feature space and the competence boundaries coincide by
#: construction — the ablation measures routing, not feature mismatch.
LENGTH_BUCKETS = (16, 24)
MAX_PROMPT_LEN = 60

POOL_MEMBERS = ("short_expert", "long_expert", "broad")

#: Draft alignment per (member, prompt-length bucket): each expert is
#: strong in one bucket and weak in the opposite one; ``broad`` is flat.
#: No single member is best everywhere, so only routing can win the mix.
MEMBER_ALIGNMENTS = {
    "short_expert": (0.95, 0.75, 0.55),
    "long_expert": (0.55, 0.80, 0.95),
    "broad": (0.84, 0.84, 0.84),
}
MEMBER_SEEDS = {"short_expert": 11, "long_expert": 13, "broad": 17}


def _bucket(length):
    bucket = 0
    for boundary in LENGTH_BUCKETS:
        if length >= boundary:
            bucket += 1
    return bucket


def _cost_models():
    cluster = single_node_cluster()
    plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
    return (
        LatencyModel(paper_model("llama-7b"), plan, cluster),
        LatencyModel(paper_model("llama-68m"), plan, cluster),
    )


def _price_tick(llm_cost, ssm_cost, traces):
    """Modeled seconds of one tick (same pricing as ``bench_planner.py``)."""
    scored = sum(t.llm_tokens_scored for t in traces)
    context = sum(t.prefix_len + t.llm_tokens_scored for t in traces)
    seconds = llm_cost.step_latency(scored, context)
    levels = max((t.ssm_steps for t in traces), default=0)
    if levels:
        live = len(traces)
        prefix = sum(t.prefix_len for t in traces)
        seconds += levels * ssm_cost.step_latency(live, prefix + live)
    return seconds


def build_pool(llm):
    """The bench pool; factories draft at each member's mid-bucket
    alignment (the routed serving path below swaps in the length-matched
    alignment per request, mirroring corpus-sliced competence)."""
    members = []
    for name in POOL_MEMBERS:
        def factory(n=name):
            return CoupledSSM(llm, alignment=MEMBER_ALIGNMENTS[n][1],
                              seed=MEMBER_SEEDS[n], noise_scale=2.0)

        members.append(PoolMember(name=name, ssm_factory=factory,
                                  config=ExpansionConfig.paper_default()))
    pool = SpeculatorPool(members)
    pool.llm = llm
    return pool


def _member_speculator(llm, member, prompt_len):
    alignment = MEMBER_ALIGNMENTS[member][_bucket(prompt_len)]
    ssm = CoupledSSM(llm, alignment=alignment, seed=MEMBER_SEEDS[member],
                     noise_scale=2.0)
    return Speculator([ssm], ExpansionConfig.paper_default())


def build_stream(datasets, per_dataset):
    """``per_dataset`` rounds interleaving all five datasets (mixed order,
    so every policy sees the same alternating short/long pressure)."""
    stream = []
    for _ in range(per_dataset):
        for name in DATASET_NAMES:
            stream.append(
                (name, datasets[name].sample_prompt(max_len=MAX_PROMPT_LEN))
            )
    return stream


def serve_request(llm, pipeline, member, prompt, max_new_tokens,
                  llm_cost, ssm_cost, route=None):
    """One request to completion through ``pipeline``; returns
    ``(tokens, modeled_seconds)``."""
    state = DecodeState(
        llm, np.asarray(prompt, dtype=np.intp),
        GenerationConfig(max_new_tokens=max_new_tokens, stop_on_eos=False),
        speculator=_member_speculator(llm, member, len(prompt)),
    )
    state.route = route
    seconds = 0.0
    while not state.finished:
        outcome = pipeline.tick([state])[0]
        if not outcome.advanced:
            break
        seconds += _price_tick(llm_cost, ssm_cost, [state.steps[-1]])
    return list(state.tokens), seconds


def run_policy(llm, stream, max_new_tokens, choose, router=None,
               id_base=0):
    """Serve the stream sequentially under one assignment policy.

    ``choose(index, prompt)`` returns ``(member, route_or_None)``; with a
    ``router`` the pipeline feeds per-request acceptance back after each
    verify (the learning loop the routed variant exercises).
    """
    pipeline = DecodePipeline(llm, FusedBackend(llm), router=router)
    llm_cost, ssm_cost = _cost_models()
    per_request = []
    outputs = []
    for idx, (dataset, prompt) in enumerate(stream):
        member, route = choose(id_base + idx, prompt)
        tokens, seconds = serve_request(
            llm, pipeline, member, prompt, max_new_tokens,
            llm_cost, ssm_cost, route=route,
        )
        per_request.append((dataset, len(tokens), seconds))
        outputs.append(tokens)
    return per_request, outputs


def aggregate(per_request):
    """``(per_dataset_tokens_per_sec, mixed_tokens_per_sec)``."""
    per_ds = {name: [0, 0.0] for name in DATASET_NAMES}
    total_tokens, total_seconds = 0, 0.0
    for dataset, tokens, seconds in per_request:
        per_ds[dataset][0] += tokens
        per_ds[dataset][1] += seconds
        total_tokens += tokens
        total_seconds += seconds
    return (
        {name: t / s for name, (t, s) in per_ds.items()},
        total_tokens / total_seconds,
    )


def run_ablation(per_dataset=3, max_new_tokens=16, learn_per_dataset=None):
    """The full routed-vs-fixed ablation; returns (report, measures).

    ``learn_per_dataset`` sizes the cold learning epoch (defaults to the
    measured epoch's ``per_dataset``); longer runs give it more rounds so
    the frozen router is measured at its converged assignment."""
    llm = TransformerLM(ROUTER_BENCH_CONFIG, seed=7)
    datasets = {
        name: make_dataset(name, vocab_size=ROUTER_BENCH_CONFIG.vocab_size)
        for name in DATASET_NAMES
    }
    epoch1 = build_stream(
        datasets,
        per_dataset if learn_per_dataset is None else learn_per_dataset,
    )
    epoch2 = build_stream(datasets, per_dataset)

    pool = build_pool(llm)
    router = SpeculatorRouter(pool, RouterConfig(
        policy="ucb", length_buckets=LENGTH_BUCKETS, seed=0,
    ))

    # Epoch 1: cold — the bandit learns per-(member, bucket) acceptance.
    def routed_choice(request_id, prompt):
        assignment = router.route(request_id, prompt)
        return assignment.member, assignment

    cold_records, _ = run_policy(llm, epoch1, max_new_tokens,
                                 routed_choice, router=router)
    _, cold_mixed = aggregate(cold_records)

    # Epoch 2: frozen exploit-only router, fresh prompts — the measured
    # steady state every fixed baseline is compared against.
    router.freeze()
    measures = {"policies": {}}
    records, routed_outputs = run_policy(
        llm, epoch2, max_new_tokens, routed_choice, router=router,
        id_base=10_000,
    )
    measures["policies"]["routed"] = aggregate(records)

    for member in POOL_MEMBERS:
        records, outputs = run_policy(
            llm, epoch2, max_new_tokens,
            lambda _i, _p, m=member: (m, None),
        )
        assert outputs == routed_outputs, (
            f"greedy parity violated by fixed member {member}"
        )
        measures["policies"][f"fixed_{member}"] = aggregate(records)

    records, outputs = run_policy(
        llm, epoch2, max_new_tokens,
        lambda i, _p: (POOL_MEMBERS[i % len(POOL_MEMBERS)], None),
    )
    assert outputs == routed_outputs, (
        "greedy parity violated by round-robin"
    )
    measures["policies"]["round_robin"] = aggregate(records)
    measures["cold_mixed"] = cold_mixed
    measures["assignments"] = router.assignment_history

    fixed_names = [f"fixed_{m}" for m in POOL_MEMBERS]
    per_workload = {}
    for name in DATASET_NAMES:
        best_fixed = max(
            measures["policies"][f][0][name] for f in fixed_names
        )
        routed = measures["policies"]["routed"][0][name]
        per_workload[name] = {
            "routed": routed,
            "best_fixed": best_fixed,
            "routed_vs_best_fixed": routed / best_fixed,
        }
    measures["per_workload"] = per_workload
    measures["mixed"] = {
        policy: mixed
        for policy, (_, mixed) in measures["policies"].items()
    }
    measures["mixed"]["routed_cold"] = cold_mixed
    measures["mixed"]["best_fixed"] = max(
        measures["mixed"][f] for f in fixed_names
    )

    table = AsciiTable(
        ["workload", "routed tok/s"]
        + [f"{m} tok/s" for m in POOL_MEMBERS]
        + ["round-robin tok/s", "routed vs best fixed"],
        title="Routed speculator pool vs fixed single-SSM baselines "
              "(modeled tokens/sec, frozen-router epoch)",
    )
    for name in DATASET_NAMES:
        table.add_row(
            name,
            f"{measures['policies']['routed'][0][name]:.1f}",
            *[f"{measures['policies'][f'fixed_{m}'][0][name]:.1f}"
              for m in POOL_MEMBERS],
            f"{measures['policies']['round_robin'][0][name]:.1f}",
            f"{per_workload[name]['routed_vs_best_fixed']:.3f}x",
        )
    table.add_row(
        "mixed",
        f"{measures['mixed']['routed']:.1f}",
        *[f"{measures['mixed'][f'fixed_{m}']:.1f}" for m in POOL_MEMBERS],
        f"{measures['mixed']['round_robin']:.1f}",
        f"{measures['mixed']['routed'] / measures['mixed']['best_fixed']:.3f}x",
    )
    return table.render(), measures


@pytest.mark.benchmark(group="router")
def test_routed_beats_fixed(benchmark):
    # Same operating point as the CI gate (quick stream): this test and
    # ci_gate.gate_router enforce one contract.
    report, measures = benchmark.pedantic(
        lambda: run_ablation(per_dataset=3, max_new_tokens=16),
        rounds=1, iterations=1,
    )
    save_report("router", report)
    for name, m in measures["per_workload"].items():
        assert m["routed_vs_best_fixed"] >= 0.97, name
    for member in POOL_MEMBERS:
        assert (measures["mixed"]["routed"]
                > measures["mixed"][f"fixed_{member}"]), member


def record_registry_metrics(measures):
    """Mirror the measures into ``repro.bench.router.*`` for ``ci_gate``."""
    prefix = "repro.bench.router"
    for name in DATASET_NAMES:
        ds = name.lower()
        for policy, (per_ds, _) in measures["policies"].items():
            REGISTRY.gauge(
                f"{prefix}.workload.{ds}.{policy}.tokens_per_sec"
            ).set(round(per_ds[name], 3))
        m = measures["per_workload"][name]
        REGISTRY.gauge(
            f"{prefix}.workload.{ds}.best_fixed.tokens_per_sec"
        ).set(round(m["best_fixed"], 3))
        REGISTRY.gauge(
            f"{prefix}.workload.{ds}.routed_vs_best_fixed"
        ).set(round(m["routed_vs_best_fixed"], 6))
    for policy, value in measures["mixed"].items():
        REGISTRY.gauge(f"{prefix}.mixed.{policy}.tokens_per_sec").set(
            round(value, 3)
        )
    REGISTRY.gauge(f"{prefix}.mixed.routed_vs_best_fixed").set(
        round(measures["mixed"]["routed"] / measures["mixed"]["best_fixed"],
              6)
    )


def write_json(path):
    """Merge ``repro.bench.router.*`` gauges into ``path`` (the shared
    ``BENCH_ci.json`` merge pattern — see ``bench_planner.write_json``)."""
    merged = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    snapshot = {
        name: value
        for name, value in REGISTRY.snapshot().items()
        if name.startswith("repro.bench.router.")
    }
    merged.update(snapshot)
    with open(path, "w") as fh:
        fh.write(REGISTRY.to_json(merged) + "\n")
    return len(snapshot)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Speculator-pool routing ablation benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: short streams and generations",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="merge the router benchmark gauges into this JSON file",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, measures = run_ablation(per_dataset=3, max_new_tokens=16)
        print(report)
    else:
        report, measures = run_ablation(per_dataset=10, max_new_tokens=24,
                                        learn_per_dataset=15)
        save_report("router", report)
        print(report)

    if args.json:
        record_registry_metrics(measures)
        count = write_json(args.json)
        print(f"merged {count} router benchmark metrics into {args.json}")


if __name__ == "__main__":
    main()
