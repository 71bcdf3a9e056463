"""Batched fused verification: one batch pass vs one pass per request.

The repository has one tree verifier,
:class:`~repro.engine.batched.BatchedTreeVerifier`: the batch's tree tokens
go through one block-sparse forward (shared KV arena, per-request block
attention, batched GEMMs), whose score work is ``O(Σ nᵢ·kᵢ)`` — per-step
cost grows ~linearly in the sum of tree sizes.  This benchmark measures its
wall-clock two ways over batch sizes 1–16 on the NumPy substrate: one
``verify_batch`` of *b* trees, and *b* one-tree calls — the deployable
per-request baseline.  The ratio is reported, not gated.  Results go to
``benchmarks/results/batched_fused.txt`` and the README perf table.
"""

import argparse
import json
import time

import numpy as np
import pytest

from benchmarks.harness import save_report
from repro.obs import REGISTRY
from repro.engine.batched import BatchedTreeVerifier
from repro.model import perf
from repro.model.arena import BatchArena
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.sampling import SamplingConfig
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.reporting.tables import AsciiTable

BATCH_SIZES = (1, 2, 4, 8, 16)
PREFIX_LEN = 96
EXPANSION = ExpansionConfig((3, 2, 2, 1))  # 34-token trees (incl. root)
REPEATS = 5
GREEDY = SamplingConfig(greedy=True)

#: Attention-heavy decode shape: long-ish prefixes over a mid-sized model,
#: the regime the fused verification kernel targets (paper section 5.1).
FUSED_BENCH_CONFIG = ModelConfig(
    vocab_size=96,
    d_model=64,
    n_layers=4,
    n_heads=4,
    max_seq_len=160,
    name="fused-bench-llm",
)


def _build_batch(llm, ssm, n_requests, arena):
    """(trees, caches) with identical content for every path."""
    rng = np.random.default_rng(1000 + n_requests)
    trees, caches = [], []
    for _ in range(n_requests):
        prompt = rng.integers(1, llm.config.vocab_size,
                              size=PREFIX_LEN + 1).astype(np.intp)
        cache = arena.new_sequence()
        llm.prefill(prompt[:-1], cache)
        ssm_cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], ssm_cache)
        trees.append(
            expand_token_tree(ssm, int(prompt[-1]), ssm_cache, EXPANSION)
        )
        caches.append(cache)
    return trees, caches


def _verify(verifier, trees, caches):
    """One greedy ``verify_batch`` over ``trees``."""
    n = len(trees)
    return verifier.verify_batch(trees, caches, [GREEDY] * n,
                                 [np.random.default_rng(0)] * n)


def _time_batch_step(step, caches, repeats=REPEATS):
    """Best-of-``repeats`` wall-clock of one full batch verification step."""
    snapshots = [c.snapshot() for c in caches]

    def restore():
        for cache, snap in zip(caches, snapshots):
            cache.restore(snap)

    best = float("inf")
    results = None
    for _ in range(repeats):
        restore()
        start = time.perf_counter()
        results = step()
        best = min(best, time.perf_counter() - start)
    restore()
    return best, results


def _accepted(results):
    return [r.accepted_tokens for r in results]


def run_comparison(batch_sizes=BATCH_SIZES, repeats=REPEATS):
    """Time both ways at every batch size; return (table, measures)."""
    llm = TransformerLM(FUSED_BENCH_CONFIG, seed=7)
    ssm = CoupledSSM(llm, alignment=0.8, seed=11, noise_scale=2.0)
    table = AsciiTable(
        ["batch", "Σ tree tok", "per-request ms", "batch ms",
         "per-request / batch"],
        title="Batched fused verification: one verify_batch of b trees vs "
              "b one-tree calls (wall-clock per batch step)",
    )
    measures = {}
    for batch in batch_sizes:
        runs = {}
        for way in ("per_request", "batch"):
            trees, caches = _build_batch(
                llm, ssm, batch,
                BatchArena(FUSED_BENCH_CONFIG, max_requests=batch))
            verifier = BatchedTreeVerifier(llm)
            if way == "batch":
                step = lambda: _verify(verifier, trees, caches)
            else:
                step = lambda: [_verify(verifier, [tree], [cache])[0]
                                for tree, cache in zip(trees, caches)]
            runs[way] = _time_batch_step(step, caches, repeats=repeats)
        assert _accepted(runs["batch"][1]) == _accepted(runs["per_request"][1])

        measures[batch] = {
            "tokens": sum(len(t) for t in trees),
            "per_request_s": runs["per_request"][0],
            "batch_s": runs["batch"][0],
        }
        m = measures[batch]
        table.add_row(
            str(batch), str(m["tokens"]),
            f"{m['per_request_s'] * 1e3:.1f}", f"{m['batch_s'] * 1e3:.1f}",
            f"{m['per_request_s'] / m['batch_s']:.2f}x",
        )
    return table.render(), measures


ABLATION_BATCH = 8


def run_ablation(batch=ABLATION_BATCH, repeats=REPEATS):
    """Allocation ablation on the block-sparse fused path.

    ``reuse_scratch`` on/off — identical accepted tokens; with reuse the
    steady state (every call after the arena-warming first one) performs
    zero tracked hot-path allocations.
    """
    llm = TransformerLM(FUSED_BENCH_CONFIG, seed=7)
    ssm = CoupledSSM(llm, alignment=0.8, seed=11, noise_scale=2.0)
    trees, caches = _build_batch(
        llm, ssm, batch, BatchArena(FUSED_BENCH_CONFIG, max_requests=batch))
    measures = {"batch": batch, "alloc": {}}
    baseline = None

    table = AsciiTable(
        ["variant", "ms/step", "steady allocs", "steady alloc MB"],
        title=f"Block-sparse fused ablation at batch {batch}: scratch "
              "reuse (accepted tokens identical in both variants)",
    )

    for label, reuse in (("scratch_on", True), ("scratch_off", False)):
        verifier = BatchedTreeVerifier(llm, reuse_scratch=reuse)
        step = lambda: _verify(verifier, trees, caches)
        _time_batch_step(step, caches, repeats=1)  # warm the arena
        with perf.track() as counters:
            elapsed, results = _time_batch_step(step, caches,
                                                repeats=repeats)
        if baseline is None:
            baseline = _accepted(results)
        assert _accepted(results) == baseline
        measures["alloc"][label] = {
            "s": elapsed,
            "steady_alloc_events": counters.hot_alloc_events // repeats,
            "steady_alloc_bytes": counters.hot_alloc_bytes // repeats,
        }
        table.add_row(
            label, f"{elapsed * 1e3:.1f}",
            str(measures["alloc"][label]["steady_alloc_events"]),
            f"{measures['alloc'][label]['steady_alloc_bytes'] / 1e6:.2f}",
        )
    assert measures["alloc"]["scratch_on"]["steady_alloc_events"] == 0

    return table.render(), measures


@pytest.mark.benchmark(group="batched-fused")
def test_batched_fused_paths(benchmark):
    report, measures = benchmark.pedantic(run_comparison, rounds=1,
                                          iterations=1)
    ablation_report, ablation = run_ablation()
    save_report("batched_fused", report + "\n\n" + ablation_report)

    # Warmed scratch-backed verification steps allocate nothing
    # (run_ablation itself asserts the accepted tokens match).
    assert ablation["alloc"]["scratch_on"]["steady_alloc_events"] == 0
    assert ablation["alloc"]["scratch_off"]["steady_alloc_events"] > 0

    # Block-sparse per-step cost grows ~linearly in Σ tree tokens: per-token
    # time at BS=16 stays within 2.5x of BS=1.
    per_token = {
        b: m["batch_s"] / m["tokens"] for b, m in measures.items()
    }
    assert per_token[16] < 2.5 * per_token[1]


def record_registry_metrics(measures):
    """Mirror the benchmark measures into the metrics registry.

    The uploaded CI artifact reads the resulting JSON
    (``repro.bench.fused.*``) instead of parsing the ASCII table: per batch
    size, tree tokens, seconds both ways, and their ratio.
    """
    for batch, m in measures.items():
        prefix = f"repro.bench.fused.batch{batch}"
        REGISTRY.gauge(f"{prefix}.tokens").set(m["tokens"])
        for key in ("per_request_s", "batch_s"):
            REGISTRY.gauge(f"{prefix}.{key}").set(m[key])
        REGISTRY.gauge(f"{prefix}.per_request_vs_batch").set(
            m["per_request_s"] / m["batch_s"]
        )


def record_ablation_metrics(ablation):
    """Mirror the ablation measures into the registry for ``ci_gate.py``.

    The gate reads ``...ablation.alloc.scratch_on.steady_alloc_events``
    (must be zero).
    """
    prefix = "repro.bench.fused.ablation"
    REGISTRY.gauge(f"{prefix}.batch").set(ablation["batch"])
    for label, m in ablation["alloc"].items():
        for key in ("s", "steady_alloc_events", "steady_alloc_bytes"):
            REGISTRY.gauge(f"{prefix}.alloc.{label}.{key}").set(m[key])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Batched fused verification benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: batch sizes 1 and 8 only, fewer repeats",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the registry snapshot of the measures as JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, measures = run_comparison(batch_sizes=(1, 8), repeats=3)
        ablation_report, ablation = run_ablation(repeats=3)
        print(report)
        print()
        print(ablation_report)
    else:
        report, measures = run_comparison()
        ablation_report, ablation = run_ablation()
        save_report("batched_fused", report + "\n\n" + ablation_report)
        print()

    if args.json:
        record_registry_metrics(measures)
        record_ablation_metrics(ablation)
        snapshot = {
            name: value
            for name, value in REGISTRY.snapshot().items()
            if name.startswith("repro.bench.fused.")
        }
        with open(args.json, "w") as fh:
            fh.write(REGISTRY.to_json(snapshot) + "\n")
        print(f"wrote {len(snapshot)} benchmark metrics to {args.json}")


if __name__ == "__main__":
    main()
