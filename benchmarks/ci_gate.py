"""Perf-regression gate for CI.

Four checks, all driven by the metrics registry rather than parsed
benchmark tables:

1. **Benchmark steady-state allocations** — reads the ``BENCH_ci.json``
   written by ``bench_batched_fused.py --quick --json``: the ablation's
   ``scratch_on`` variant must report zero tracked hot-path allocations per
   warmed verification step.  (The benchmark's batch-vs-per-request ratio
   is reported there, not gated.)
2. **Pipeline steady-state allocations** — drives a seeded fused-backend
   decode batch end to end and fails if ``repro.engine.tick.allocs``
   grows at all after the warm-up ticks: the whole
   speculate→fit→verify→commit tick must be allocation-free once the
   scratch arenas are warm.
3. **Verified tokens per step** — serves the seeded observability workload
   (deterministic: fixed seeds, and the gate counts tokens, it times
   nothing) and compares the ``repro.engine.tokens_per_step`` histogram
   mean against the committed baseline
   ``benchmarks/results/baseline_ci.json``.  A drop below
   ``baseline * (1 - TOKENS_PER_STEP_SLACK)`` fails the job.
4. **Planner vs static trees** — from the ``repro.bench.planner.*``
   gauges ``bench_planner.py --quick --json`` merges into the same
   ``BENCH_ci.json``: the dynamic tree planner's modeled tokens/sec must
   reach ``PLANNER_STATIC_SLACK`` of the *best* static expansion config
   at batch 1 and batch 8, and strictly beat every static config on the
   acceptance-drift workload (where no static tree wins both halves).

Regenerate the baseline after an intentional algorithmic change with::

    PYTHONPATH=src:. python benchmarks/ci_gate.py --write-baseline

Exit codes: 0 pass, 1 regression, 2 usage/infrastructure error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Ticks driven before the allocation gate starts counting: arena growth and
#: first-mask construction all happen here.
ALLOC_WARMUP_TICKS = 5

#: Relative slack on the tokens/step baseline.  The workload is seeded and
#: deterministic on one platform; the slack absorbs BLAS/platform jitter in
#: float reductions across CI runners, not algorithmic drift.
TOKENS_PER_STEP_SLACK = 0.01

#: Gate: planner tokens/sec must be >= this fraction of the best static
#: expansion config at each gated batch size.  The planner pays a few
#: EWMA-warm-up ticks before its estimate converges; 0.95 absorbs that
#: cold-start cost while still catching a planner that picks bad trees.
PLANNER_STATIC_SLACK = 0.95

#: Batch sizes the planner-vs-static gate checks in the quick benchmark.
PLANNER_GATE_BATCHES = (1, 8)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "results", "baseline_ci.json"
)


def measure_tokens_per_step() -> dict:
    """Verified-tokens-per-step stats for the seeded CI workload."""
    from repro.obs import REGISTRY, reset_observability
    from repro.obs.workload import WorkloadSpec, run_observed_workload

    reset_observability()
    run_observed_workload(WorkloadSpec())
    snap = REGISTRY.snapshot()["repro.engine.tokens_per_step"]
    steps = int(snap["count"])
    if steps == 0:
        raise RuntimeError("workload recorded no verification steps")
    return {
        "steps": steps,
        "tokens": snap["sum"],
        "tokens_per_step": snap["sum"] / steps,
    }


def gate_bench_allocs(bench_json: str) -> list:
    """Failure messages from the benchmark's allocation ablation."""
    with open(bench_json) as fh:
        metrics = json.load(fh)
    key = "repro.bench.fused.ablation.alloc.scratch_on.steady_alloc_events"
    if key not in metrics:
        raise RuntimeError(f"{bench_json} is missing {key}")
    allocs = int(metrics[key]["value"])
    print(f"warmed verification-step allocations: {allocs} (gate: == 0)")
    if allocs:
        return [f"warmed block-sparse verification step performed "
                f"{allocs} tracked allocations (gate: 0)"]
    return []


def measure_steady_state_tick_allocs() -> dict:
    """``repro.engine.tick.allocs`` growth after warm-up on a seeded batch."""
    import numpy as np

    from repro.engine.generation import GenerationConfig
    from repro.engine.pipeline import (
        DecodePipeline,
        DecodeState,
        FusedBackend,
    )
    from repro.model.config import ModelConfig
    from repro.model.coupled import CoupledSSM
    from repro.model.sampling import SamplingConfig
    from repro.model.transformer import TransformerLM
    from repro.obs import REGISTRY, reset_observability
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator

    reset_observability()
    llm = TransformerLM(
        ModelConfig(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                    max_seq_len=96, name="ci-alloc-gate"),
        seed=42,
    )
    rng = np.random.default_rng(0)
    states = []
    for r in range(3):
        speculator = Speculator(
            [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
            ExpansionConfig((1, 2, 1)),
        )
        prompt = rng.integers(1, llm.config.vocab_size,
                              size=5 + r).astype(np.intp)
        states.append(DecodeState(
            llm, prompt,
            GenerationConfig(max_new_tokens=40,
                             sampling=SamplingConfig(greedy=True),
                             seed=r),
            speculator=speculator,
        ))
    pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
    live = lambda: [s for s in states if not s.finished]
    for _ in range(ALLOC_WARMUP_TICKS):
        if live():
            pipeline.tick(live())
    before = REGISTRY.snapshot()["repro.engine.tick.allocs"]["value"]
    steady_ticks = 0
    while live():
        pipeline.tick(live())
        steady_ticks += 1
    if steady_ticks == 0:
        raise RuntimeError("alloc-gate batch finished during warm-up")
    allocs = REGISTRY.snapshot()["repro.engine.tick.allocs"]["value"] - before
    return {"steady_ticks": steady_ticks, "allocs": allocs}


def gate_tick_allocs() -> list:
    """Failure messages from the steady-state pipeline allocation gate."""
    measured = measure_steady_state_tick_allocs()
    print(f"steady-state tick.allocs: {measured['allocs']} over "
          f"{measured['steady_ticks']} post-warm-up ticks (gate: == 0)")
    if measured["allocs"]:
        return [f"steady-state pipeline ticks performed "
                f"{measured['allocs']} tracked allocations (gate: 0)"]
    return []


def gate_planner(bench_json: str) -> list:
    """Failure messages from the planner-vs-static benchmark metrics."""
    with open(bench_json) as fh:
        metrics = json.load(fh)
    failures = []
    for batch in PLANNER_GATE_BATCHES:
        key = f"repro.bench.planner.batch{batch}.planner_vs_best_static"
        if key not in metrics:
            raise RuntimeError(f"{bench_json} is missing {key}")
        ratio = float(metrics[key]["value"])
        print(f"planner vs best static at batch {batch}: {ratio:.3f}x "
              f"(gate: >= {PLANNER_STATIC_SLACK:.2f}x)")
        if ratio < PLANNER_STATIC_SLACK:
            failures.append(
                f"planner tokens/sec at batch {batch} is {ratio:.3f}x the "
                f"best static tree (gate: >= {PLANNER_STATIC_SLACK:.2f}x)"
            )
    planner_key = "repro.bench.planner.drift.planner.tokens_per_sec"
    static_key = "repro.bench.planner.drift.best_static.tokens_per_sec"
    if planner_key not in metrics or static_key not in metrics:
        raise RuntimeError(f"{bench_json} is missing the drift metrics")
    planner_tps = float(metrics[planner_key]["value"])
    static_tps = float(metrics[static_key]["value"])
    print(f"acceptance drift: planner {planner_tps:.1f} tok/s vs best "
          f"static {static_tps:.1f} tok/s (gate: strictly greater)")
    if not planner_tps > static_tps:
        failures.append(
            f"planner {planner_tps:.1f} tok/s does not strictly beat the "
            f"best static tree {static_tps:.1f} tok/s under acceptance drift"
        )
    return failures


def gate_tokens_per_step(baseline_path: str) -> list:
    """Failure messages from the tokens/step comparison."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    measured = measure_tokens_per_step()
    base = float(baseline["tokens_per_step"])
    now = measured["tokens_per_step"]
    floor = base * (1.0 - TOKENS_PER_STEP_SLACK)
    print(f"verified tokens/step: {now:.4f} over {measured['steps']} steps "
          f"(baseline {base:.4f}, floor {floor:.4f})")
    if now < floor:
        return [f"verified tokens/step {now:.4f} regressed below the "
                f"baseline floor {floor:.4f}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-json", default=None,
        help="BENCH_ci.json from bench_batched_fused.py --quick --json",
    )
    parser.add_argument(
        "--baseline", default=BASELINE_PATH,
        help="committed tokens/step baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="measure tokens/step and rewrite the baseline file",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        stats = measure_tokens_per_step()
        payload = dict(stats, workload="obs-default-seed7")
        with open(args.baseline, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {payload['tokens_per_step']:.4f} "
              f"tokens/step to {args.baseline}")
        return 0

    failures = []
    if args.bench_json:
        failures += gate_bench_allocs(args.bench_json)
        failures += gate_planner(args.bench_json)
    failures += gate_tick_allocs()
    failures += gate_tokens_per_step(args.baseline)

    if failures:
        for message in failures:
            print(f"PERF REGRESSION: {message}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
