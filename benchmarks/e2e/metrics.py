"""Metric names, units and definitions, and the arithmetic behind them.

``BENCHMARK.json`` lists the same names; a self-test keeps the two equal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from benchmarks.e2e.loadgen import Record, Run

#: name -> (unit, better, bound): what a user of the system sees.  Sets of
#: ten seeds at the defining commit spread (quartile distance over median)
#: by up to 0.19 on the worst workload of each metric, so the bounds sit at
#: the ceiling the contract allows (0.25), set-up keeping the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "tok_per_s": ("tok/s", "higher", 0.24),
    "tpot_ms_p50": ("ms", "lower", 0.24),
    "ttft_ms_p75": ("ms", "lower", 0.24),
    "gap_ms_p95": ("ms", "lower", 0.24),
}

#: Latency limits of ``loadgen.slo_attained``: a request meets them when its
#: first token came within ``SLO_TTFT_MS`` of when it was due and its tokens
#: then came at ``SLO_TPOT_MS`` each or faster.
SLO_TTFT_MS = 400.0
SLO_TPOT_MS = 60.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(count: int) -> int:
    """The highest of the percentiles 50, 75, 90, 95, 99 that still has at
    least ten samples beyond it; a tail read off fewer is one slow
    request's story."""
    best = 50
    for q in (75, 90, 95, 99):
        if count * (100 - q) / 100.0 >= 10:
            best = q
    return best


def ttft_ms(record: Record) -> float:
    return (record.bursts[0][0] - record.due) * 1e3


def tpot_ms(record: Record) -> float:
    """(last token time - first token time) / (tokens - 1): the paper's
    per-token latency, as one stream sees it."""
    span = record.bursts[-1][0] - record.bursts[0][0]
    return span / (len(record.tokens) - 1) * 1e3


def gaps_ms(record: Record) -> List[float]:
    times = [t for t, _ in record.bursts]
    return [(b - a) * 1e3 for a, b in zip(times, times[1:])]


def end_to_end(run: Run, good: Sequence[Record], setup_s: float,
               setup_factor: float) -> Dict[str, float]:
    """The end-to-end metrics of one run, in reference seconds (see
    ``hostspeed``; the run's records already are).  ``good`` are the
    requests that completed and passed the output check; only they have
    latencies.  ``setup_s`` is host seconds timed before the window, so it
    comes with its own speed factor."""
    gaps = [g for r in good for g in gaps_ms(r)]
    return {
        "setup_s": setup_s / setup_factor,
        "tok_per_s": run.window_tokens / run.wall_s,
        "tpot_ms_p50": percentile([tpot_ms(r) for r in good], 50),
        "ttft_ms_p75": percentile([ttft_ms(r) for r in good], 75),
        "gap_ms_p95": percentile(gaps, 95),
    }


def tails(good: Sequence[Record], attempted: int) -> Dict[str, float]:
    """Tail latencies and the share of requests inside the latency limits.
    They are diagnostics, not gates: a run holds too few requests for them
    to repeat within a bound (see README, 'demoted metrics')."""
    ttfts = [ttft_ms(r) for r in good]
    tpots = [tpot_ms(r) for r in good]
    gaps = [g for r in good for g in gaps_ms(r)]
    inside = sum(1 for a, b in zip(ttfts, tpots)
                 if a <= SLO_TTFT_MS and b <= SLO_TPOT_MS)
    return {
        "loadgen.ttft_ms_p50": percentile(ttfts, 50),
        "loadgen.ttft_ms_p90": percentile(ttfts, 90),
        "loadgen.tpot_ms_p90": percentile(tpots, 90),
        "loadgen.gap_ms_p99": percentile(gaps, 99),
        "loadgen.slo_attained": inside / attempted if attempted else 0.0,
        "loadgen.latency_samples": float(len(good)),
        "loadgen.gap_samples": float(len(gaps)),
        "loadgen.supported_pct": float(supported_percentile(len(good))),
    }


# -- per-layer metrics -------------------------------------------------------------

_FORWARD = ("prefill", "decode", "forward_masked", "forward")
_LLM = tuple(f"model.llm.{m}" for m in _FORWARD)
_SSM = tuple(f"model.ssm.{m}" for m in _FORWARD)
_MANAGER = ("manager.submit", "manager.admit", "manager.step",
            "manager.run_iteration", "manager.session")
_DRAFT = ("speculate.batch", "speculate.one")
_VERIFY = ("verify.fused", "verify.incremental")

#: name -> (unit, better): one layer each, no bound.  Which end-to-end
#: metric each should move, on which workload, is in the README.
PER_LAYER = {
    "serving.gateway.queue_wait_ms_p50": ("ms", "lower"),
    "serving.gateway.queue_wait_ms_p90": ("ms", "lower"),
    "serving.gateway.overhead_s": ("s", "lower"),
    "serving.gateway.ticks": ("count", "lower"),
    "serving.gateway.interactive_only_ticks": ("count", "lower"),
    "serving.gateway.peak_queue_depth": ("count", "lower"),
    "serving.gateway.ttft_ms_p50.interactive": ("ms", "lower"),
    "serving.gateway.ttft_ms_p50.batch": ("ms", "lower"),
    "serving.manager.admit_busy_s": ("s", "lower"),
    "serving.manager.self_s": ("s", "lower"),
    "serving.manager.iterations": ("count", "lower"),
    "serving.manager.batch_mean": ("count", "higher"),
    "serving.manager.preemptions": ("count", "lower"),
    "serving.manager.failed": ("count", "lower"),
    "engine.pipeline.ticks": ("count", "lower"),
    "engine.pipeline.tick_ms_p50": ("ms", "lower"),
    "engine.pipeline.tick_ms_p99": ("ms", "lower"),
    "engine.pipeline.self_s": ("s", "lower"),
    "engine.pipeline.commit_self_s": ("s", "lower"),
    "engine.pipeline.fit_busy_s": ("s", "lower"),
    "engine.pipeline.tokens_per_step": ("tok", "higher"),
    "speculate.draft_busy_s": ("s", "lower"),
    "speculate.draft_self_s": ("s", "lower"),
    "speculate.advance_busy_s": ("s", "lower"),
    "speculate.prefill_busy_s": ("s", "lower"),
    "speculate.nodes_per_tree": ("count", "lower"),
    "speculate.accept_share": ("share", "higher"),
    "speculate.packed_fallbacks": ("count", "lower"),
    "verify.busy_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.tokens_scored": ("count", "lower"),
    "verify.useful_share": ("share", "higher"),
    "model.llm.forward_busy_s": ("s", "lower"),
    "model.llm.forward_calls": ("count", "lower"),
    "model.llm.rows_forwarded": ("count", "lower"),
    "model.llm.prefill_busy_s": ("s", "lower"),
    "model.ssm.forward_busy_s": ("s", "lower"),
    "model.ssm.forward_calls": ("count", "lower"),
    "model.ssm.prefill_busy_s": ("s", "lower"),
    "model.layers.linear_s": ("s", "lower"),
    "model.layers.gelu_s": ("s", "lower"),
    "model.layers.layernorm_s": ("s", "lower"),
    "model.layers.softmax_s": ("s", "lower"),
    "model.attention.attn_s": ("s", "lower"),
    "model.sampling.sample_s": ("s", "lower"),
    "tree.masks.build_s": ("s", "lower"),
    "model.residual_s": ("s", "lower"),
    "model.perf.gemm_flops": ("flop", "lower"),
    "model.perf.attention_flops": ("flop", "lower"),
    "model.perf.kv_bytes_copied": ("B", "lower"),
    "model.perf.hot_alloc_events": ("count", "lower"),
    "model.zoo.train_s": ("s", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.completed": ("count", "higher"),
    "loadgen.failed": ("count", "lower"),
    "loadgen.refused": ("count", "lower"),
    "loadgen.inflight_at_end": ("count", "lower"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    "loadgen.self_s": ("s", "lower"),
    "loadgen.idle_s": ("s", "lower"),
    "loadgen.ttft_ms_p50": ("ms", "lower"),
    "loadgen.ttft_ms_p90": ("ms", "lower"),
    "loadgen.tpot_ms_p90": ("ms", "lower"),
    "loadgen.gap_ms_p99": ("ms", "lower"),
    "loadgen.slo_attained": ("share", "higher"),
    "loadgen.latency_samples": ("count", "higher"),
    "loadgen.gap_samples": ("count", "higher"),
    "loadgen.supported_pct": ("pct", "higher"),
    "host.speed_factor": ("ratio", "lower"),
    "host.ref_unit_ms": ("ms", "lower"),
    "host.ref_units": ("count", "higher"),
    "host.ref_busy_s": ("s", "lower"),
    "host.raw_tok_per_s": ("tok/s", "higher"),
    "host.rss_peak_mb": ("MB", "lower"),
    "host.traced_wall_s": ("s", "lower"),
    "host.trace_coverage": ("share", "higher"),
    "host.trace_overhead": ("share", "lower"),
}


def idle_seconds(run: Run) -> float:
    """Seconds of the window during which no request was outstanding."""
    spans = sorted((r.sent, r.done if r.done is not None else run.wall_s)
                   for r in run.records if r.sent is not None)
    idle, cursor = 0.0, 0.0
    for sent, done in spans:
        if sent > cursor:
            idle += sent - cursor
        cursor = max(cursor, done)
    return idle + max(0.0, run.wall_s - cursor)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(profile, counts: Dict[str, float], run: Run,
              good: Sequence[Record], open_loop: bool,
              facts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``profile`` is the traced pass's :class:`~benchmarks.e2e.trace.Profile`,
    scaled to reference seconds like the run's records; ``counts`` are its
    counters, ``facts`` what was measured elsewhere (perf counters, manager
    statistics, host facts), passed through by name.
    """
    sent = [r for r in run.records if r.sent is not None]
    root_self = profile.self_s.get("run", 0.0)
    ref_busy = profile.busy(["host.ref"])
    idle = idle_seconds(run)
    ticks = [d * 1e3 for d in profile.durations(["pipeline.tick"])]
    scored = counts.get("verify.tokens_scored", 0.0)
    accepted = counts.get("verify.tokens_accepted", 0.0)
    trees = counts.get("verify.trees", 0.0)
    forward_self = profile.self_time(_LLM + _SSM)

    # The k-th request id the manager handed out belongs to its k-th
    # ``submit`` call, which is how a stream finds when it left the queue.
    submits = sorted(
        start for name, start, _, _ in profile.spans
        if name == "manager.submit")
    admitted = sorted((r for r in sent if r.request_id is not None),
                      key=lambda r: r.request_id)
    waits = [
        (at - r.sent_at) * profile.scale * 1e3
        for r, at in zip(admitted, submits)
    ] if open_loop else []

    def ttft_p50(slo: str) -> float:
        return percentile(
            [ttft_ms(r) for r in good if open_loop and r.item.slo == slo], 50)

    values = {
        "serving.gateway.queue_wait_ms_p50": percentile(waits, 50),
        "serving.gateway.queue_wait_ms_p90": percentile(waits, 90),
        "serving.gateway.overhead_s": root_self - idle if open_loop else 0.0,
        "serving.gateway.ticks": float(profile.calls.get("manager.step", 0)),
        "serving.gateway.interactive_only_ticks":
            counts.get("manager.step.subset", 0.0),
        "serving.gateway.ttft_ms_p50.interactive": ttft_p50("interactive"),
        "serving.gateway.ttft_ms_p50.batch": ttft_p50("batch"),
        "serving.manager.admit_busy_s": profile.busy(["manager.session"]),
        "serving.manager.self_s": profile.self_time(_MANAGER),
        "engine.pipeline.ticks": float(len(ticks)),
        "engine.pipeline.tick_ms_p50": percentile(ticks, 50),
        "engine.pipeline.tick_ms_p99": percentile(ticks, 99),
        "engine.pipeline.self_s": profile.self_time(["pipeline.tick"]),
        "engine.pipeline.commit_self_s":
            profile.self_time(["pipeline.commit"]),
        "engine.pipeline.fit_busy_s": profile.busy(["pipeline.fit"]),
        "engine.pipeline.tokens_per_step": _ratio(accepted, trees),
        "speculate.draft_busy_s": profile.busy(_DRAFT),
        "speculate.draft_self_s": profile.self_time(_DRAFT),
        "speculate.advance_busy_s": profile.busy(["speculate.advance"]),
        "speculate.prefill_busy_s": profile.busy(
            ["speculate.prefill"], not_under=["speculate.advance"]),
        "speculate.nodes_per_tree": _ratio(scored, trees),
        # Each verified tree is scored at its root plus its speculated
        # nodes, and commits its accepted speculated tokens plus one.
        "speculate.accept_share": _ratio(accepted - trees, scored - trees),
        "speculate.packed_fallbacks":
            float(profile.calls.get("speculate.one", 0)),
        "verify.busy_s": profile.busy(_VERIFY),
        "verify.self_s": profile.self_time(_VERIFY),
        "verify.tokens_scored": scored,
        "verify.useful_share": _ratio(accepted, scored),
        "model.llm.forward_busy_s": profile.busy(_LLM),
        "model.llm.forward_calls":
            float(profile.calls.get("model.llm.forward", 0)),
        "model.llm.rows_forwarded": counts.get("model.llm.forward.rows", 0.0),
        "model.llm.prefill_busy_s": profile.busy(["model.llm.prefill"]),
        "model.ssm.forward_busy_s": profile.busy(_SSM),
        "model.ssm.forward_calls":
            float(profile.calls.get("model.ssm.forward", 0)),
        "model.ssm.prefill_busy_s": profile.busy(["model.ssm.prefill"]),
        "model.layers.linear_s": profile.self_time(["op.linear"]),
        "model.layers.gelu_s": profile.self_time(["op.gelu"]),
        "model.layers.layernorm_s": profile.self_time(["op.layernorm"]),
        "model.layers.softmax_s": profile.self_time(["op.softmax"]),
        "model.attention.attn_s": profile.self_time(["op.attn"]),
        "model.sampling.sample_s": profile.self_time(["op.sample"]),
        "tree.masks.build_s": profile.self_time(["op.masks"]),
        "model.residual_s": forward_self,
        "loadgen.sent": float(len(sent)),
        "loadgen.completed":
            float(sum(r.outcome == "completed" for r in run.records)),
        "loadgen.failed":
            float(sum(r.outcome == "failed" for r in run.records)),
        "loadgen.refused":
            float(sum(r.outcome == "refused" for r in run.records)),
        "loadgen.inflight_at_end":
            float(sum(r.outcome == "inflight" for r in run.records)),
        "loadgen.late_ms_p99":
            percentile([(r.sent - r.due) * 1e3 for r in sent], 99),
        "loadgen.self_s": 0.0 if open_loop else root_self - idle,
        "loadgen.idle_s": idle,
        "host.traced_wall_s": run.wall_s,
        "host.trace_coverage": _ratio(
            profile.total_self() - root_self - ref_busy, run.wall_s - idle),
        "host.ref_busy_s": ref_busy,
        "host.raw_tok_per_s":
            run.window_tokens / (run.wall_s * run.factor),
    }
    values.update(tails(
        good,
        len(sent) - sum(r.outcome == "inflight" for r in run.records)))
    values.update(facts)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(values[name]) for name in PER_LAYER}
