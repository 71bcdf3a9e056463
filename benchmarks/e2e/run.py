"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload offline_greedy --seed 1 \\
        --seconds 18 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` runs the same workload again under the outside-in tracer and
prints the per-layer metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object.  Outputs are
checked, untimed, after each run, and a wrong one makes the exit code 1.

``--workload all`` runs the four workloads, both passes each; ``--out PATH``
appends one JSON line per pass to ``PATH`` (what ``compare.py`` reads).
"""

import os

# One BLAS thread: the host has two cores and the load generator, the
# gateway and the model share one Python thread, so a second BLAS thread
# would only add scheduling noise.  Must precede the first NumPy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse
import asyncio
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, Python puts this directory first on the path, where
# ``trace.py`` would shadow the standard library's ``trace``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    from benchmarks.e2e import stack
except ImportError as exc:
    sys.exit(f"benchmarks/e2e needs the repository's src/repro package and "
             f"NumPy on the path: {exc}")

import numpy as np

from benchmarks.e2e import hostspeed, loadgen, metrics, workloads
from benchmarks.e2e.trace import Profile, Tracer

#: Stacks built (and warmed) per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Share of ``--seconds`` the traced pass first spends untraced, to have
#: something to compare its own speed against.
REFERENCE_SHARE = 0.25
#: Requests whose tokens go into the printed digest.
DIGEST_REQUESTS = 8
WARMUP_NEW_TOKENS = 16


# -- setting up --------------------------------------------------------------------


def _submitter(built, workload):
    def submit(item):
        return built.manager.submit(item.prompt, stack.generation_config(
            item.max_new_tokens, workload.stochastic, item.seed))
    return submit


def _warmup_item(sample):
    prompt = sample(workloads.CLOSED_PROMPT_LEN, np.random.default_rng(0))
    return workloads.WorkItem(index=-1, prompt=prompt,
                              max_new_tokens=WARMUP_NEW_TOKENS)


def setup_closed(workload, sample):
    """Build the stack and serve one request, so scratch arenas exist and
    lazy imports are done before anything is timed."""
    built = stack.Stack(workload.mode, workload.stochastic)
    _submitter(built, workload)(_warmup_item(sample))
    built.manager.run_until_complete()
    return built


async def setup_open(workload, sample):
    built = stack.Stack(workload.mode, workload.stochastic)
    gateway = built.gateway()
    await gateway.start()
    item = _warmup_item(sample)
    stream = await gateway.submit(
        item.prompt, stack.generation_config(item.max_new_tokens, False, 0),
        tenant=item.tenant, slo=item.slo)
    await stream.collect()
    return built, gateway


def _gateway_submit(gateway):
    async def submit(item):
        return await gateway.submit(
            item.prompt,
            stack.generation_config(item.max_new_tokens, False, item.seed),
            tenant=item.tenant, slo=item.slo)
    return submit


# -- one pass ----------------------------------------------------------------------


class Pass:
    """One measured drive of one workload on a freshly set-up stack."""

    def __init__(self, workload, seed, seconds, sample, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sample = sample
        self.tracer = tracer
        self.setup_s = []
        self.perf = None

    def run(self, setup_repeats=1):
        """Set up ``setup_repeats`` times (the last stack is the one that
        gets measured), reading the host's speed before and after, then
        drive the workload."""
        gc.collect()  # stacks of earlier passes, before anything is timed
        before = hostspeed.factor_of(hostspeed.standalone_units())
        if self.workload.loop == "open":
            asyncio.run(self._run_open(setup_repeats, before))
        else:
            self._run_closed(setup_repeats, before)
        return self

    def _setups_done(self, before):
        """Called between the last set-up and the window."""
        recent = hostspeed.standalone_units()
        self.setup_factor = (before + hostspeed.factor_of(recent)) / 2
        self.first_iteration = self.built.manager.iteration
        self.clock = hostspeed.Clock(
            recent, self.tracer.span if self.tracer is not None else None)

    def _traced(self):
        """Context of the measured drive: under the tracer when there is
        one, with the program's own operation counters read around it."""
        context = ExitStack()
        if self.tracer is not None:
            counters = context.enter_context(stack.perf_counters())
            self.perf = counters
            context.enter_context(
                self.tracer.installed(stack.trace_points(self.built)))
            context.enter_context(self.tracer.span("run"))
        return context

    def _run_closed(self, setup_repeats, before):
        for _ in range(setup_repeats):
            start = time.perf_counter()
            self.built = setup_closed(self.workload, self.sample)
            self.setup_s.append(time.perf_counter() - start)
        self._setups_done(before)
        items = workloads.closed_items(
            self.seed, self.sample, self.workload.stochastic)
        with self._traced():
            self.result = loadgen.drive_closed(
                _submitter(self.built, self.workload),
                self.built.manager.run_iteration, items,
                workloads.CLOSED_CLIENTS, self.seconds, self.clock)
        self.peak_queue_depth = 0

    async def _run_open(self, setup_repeats, before):
        gateway = None
        for _ in range(setup_repeats):
            if gateway is not None:
                await gateway.stop()
            start = time.perf_counter()
            self.built, gateway = await setup_open(self.workload, self.sample)
            self.setup_s.append(time.perf_counter() - start)
        self._setups_done(before)
        gateway.peak_queue_depth = 0
        items = workloads.open_items(self.seed, self.sample, self.seconds)
        try:
            with self._traced():
                self.result = await loadgen.drive_open(
                    _gateway_submit(gateway), stack.AdmissionError, items,
                    self.clock)
        finally:
            await gateway.stop()
        self.peak_queue_depth = gateway.peak_queue_depth

    # -- checking ------------------------------------------------------------------

    def check(self):
        """Sort the finished requests into good and wrong; returns the
        reasons, one line per wrong request, naming it."""
        self.good, problems = [], []
        for record in self.result.records:
            if record.outcome == "inflight":
                continue
            problem = self._problem(record)
            if problem is None:
                self.good.append(record)
            else:
                problems.append(
                    f"{self.workload.name} seed {self.seed} request "
                    f"{record.item.index}: {problem}")
        self.attempted = sum(
            r.outcome != "inflight" for r in self.result.records)
        self.failed = len(problems)
        return problems

    def _problem(self, record):
        if record.outcome != "completed":
            return f"{record.outcome} {record.detail}".strip()
        want = record.item.max_new_tokens
        if len(record.tokens) != want:
            return f"{len(record.tokens)} tokens, wanted {want}"
        if record.indices != list(range(want)):
            return "stream indices not contiguous"
        if not all(0 <= t < stack.VOCAB for t in record.tokens):
            return "token outside the vocabulary"
        if not self.workload.stochastic:
            at = stack.greedy_mismatch(
                self.built.llm, record.item.prompt, record.tokens)
            if at is not None:
                return (f"token {at} differs from the incremental "
                        f"continuation of its prompt")
        return None

    def digest(self):
        """Digest of the first requests' tokens: equal seeds, equal digest."""
        h = hashlib.blake2b(digest_size=8)
        for record in sorted(self.result.records, key=lambda r: r.item.index):
            if record.item.index < DIGEST_REQUESTS:
                h.update(repr((record.item.index, record.tokens)).encode())
        return h.hexdigest()

    def busy_s_per_token(self):
        """Reference seconds somebody was waiting, per committed token."""
        busy = self.result.wall_s - metrics.idle_seconds(self.result)
        return busy / max(1, self.result.window_tokens)


# -- one workload ------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, trace_out=None):
    """Run one pass of one workload; returns the result record."""
    workload = workloads.WORKLOADS[name]
    train_s = stack.ensure_models()
    sample = stack.prompt_sampler()
    if not trace:
        measured = Pass(workload, seed, seconds, sample).run(SETUP_REPEATS)
        problems = measured.check()
        values = metrics.end_to_end(
            measured.result, measured.good,
            statistics.median(measured.setup_s), measured.setup_factor)
        table = metrics.END_TO_END
    else:
        reference = Pass(workload, seed, seconds * REFERENCE_SHARE,
                         sample).run()
        tracer = Tracer()
        measured = Pass(workload, seed, seconds, sample, tracer).run()
        problems = measured.check()
        if trace_out:
            tracer.dump(trace_out)
        manager = stack.manager_facts(
            measured.built.manager, measured.first_iteration)
        values = metrics.per_layer(
            Profile(tracer.spans, 1.0 / measured.result.factor),
            tracer.counts, measured.result,
            measured.good, workload.loop == "open",
            {
                "serving.gateway.peak_queue_depth": measured.peak_queue_depth,
                "serving.manager.iterations": manager["iterations"],
                "serving.manager.batch_mean": manager["batch_mean"],
                "serving.manager.preemptions": manager["preemptions"],
                "serving.manager.failed": manager["failed"],
                "model.perf.gemm_flops": measured.perf.gemm_flops,
                "model.perf.attention_flops": measured.perf.attn_score_flops,
                "model.perf.kv_bytes_copied": measured.perf.kv_bytes_copied,
                "model.perf.hot_alloc_events": measured.perf.hot_alloc_events,
                "model.zoo.train_s": train_s,
                "host.speed_factor": measured.result.factor,
                "host.ref_unit_ms": statistics.mean(measured.clock.unit_ms),
                "host.ref_units": len(measured.clock.unit_ms),
                "host.rss_peak_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "host.trace_overhead": (
                    measured.busy_s_per_token()
                    / reference.busy_s_per_token() - 1.0),
            })
        table = metrics.PER_LAYER

    counts = {
        outcome: sum(r.outcome == outcome for r in measured.result.records)
        for outcome in ("completed", "failed", "refused", "inflight")
    }
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"loop={workload.loop} wall={measured.result.wall_s:.2f}s")
    print(f"# sent={len(measured.result.records)} "
          + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" wrong_output={measured.failed - counts['failed'] - counts['refused']}"
          + f" latency_samples={len(measured.good)}")
    digest = measured.digest()
    print(f"# digest={digest} "
          f"host.speed_factor={measured.result.factor:.4f} "
          f"(times are reference seconds: host seconds / factor)")
    for problem in problems:
        print(f"# WRONG {problem}")
    for metric, value in values.items():
        print(f"{metric:44s} {value:16.6f} {table[metric][0]}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "digest": digest,
        "speed_factor": measured.result.factor,
        "correct": not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            metric: {"value": value, "unit": table[metric][0]}
            for metric, value in values.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics (default: both)")
    parser.add_argument("--out", help="append each pass here as a JSON line")
    parser.add_argument("--trace-out",
                        help="write the (last) traced pass's spans here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    passes = (0, 1) if args.trace is None else (args.trace,)
    record = None
    correct = True
    for name in names:
        for trace in passes:
            record = run_workload(name, args.seed, args.seconds, bool(trace),
                                  args.trace_out)
            correct = correct and record["correct"]
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
