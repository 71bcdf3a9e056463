"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — run the three engines on one prompt and compare LLM steps.
* ``tree`` — speculate a token tree and render it, with the verified path.
* ``serve`` — simulate continuous-batching serving under Poisson arrivals;
  ``--listen`` serves the same workload through the async streaming
  gateway and exposes it over TCP/JSONL.
* ``chat`` — stream one generation from a gateway (``--local`` spins up an
  in-process stack; ``--connect`` talks to a running ``serve --listen``).
* ``loadgen`` — drive a gateway with concurrent async clients across
  tenants and SLO classes; report admission and latency behavior.
* ``models`` — list the paper-scale model descriptors and placements.
* ``latency`` — query the hardware cost model for a decoding-step latency.
* ``trace`` — run a seeded workload, export the span/event trace as JSONL.
* ``metrics`` — run a seeded workload, dump the metrics registry.
* ``chaos`` — run a workload under seeded fault injection; report survival.

Every serving verb (``serve``, ``chat --local``, ``loadgen``, ``trace``,
``metrics``, ``chaos``) builds one toy stack,
:func:`repro.obs.workload.build_workload`, from a
:class:`~repro.obs.workload.WorkloadSpec`.  A verb with a ``spec_from``
builds what it runs on from its flags before doing anything else, and a
value the flags make invalid exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import numpy as np


def _demo_config(args: argparse.Namespace):
    """``demo``'s :class:`~repro.engine.generation.GenerationConfig`."""
    from repro.engine.generation import GenerationConfig
    from repro.obs.workload import _check_toy_pair

    _check_toy_pair(args.alignment, args.seed)
    return GenerationConfig(max_new_tokens=args.tokens, stop_on_eos=False)


def cmd_demo(args: argparse.Namespace) -> int:
    """Compare incremental / sequence-spec / tree-spec on one prompt."""
    from repro.engine.incremental import IncrementalEngine
    from repro.engine.sequence_spec import make_sequence_spec_engine
    from repro.engine.tree_spec import SpecInferEngine
    from repro.obs.workload import _build_toy_pair
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator

    llm, ssm_factory = _build_toy_pair(args.alignment, args.seed)
    ssm = ssm_factory()
    rng = np.random.default_rng(args.seed)
    prompt = [int(t) for t in rng.integers(1, 96, size=8)]
    config = args.spec
    incremental = IncrementalEngine(llm).generate(prompt, config)
    sequence = make_sequence_spec_engine(llm, ssm).generate(prompt, config)
    tree = SpecInferEngine(
        llm,
        Speculator([ssm], ExpansionConfig.paper_default()),
    ).generate(prompt, config)
    lossless = incremental.tokens == sequence.tokens == tree.tokens
    print(f"{'engine':<28} {'LLM steps':>9} {'tokens/step':>12}")
    for name, result in (
        ("incremental decoding", incremental),
        ("sequence-based speculation", sequence),
        ("tree-based SpecInfer", tree),
    ):
        print(f"{name:<28} {result.num_llm_steps:>9} "
              f"{result.mean_tokens_per_step:>12.2f}")
    print(f"outputs identical: {lossless}")
    return 0 if lossless else 1


def _tree_config(args: argparse.Namespace):
    """``tree``'s :class:`~repro.speculate.expansion.ExpansionConfig`."""
    from repro.obs.workload import _check_toy_pair
    from repro.speculate.expansion import ExpansionConfig

    _check_toy_pair(args.alignment, args.seed)
    return ExpansionConfig(tuple(args.widths))


def cmd_tree(args: argparse.Namespace) -> int:
    """Speculate one token tree, verify it, render both."""
    from repro.engine.batched import BatchedTreeVerifier
    from repro.model.sampling import SamplingConfig
    from repro.obs.workload import _build_toy_pair
    from repro.speculate.speculator import Speculator
    from repro.tree.render import render_tree, tree_stats_line

    llm, ssm_factory = _build_toy_pair(args.alignment, args.seed)
    rng = np.random.default_rng(args.seed)
    prompt = rng.integers(1, 96, size=8)
    speculator = Speculator([ssm_factory()], args.spec)
    speculator.prefill(prompt[:-1])
    tree = speculator.speculate(int(prompt[-1]))
    cache = llm.new_cache()
    llm.prefill(prompt[:-1], cache)
    result = BatchedTreeVerifier(llm).verify_batch(
        [tree], [cache], [SamplingConfig(greedy=True)], [rng])[0]
    print(tree_stats_line(tree))
    print(render_tree(tree, accepted_nodes=result.accepted_nodes))
    print(f"accepted {result.num_accepted_speculated} speculated tokens "
          f"+ bonus {result.bonus_token}")
    return 0


def _print_serve_report(manager, batch: int) -> None:
    """``serve``'s report, in scheduler iterations, read off the manager's
    finished outputs (every one has a first token: the prompt pass emits
    it) and iteration log.  With no finished request, the latency lines
    read ``nan``."""
    outputs = manager.finished_outputs()
    log = manager.iteration_stats
    tokens = sum(len(o.tokens) for o in outputs)
    ttfts = [o.first_token_iteration - o.arrival_iteration + 1
             for o in outputs]
    completions = [o.finish_iteration - o.arrival_iteration for o in outputs]
    busy = [s.batch_size for s in log if s.batch_size]
    nan = float("nan")
    print(f"requests           : {len(outputs)}")
    print(f"iterations         : {len(log)}")
    print(f"tokens generated   : {tokens}")
    print(f"tokens/iteration   : {tokens / max(1, len(log)):.2f}")
    print(f"mean TTFT (iters)  : {np.mean(ttfts) if outputs else nan:.2f}")
    print(f"p95 completion     : "
          f"{np.percentile(completions, 95) if outputs else nan:.2f}")
    print(f"batch occupancy    : {np.mean(busy) if busy else 0.0:.2f}"
          f" / {batch}")


async def _serve_gateway(spec, listen: str) -> int:
    """Serve the arrival schedule through the streaming gateway over TCP.

    Streams every request concurrently (admission order follows the
    canonical ``(iteration, request_id)`` schedule order) while the
    gateway listens on ``listen``.  Under greedy verification the streamed
    tokens are bit-identical to the replay path's — only the
    iteration-timing metrics differ.
    """
    import asyncio

    from repro.obs.workload import build_workload
    from repro.serving.gateway import ServingGateway
    from repro.serving.transport import start_gateway_server
    from repro.workloads.arrival import sort_arrivals

    manager, arrivals = build_workload(spec)
    gateway = ServingGateway(manager)
    await gateway.start()
    host, port = _address(listen)
    server = await start_gateway_server(gateway, host=host, port=port)
    try:
        print(f"gateway listening on {server.host}:{server.port}")
        config = spec.generation_config()
        streams = [
            await gateway.submit(arrival.prompt, config)
            for arrival in sort_arrivals(arrivals)
        ]
        totals = await asyncio.gather(*[s.collect() for s in streams])
    finally:
        await server.close()
        await gateway.stop()
    _print_serve_report(manager, spec.batch)
    print(f"gateway ticks      : {gateway.ticks}")
    print(f"tokens streamed    : {sum(len(t) for t in totals)}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a Poisson workload: replay simulation or streaming gateway."""
    import asyncio

    from repro.obs.workload import run_observed_workload

    if args.listen:
        return asyncio.run(_serve_gateway(args.spec, args.listen))
    manager = run_observed_workload(args.spec)
    _print_serve_report(manager, args.spec.batch)
    return 0


def cmd_chat(args: argparse.Namespace) -> int:
    """Stream one generation token-by-token from a gateway.

    ``--connect HOST:PORT`` talks to a running ``serve --listen`` gateway;
    ``--local`` spins up an in-process gateway + TCP server and chats with
    it over loopback (the full wire path, no second process needed).
    """
    import asyncio

    from repro.serving.client import GatewayClient

    if not args.connect and not args.local:
        print("repro chat: need --connect HOST:PORT or --local",
              file=sys.stderr)
        return 2
    if args.prompt:
        prompt = args.prompt
    else:
        from repro.workloads.datasets import make_dataset

        dataset = make_dataset(args.spec.dataset, vocab_size=96)
        prompt = [int(t) for t in dataset.sample_prompt(max_len=12)]

    async def chat(host: str, port: int) -> int:
        client = await GatewayClient.connect(host, port)
        print(f"prompt : {' '.join(str(t) for t in prompt)}")
        print("tokens : ", end="", flush=True)
        status, reason, count = "done", None, 0
        async for event in client.generate(
                prompt, max_new_tokens=args.spec.max_new_tokens,
                tenant=args.tenant, slo=args.slo, stop_on_eos=False):
            kind = event.get("event")
            if kind == "token":
                print(event["token"], end=" ", flush=True)
                count += 1
            elif kind == "stall":
                print("[stall]", end=" ", flush=True)
            elif kind == "resume":
                print("[resume]", end=" ", flush=True)
            elif kind in ("failed", "rejected", "error"):
                status, reason = str(kind), event.get("reason")
        print()
        await client.close()
        if status != "done":
            print(f"{status}: {reason}")
            return 1
        print(f"done   : {count} tokens")
        return 0

    async def local() -> int:
        from repro.obs.workload import build_workload
        from repro.serving.gateway import ServingGateway
        from repro.serving.transport import start_gateway_server

        manager, _ = build_workload(args.spec)
        gateway = ServingGateway(manager)
        await gateway.start()
        server = await start_gateway_server(gateway)
        try:
            return await chat(server.host, server.port)
        finally:
            await server.close()
            await gateway.stop()

    if args.local:
        return asyncio.run(local())
    return asyncio.run(chat(*_address(args.connect)))


def _address(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` (an empty host is 127.0.0.1) as ``(host, port)``."""
    host, _, port = text.rpartition(":")
    if not port.isdigit() or int(port) > 65535:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def _gateway_workload_spec(args: argparse.Namespace):
    """``serve``'s and ``chat``'s workload spec, once the gateway address
    (``--listen`` / ``--connect``), if given, parses as HOST:PORT and
    ``chat``'s ``--prompt``, if given, as token ids (kept on ``args``)."""
    address = getattr(args, "listen", None) or getattr(args, "connect", None)
    if address:
        _address(address)
    if getattr(args, "prompt", None):
        try:
            args.prompt = [int(t) for t in args.prompt.split()]
        except ValueError:
            raise ValueError(f"--prompt takes space-separated token ids, "
                             f"got {args.prompt!r}") from None
    return _workload_spec(args)


def _loadgen_spec(args: argparse.Namespace):
    """A :class:`~repro.serving.loadgen.LoadgenSpec` from ``loadgen``'s args."""
    from repro.serving.loadgen import LoadgenSpec

    return LoadgenSpec(
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        tenants=tuple(args.tenants),
        max_queue_depth=args.queue_depth,
        rate_per_tick=args.rate_limit,
        workload=_workload_spec(args),
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a gateway with concurrent async clients; print the report."""
    import asyncio

    from repro.obs import reset_observability
    from repro.serving.loadgen import run_loadgen

    reset_observability()
    report = asyncio.run(run_loadgen(args.spec))
    print(report.render())
    ok = (report.dropped == 0 and report.failed == 0
          and report.final_queue_depth == 0
          and report.peak_queue_depth <= report.queue_bound)
    return 0 if ok else 1


def cmd_models(args: argparse.Namespace) -> int:
    """List paper-scale model descriptors and default placements."""
    from repro.cluster.hardware import single_node_cluster, two_node_cluster
    from repro.cluster.models import PAPER_MODELS
    from repro.cluster.parallel import ParallelPlan

    print(f"{'model':<12} {'params':>9} {'fp16':>9} {'placement'}")
    for name, config in PAPER_MODELS.items():
        params = config.num_parameters()
        placement = "1 GPU"
        for cluster, label in (
            (single_node_cluster(), "node"),
            (two_node_cluster(), "2 nodes"),
        ):
            try:
                plan = ParallelPlan.for_model(config, cluster)
                placement = (f"tp={plan.tensor_parallel} "
                             f"pp={plan.pipeline_stages} ({label})")
                break
            except ValueError:
                continue
        else:
            placement = "does not fit"
        print(f"{name:<12} {params / 1e9:>8.2f}B {params * 2 / 1e9:>7.1f}GB "
              f"{placement}")
    return 0


def _latency_model(args: argparse.Namespace):
    """``latency``'s :class:`~repro.cluster.cost_model.LatencyModel`."""
    from repro.cluster.cost_model import LatencyModel
    from repro.cluster.hardware import single_node_cluster, two_node_cluster
    from repro.cluster.models import paper_model
    from repro.cluster.parallel import ParallelPlan

    for name in ("batch", "tree_tokens", "tokens_per_step"):
        if getattr(args, name) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
    if args.context < 0:
        raise ValueError("--context must be >= 0")
    cluster = two_node_cluster() if args.pp > 1 else single_node_cluster()
    plan = ParallelPlan(tensor_parallel=args.tp, pipeline_stages=args.pp)
    return LatencyModel(paper_model(args.model), plan, cluster)


def cmd_latency(args: argparse.Namespace) -> int:
    """Query the cost model for one decoding-step latency."""
    latency = args.spec
    scored = args.batch * args.tree_tokens
    context = args.batch * (args.context + args.tree_tokens)
    step = latency.step_latency(scored, context)
    per_token = step / args.tokens_per_step
    print(f"model {args.model}, tp={args.tp} pp={args.pp}, "
          f"batch={args.batch}, tree={args.tree_tokens} tokens")
    print(f"step latency      : {step * 1e3:.2f} ms")
    print(f"per-token latency : {per_token * 1e3:.2f} ms "
          f"(at {args.tokens_per_step} tokens/step)")
    return 0


def _sweep_points(args: argparse.Namespace):
    """``sweep``'s points: the cost model's per-token latency per depth."""
    from repro.cluster.hardware import single_node_cluster, two_node_cluster
    from repro.cluster.models import paper_model
    from repro.cluster.sweep import sweep_speculation_depth

    cluster = two_node_cluster() if args.model == "llama-65b" \
        else single_node_cluster()
    return sweep_speculation_depth(
        paper_model(args.model),
        paper_model(args.ssm),
        cluster,
        alpha=args.alpha,
        max_depth=args.max_depth,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Planning sweep: per-token latency vs speculation depth."""
    from repro.cluster.sweep import best_point

    points = args.spec
    best = best_point(points)
    print(f"speculation-depth sweep: {args.model} + {args.ssm}, "
          f"alpha={args.alpha}")
    for point in points:
        bar = "#" * max(1, int(point.latency * 2e3))
        marker = "  <- best" if point.x == best.x else ""
        print(f"depth {int(point.x):>2}: {point.latency * 1e3:6.2f} ms "
              f"{bar}{marker}")
    return 0


def _workload_spec(args: argparse.Namespace):
    """A :class:`~repro.obs.workload.WorkloadSpec` from the workload flags
    the verb has (``--tokens`` is ``max_new_tokens``; the rest keep their
    spec names)."""
    from repro.obs.workload import WorkloadSpec

    names = ("dataset", "requests", "batch", "rate", "seed", "alignment",
             "fault_rate", "planner")
    return WorkloadSpec(
        max_new_tokens=args.tokens,
        **{name: getattr(args, name) for name in names if name in args},
    )


def _add_workload_args(parser: argparse.ArgumentParser,
                       positional: bool) -> None:
    """The seeded-workload knobs serve/trace/metrics/chaos share."""
    from repro.workloads.datasets import DATASET_NAMES

    if positional:
        parser.add_argument("dataset", choices=DATASET_NAMES,
                            help="prompt dataset driving the workload")
    else:
        parser.add_argument("--dataset", choices=DATASET_NAMES,
                            default="Alpaca",
                            help="prompt dataset driving the workload")
    parser.add_argument("--requests", type=int, default=4)
    parser.add_argument("--tokens", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--rate", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--alignment", type=float, default=0.88)
    parser.add_argument("--planner", action="store_true",
                        help="re-solve the speculation budget every tick "
                             "against the hardware cost model")


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the seeded workload with tracing armed; emit JSONL spans.

    Output is byte-deterministic for a given argument set: records carry
    logical sequence numbers and seed-derived attributes only (host time
    goes to the metrics registry, not the trace).
    """
    from repro.obs import TRACER, reset_observability, tracing
    from repro.obs.workload import run_observed_workload

    reset_observability()
    with tracing():
        run_observed_workload(args.spec)
        if args.out == "-":
            n = TRACER.export_jsonl(sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                n = TRACER.export_jsonl(handle)
            print(f"wrote {n} trace records to {args.out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the seeded workload; dump the metrics registry (text or JSON)."""
    from repro.obs import REGISTRY, reset_observability
    from repro.obs.workload import run_observed_workload
    from repro.reporting import render_metrics_table

    spec = args.spec
    reset_observability()
    run_observed_workload(spec)
    if args.format == "json":
        print(REGISTRY.to_json())
    else:
        print(render_metrics_table(
            REGISTRY.snapshot(),
            title=f"metrics registry after {spec.dataset} workload "
                  f"({spec.requests} requests, seed {spec.seed})",
        ))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Serve a workload twice — clean, then under seeded fault injection —
    and report whether the serving stack survived.

    Survival means every request finished (none FAILED) and, because the
    workload verifies greedily, every finished request's tokens are
    bit-identical to the fault-free run despite preemptions, retries, and
    speculation fallbacks.  Exit 0 on survival, 1 otherwise.
    """
    from dataclasses import replace as dc_replace

    from repro.obs import REGISTRY, reset_observability
    from repro.obs.workload import run_observed_workload

    spec = args.spec
    reset_observability()
    clean = run_observed_workload(dc_replace(spec, fault_rate=0.0))
    expected = {o.request_id: o.tokens for o in clean.finished_outputs()}

    reset_observability()
    chaotic = run_observed_workload(spec)
    actual = {o.request_id: o.tokens for o in chaotic.finished_outputs()}
    failed = chaotic.failed_outputs()

    def metric(name: str) -> int:
        m = REGISTRY.get(name)
        return int(m.value) if m is not None else 0

    parity = actual == expected
    print(f"workload            : {spec.dataset} ({spec.requests} requests, "
          f"seed {spec.seed})")
    print(f"fault rate          : {spec.fault_rate}")
    print(f"faults injected     : {metric('repro.faults.injected')} "
          f"of {metric('repro.faults.checks')} checks")
    print(f"  speculation       : {metric('repro.faults.speculation')}")
    print(f"  verification      : {metric('repro.faults.verification')}")
    print(f"  session           : {metric('repro.faults.session')}")
    print(f"  kv_pressure       : {metric('repro.faults.kv_pressure')}")
    print(f"preemptions         : {metric('repro.serving.preemptions')}")
    print(f"retries             : {metric('repro.serving.retries')}")
    print(f"fallback ticks      : {metric('repro.engine.fallback_ticks')}")
    print(f"requests finished   : {len(actual)} / {spec.requests}")
    print(f"requests failed     : {len(failed)}")
    print(f"token parity        : {parity}")
    survived = parity and not failed and len(actual) == len(expected)
    print(f"survived            : {survived}")
    return 0 if survived else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro.cluster.models import PAPER_MODELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecInfer reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="compare the three decoding engines")
    demo.add_argument("--tokens", type=int, default=32)
    demo.add_argument("--alignment", type=float, default=0.88)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(handler=cmd_demo, spec_from=_demo_config)

    tree = sub.add_parser("tree", help="speculate and render a token tree")
    tree.add_argument("--widths", type=int, nargs="+",
                      default=[1, 1, 3, 1, 1, 1, 1, 1])
    tree.add_argument("--alignment", type=float, default=0.88)
    tree.add_argument("--seed", type=int, default=7)
    tree.set_defaults(handler=cmd_tree, spec_from=_tree_config)

    serve = sub.add_parser("serve", help="simulate continuous batching")
    _add_workload_args(serve, positional=False)
    serve.add_argument("--listen", metavar="HOST:PORT",
                       help="serve through the async streaming gateway, "
                            "exposed over TCP/JSONL while the workload "
                            "drains, instead of the replay simulation")
    serve.set_defaults(handler=cmd_serve, spec_from=_gateway_workload_spec)

    chat = sub.add_parser(
        "chat", help="stream one generation from a serving gateway"
    )
    chat.add_argument("--connect", metavar="HOST:PORT",
                      help="address of a running gateway server")
    chat.add_argument("--local", action="store_true",
                      help="spin up an in-process gateway and chat with it "
                           "over loopback TCP")
    chat.add_argument("--prompt", metavar="TOKENS",
                      help="space-separated prompt token ids "
                           "(default: sample from --dataset)")
    chat.add_argument("--tokens", type=int, default=16)
    chat.add_argument("--tenant", default="default")
    chat.add_argument("--slo", choices=("interactive", "batch"),
                      default="interactive")
    chat.add_argument("--dataset", default="Alpaca")
    chat.add_argument("--alignment", type=float, default=0.88)
    chat.add_argument("--seed", type=int, default=7)
    chat.set_defaults(handler=cmd_chat, spec_from=_gateway_workload_spec)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a gateway with concurrent async clients",
    )
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--requests-per-client", type=int, default=2)
    loadgen.add_argument("--tokens", type=int, default=8)
    loadgen.add_argument("--batch", type=int, default=4)
    loadgen.add_argument("--dataset", default="Alpaca")
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--alignment", type=float, default=0.88)
    loadgen.add_argument("--tenants", nargs="+", default=["alpha", "beta"])
    loadgen.add_argument("--queue-depth", type=int, default=4,
                         help="per-tenant admission queue bound")
    loadgen.add_argument("--rate-limit", type=float, default=None,
                         help="per-tenant admissions per tick")
    loadgen.add_argument("--fault-rate", type=float, default=0.0,
                         help="per-site fault-injection probability")
    loadgen.set_defaults(handler=cmd_loadgen, spec_from=_loadgen_spec)

    models = sub.add_parser("models", help="list paper model descriptors")
    models.set_defaults(handler=cmd_models)

    latency = sub.add_parser("latency", help="query the cost model")
    latency.add_argument("--model", choices=PAPER_MODELS, default="llama-7b")
    latency.add_argument("--tp", type=int, default=1)
    latency.add_argument("--pp", type=int, default=1)
    latency.add_argument("--batch", type=int, default=1)
    latency.add_argument("--tree-tokens", type=int, default=1)
    latency.add_argument("--context", type=int, default=128)
    latency.add_argument("--tokens-per-step", type=float, default=1.0)
    latency.set_defaults(handler=cmd_latency, spec_from=_latency_model)

    sweep = sub.add_parser("sweep",
                           help="speculation-depth planning sweep")
    sweep.add_argument("--model", choices=PAPER_MODELS, default="llama-7b")
    sweep.add_argument("--ssm", choices=PAPER_MODELS, default="llama-68m")
    sweep.add_argument("--alpha", type=float, default=0.7)
    sweep.add_argument("--max-depth", type=int, default=12)
    sweep.set_defaults(handler=cmd_sweep, spec_from=_sweep_points)

    trace = sub.add_parser(
        "trace",
        help="run a seeded workload, export the trace as JSONL",
    )
    _add_workload_args(trace, positional=True)
    trace.add_argument("--out", default="-", metavar="PATH",
                       help="JSONL output path ('-' for stdout)")
    trace.set_defaults(handler=cmd_trace, spec_from=_workload_spec)

    metrics = sub.add_parser(
        "metrics",
        help="run a seeded workload, dump the metrics registry",
    )
    _add_workload_args(metrics, positional=False)
    metrics.add_argument("--format", choices=("text", "json"),
                         default="text")
    metrics.set_defaults(handler=cmd_metrics, spec_from=_workload_spec)

    chaos = sub.add_parser(
        "chaos",
        help="serve a workload under seeded fault injection",
    )
    _add_workload_args(chaos, positional=True)
    chaos.add_argument("--fault-rate", type=float, default=0.05,
                       help="per-site fault-injection probability")
    chaos.set_defaults(handler=cmd_chaos, spec_from=_workload_spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if "spec_from" in args:
        try:
            args.spec = args.spec_from(args)
        except ValueError as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            return 2
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
