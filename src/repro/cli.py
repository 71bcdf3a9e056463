"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — run the three engines on one prompt and compare LLM steps.
* ``tree`` — speculate a token tree and render it, with the verified path.
* ``serve`` — simulate continuous-batching serving under Poisson arrivals;
  ``--gateway`` serves the same workload through the async streaming
  gateway, ``--listen`` additionally exposes it over TCP/JSONL.
* ``chat`` — stream one generation from a gateway (``--local`` spins up an
  in-process stack; ``--connect`` talks to a running ``serve --listen``).
* ``loadgen`` — drive a gateway with concurrent async clients across
  tenants and SLO classes; report admission and latency behavior.
* ``models`` — list the paper-scale model descriptors and placements.
* ``latency`` — query the hardware cost model for a decoding-step latency.
* ``trace`` — run a seeded workload, export the span/event trace as JSONL.
* ``metrics`` — run a seeded workload, dump the metrics registry.
* ``chaos`` — run a workload under seeded fault injection; report survival.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _build_toy_pair(alignment: float, seed: int):
    """The demo substrate: toy LLM + coupled SSM."""
    from repro.model.config import ModelConfig
    from repro.model.coupled import CoupledSSM
    from repro.model.transformer import TransformerLM

    llm = TransformerLM(
        ModelConfig(vocab_size=96, d_model=48, n_layers=3, n_heads=4,
                    max_seq_len=256, name="cli-llm"),
        seed=seed,
    )
    ssm = CoupledSSM(llm, alignment=alignment, seed=seed + 1,
                     noise_scale=2.0)
    return llm, ssm


def cmd_demo(args: argparse.Namespace) -> int:
    """Compare incremental / sequence-spec / tree-spec on one prompt."""
    from repro.engine.generation import GenerationConfig
    from repro.engine.incremental import IncrementalEngine
    from repro.engine.sequence_spec import make_sequence_spec_engine
    from repro.engine.tree_spec import SpecInferEngine
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator

    llm, ssm = _build_toy_pair(args.alignment, args.seed)
    rng = np.random.default_rng(args.seed)
    prompt = [int(t) for t in rng.integers(1, 96, size=8)]
    config = GenerationConfig(max_new_tokens=args.tokens, stop_on_eos=False)
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


def cmd_tree(args: argparse.Namespace) -> int:
    """Speculate one token tree, verify it, render both."""
    from repro.engine.batched import BatchedTreeVerifier
    from repro.model.sampling import SamplingConfig
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator
    from repro.tree.render import render_tree, tree_stats_line

    llm, ssm = _build_toy_pair(args.alignment, args.seed)
    rng = np.random.default_rng(args.seed)
    prompt = rng.integers(1, 96, size=8)
    speculator = Speculator(
        [ssm], ExpansionConfig(tuple(args.widths))
    )
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


def _serve_stack(args: argparse.Namespace):
    """The serving substrate ``serve`` uses in both modes."""
    from repro.model.coupled import CoupledSSM
    from repro.serving.manager import RequestManager
    from repro.serving.session import SpeculativeSession
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator
    from repro.workloads.arrival import PoissonArrivals
    from repro.workloads.datasets import make_dataset

    llm, _ = _build_toy_pair(args.alignment, args.seed)

    router = None
    if getattr(args, "pool", 0):
        from repro.serving.session import make_routed_factory
        from repro.speculate.pool import SpeculatorPool
        from repro.speculate.router import RouterConfig, SpeculatorRouter

        if args.pool < 2:
            raise SystemExit("--pool needs at least 2 members")
        sp_pool = SpeculatorPool.coupled_spread(
            llm, args.pool, args.alignment, seed=args.seed + 1,
            config=ExpansionConfig.paper_default(),
        )
        router = SpeculatorRouter(
            sp_pool,
            RouterConfig(policy=getattr(args, "router", "ucb"),
                         seed=args.seed),
        )
        factory = make_routed_factory(llm, sp_pool, router)
    else:
        def factory(request):
            return SpeculativeSession(
                request, llm,
                lambda: Speculator(
                    [CoupledSSM(llm, alignment=args.alignment,
                                seed=args.seed + 1, noise_scale=2.0)],
                    ExpansionConfig.paper_default(),
                ),
            )

    planner = None
    if getattr(args, "planner", False):
        from repro.speculate.planner import TreePlanner

        planner = TreePlanner.default()
    manager = RequestManager(factory, max_batch_size=args.batch,
                             planner=planner, router=router)
    dataset = make_dataset(args.dataset, vocab_size=96)
    arrivals = PoissonArrivals(rate=args.rate, dataset=dataset,
                               seed=args.seed,
                               max_prompt_len=16).schedule(args.requests)
    return manager, arrivals


def _print_serve_report(manager, batch: int) -> None:
    from repro.serving.metrics import report_from_manager

    report = report_from_manager(manager)
    print(f"requests           : {report.num_requests}")
    print(f"iterations         : {report.total_iterations}")
    print(f"tokens generated   : {report.total_tokens}")
    print(f"tokens/iteration   : {report.tokens_per_iteration:.2f}")
    print(f"mean TTFT (iters)  : {report.mean_ttft:.2f}")
    print(f"p95 completion     : {report.p95_completion:.2f}")
    print(f"batch occupancy    : {report.mean_batch_occupancy:.2f}"
          f" / {batch}")


async def _serve_gateway(args: argparse.Namespace, manager, arrivals) -> int:
    """Serve the arrival schedule through the streaming gateway.

    Streams every request concurrently (admission order follows the
    canonical ``(iteration, request_id)`` schedule order), optionally
    exposing the gateway over TCP while the workload drains.  Under greedy
    verification the streamed tokens are bit-identical to the replay
    path's — only the iteration-timing metrics differ.
    """
    from repro.engine.generation import GenerationConfig
    from repro.serving.gateway import ServingGateway
    from repro.workloads.arrival import sort_arrivals

    config = GenerationConfig(max_new_tokens=args.tokens, stop_on_eos=False)
    gateway = ServingGateway(manager)
    await gateway.start()
    server = None
    if args.listen:
        from repro.serving.transport import start_gateway_server

        host, _, port = args.listen.rpartition(":")
        server = await start_gateway_server(
            gateway, host=host or "127.0.0.1", port=int(port))
        print(f"gateway listening on {server.host}:{server.port}")
    streams = [
        await gateway.submit(arrival.prompt, config)
        for arrival in sort_arrivals(arrivals)
    ]
    import asyncio

    totals = await asyncio.gather(*[s.collect() for s in streams])
    if server is not None:
        await server.close()
    await gateway.stop()
    _print_serve_report(manager, args.batch)
    print(f"gateway ticks      : {gateway._loop_driver.ticks}")
    print(f"tokens streamed    : {sum(len(t) for t in totals)}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a Poisson workload: replay simulation or streaming gateway."""
    import asyncio

    from repro.engine.generation import GenerationConfig
    from repro.workloads.arrival import drive_manager

    manager, arrivals = _serve_stack(args)
    if args.gateway or args.listen:
        return asyncio.run(_serve_gateway(args, manager, arrivals))
    drive_manager(
        manager, arrivals,
        GenerationConfig(max_new_tokens=args.tokens, stop_on_eos=False),
    )
    _print_serve_report(manager, args.batch)
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
        prompt = [int(t) for t in args.prompt.split()]
    else:
        from repro.workloads.datasets import make_dataset

        dataset = make_dataset(args.dataset, vocab_size=96)
        prompt = [int(t) for t in dataset.sample_prompt(max_len=12)]

    async def chat(host: str, port: int) -> int:
        client = await GatewayClient.connect(host, port)
        print(f"prompt : {' '.join(str(t) for t in prompt)}")
        print("tokens : ", end="", flush=True)
        status, reason, count = "done", None, 0
        async for event in client.generate(
                prompt, max_new_tokens=args.tokens,
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
        from repro.serving.gateway import ServingGateway
        from repro.serving.manager import RequestManager
        from repro.serving.transport import start_gateway_server

        manager, _ = _serve_stack(args)
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
    host, _, port = args.connect.rpartition(":")
    return asyncio.run(chat(host or "127.0.0.1", int(port)))


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a gateway with concurrent async clients; print the report."""
    import asyncio

    from repro.obs import reset_observability
    from repro.serving.loadgen import LoadgenSpec, run_loadgen

    reset_observability()
    spec = LoadgenSpec(
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        dataset=args.dataset,
        max_new_tokens=args.tokens,
        batch=args.batch,
        seed=args.seed,
        alignment=args.alignment,
        tenants=tuple(args.tenants),
        max_queue_depth=args.queue_depth,
        rate_per_tick=args.rate_limit,
        fault_rate=args.fault_rate,
    )
    report = asyncio.run(run_loadgen(spec))
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


def cmd_latency(args: argparse.Namespace) -> int:
    """Query the cost model for one decoding-step latency."""
    from repro.cluster.cost_model import LatencyModel
    from repro.cluster.hardware import single_node_cluster, two_node_cluster
    from repro.cluster.models import paper_model
    from repro.cluster.parallel import ParallelPlan

    cluster = two_node_cluster() if args.pp > 1 else single_node_cluster()
    model = paper_model(args.model)
    plan = ParallelPlan(tensor_parallel=args.tp, pipeline_stages=args.pp)
    latency = LatencyModel(model, plan, cluster)
    scored = args.batch * args.tree_tokens
    context = args.batch * (args.context + args.tree_tokens)
    step = latency.step_latency(scored, context)
    per_token = step / max(args.tokens_per_step, 1e-9)
    print(f"model {args.model}, tp={args.tp} pp={args.pp}, "
          f"batch={args.batch}, tree={args.tree_tokens} tokens")
    print(f"step latency      : {step * 1e3:.2f} ms")
    print(f"per-token latency : {per_token * 1e3:.2f} ms "
          f"(at {args.tokens_per_step} tokens/step)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Planning sweep: per-token latency vs speculation depth."""
    from repro.cluster.hardware import single_node_cluster, two_node_cluster
    from repro.cluster.models import paper_model
    from repro.cluster.sweep import best_point, sweep_speculation_depth

    cluster = two_node_cluster() if args.model == "llama-65b" \
        else single_node_cluster()
    points = sweep_speculation_depth(
        paper_model(args.model),
        paper_model(args.ssm),
        cluster,
        alpha=args.alpha,
        max_depth=args.max_depth,
    )
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
    """A :class:`~repro.obs.workload.WorkloadSpec` from shared CLI args."""
    from repro.obs.workload import WorkloadSpec

    return WorkloadSpec(
        dataset=args.workload,
        requests=args.requests,
        max_new_tokens=args.tokens,
        batch=args.batch,
        rate=args.rate,
        seed=args.seed,
        alignment=args.alignment,
        planner=getattr(args, "planner", False),
        pool=getattr(args, "pool", 0),
        router=getattr(args, "router", "ucb"),
    )


def _add_workload_args(parser: argparse.ArgumentParser,
                       positional: bool) -> None:
    """The seeded-workload knobs ``trace`` and ``metrics`` share."""
    from repro.workloads.datasets import DATASET_NAMES

    if positional:
        parser.add_argument("workload", choices=DATASET_NAMES,
                            help="prompt dataset driving the workload")
    else:
        parser.add_argument("--workload", choices=DATASET_NAMES,
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
    _add_pool_args(parser)


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    """The speculator-pool routing knobs serve/trace/metrics/chaos share."""
    parser.add_argument("--pool", type=int, default=0, metavar="N",
                        help="serve with a heterogeneous pool of N coupled "
                             "speculators routed per request (N >= 2; "
                             "0 keeps the single-SSM path)")
    parser.add_argument("--router",
                        choices=("ucb", "thompson", "round_robin"),
                        default="ucb",
                        help="routing policy over the speculator pool")


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
        run_observed_workload(_workload_spec(args))
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
    from repro.reporting import render_metrics

    reset_observability()
    run_observed_workload(_workload_spec(args))
    print(render_metrics(
        REGISTRY.snapshot(), format=args.format,
        title=f"metrics registry after {args.workload} workload "
              f"({args.requests} requests, seed {args.seed})",
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

    spec = _workload_spec(args)
    # The cost-model replay contributes nothing to the parity check.
    reset_observability()
    clean = run_observed_workload(dc_replace(spec, simulate=False))
    expected = {o.request_id: o.tokens for o in clean.finished_outputs()}

    reset_observability()
    chaotic = run_observed_workload(
        dc_replace(spec, simulate=False, fault_rate=args.fault_rate)
    )
    actual = {o.request_id: o.tokens for o in chaotic.finished_outputs()}
    failed = chaotic.failed_outputs()

    def metric(name: str) -> int:
        m = REGISTRY.get(name)
        return int(m.value) if m is not None else 0

    parity = actual == expected
    print(f"workload            : {args.workload} ({spec.requests} requests, "
          f"seed {spec.seed})")
    print(f"fault rate          : {args.fault_rate}")
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
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecInfer reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="compare the three decoding engines")
    demo.add_argument("--tokens", type=int, default=32)
    demo.add_argument("--alignment", type=float, default=0.88)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(handler=cmd_demo)

    tree = sub.add_parser("tree", help="speculate and render a token tree")
    tree.add_argument("--widths", type=int, nargs="+",
                      default=[1, 1, 3, 1, 1, 1, 1, 1])
    tree.add_argument("--alignment", type=float, default=0.88)
    tree.add_argument("--seed", type=int, default=7)
    tree.set_defaults(handler=cmd_tree)

    serve = sub.add_parser("serve", help="simulate continuous batching")
    serve.add_argument("--requests", type=int, default=8)
    serve.add_argument("--rate", type=float, default=0.5)
    serve.add_argument("--batch", type=int, default=4)
    serve.add_argument("--tokens", type=int, default=16)
    serve.add_argument("--dataset", default="Alpaca")
    serve.add_argument("--alignment", type=float, default=0.88)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--planner", action="store_true",
                       help="plan speculation budgets per tick against the "
                            "hardware cost model")
    _add_pool_args(serve)
    serve.add_argument("--gateway", action="store_true",
                       help="serve through the async streaming gateway "
                            "instead of the replay simulation")
    serve.add_argument("--listen", metavar="HOST:PORT",
                       help="also expose the gateway over TCP/JSONL while "
                            "the workload drains (implies --gateway)")
    serve.set_defaults(handler=cmd_serve)

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
    chat.add_argument("--requests", type=int, default=1,
                      help=argparse.SUPPRESS)  # _serve_stack compatibility
    chat.add_argument("--rate", type=float, default=1.0,
                      help=argparse.SUPPRESS)
    chat.add_argument("--batch", type=int, default=4,
                      help=argparse.SUPPRESS)
    chat.add_argument("--alignment", type=float, default=0.88)
    chat.add_argument("--seed", type=int, default=7)
    chat.set_defaults(handler=cmd_chat)

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
    loadgen.set_defaults(handler=cmd_loadgen)

    models = sub.add_parser("models", help="list paper model descriptors")
    models.set_defaults(handler=cmd_models)

    latency = sub.add_parser("latency", help="query the cost model")
    latency.add_argument("--model", default="llama-7b")
    latency.add_argument("--tp", type=int, default=1)
    latency.add_argument("--pp", type=int, default=1)
    latency.add_argument("--batch", type=int, default=1)
    latency.add_argument("--tree-tokens", type=int, default=1)
    latency.add_argument("--context", type=int, default=128)
    latency.add_argument("--tokens-per-step", type=float, default=1.0)
    latency.set_defaults(handler=cmd_latency)

    sweep = sub.add_parser("sweep",
                           help="speculation-depth planning sweep")
    sweep.add_argument("--model", default="llama-7b")
    sweep.add_argument("--ssm", default="llama-68m")
    sweep.add_argument("--alpha", type=float, default=0.7)
    sweep.add_argument("--max-depth", type=int, default=12)
    sweep.set_defaults(handler=cmd_sweep)

    trace = sub.add_parser(
        "trace",
        help="run a seeded workload, export the trace as JSONL",
    )
    _add_workload_args(trace, positional=True)
    trace.add_argument("--out", default="-", metavar="PATH",
                       help="JSONL output path ('-' for stdout)")
    trace.set_defaults(handler=cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run a seeded workload, dump the metrics registry",
    )
    _add_workload_args(metrics, positional=False)
    metrics.add_argument("--format", choices=("text", "json"),
                         default="text")
    metrics.set_defaults(handler=cmd_metrics)

    chaos = sub.add_parser(
        "chaos",
        help="serve a workload under seeded fault injection",
    )
    _add_workload_args(chaos, positional=True)
    chaos.add_argument("--fault-rate", type=float, default=0.05,
                       help="per-site fault-injection probability")
    chaos.set_defaults(handler=cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
