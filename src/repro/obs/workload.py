"""The seeded reference workload the observability CLI and tests observe.

``repro trace`` and ``repro metrics`` need a workload that (a) exercises
every instrumented layer — the four pipeline phases, a fused verification
backend, continuous-batching admission/retirement, the shared KV arena, and
the cluster cost model — and (b) is fully determined by its seed, so the
exported trace is byte-identical across runs.  This module is that
workload: a Poisson arrival schedule of dataset prompts served by a
:class:`~repro.serving.manager.RequestManager` over a
:class:`~repro.model.arena.BatchArena`, followed by one offline generation
replayed through the hardware cost model.

It lives in ``repro.obs`` (not the CLI) so the trace golden tests and the
CLI drive the *same* code path — the determinism test is a regression test
for exactly what ``repro trace`` ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one observed workload run (all seed-determined).

    Attributes:
        dataset: Prompt source name (:data:`repro.workloads.datasets.DATASET_NAMES`).
        requests: Requests to submit.
        max_new_tokens: Generation budget per request.
        batch: Scheduler batch slots (also sizes the KV arena).
        rate: Poisson arrival rate (requests per scheduler iteration).
        seed: Master seed (models, arrivals, prompts).
        alignment: SSM/LLM alignment of the toy coupled pair.
        simulate: Also replay one offline generation through the cluster
            cost model (populates ``repro.cluster.*`` metrics).
        fault_rate: Per-site fault-injection probability; 0.0 (default)
            serves without an injector, byte-identical to the pre-fault
            workload.
        fault_seed: Seed for the injector's fault streams; defaults to a
            fixed offset of ``seed`` so fault decisions never perturb the
            workload's own RNG streams.
        planner: Attach a hardware-aware
            :class:`~repro.speculate.planner.TreePlanner` to the manager's
            pipeline — speculation budgets re-solved every tick (populates
            ``repro.planner.*`` metrics).  Greedy token output is identical
            either way; only the tree shapes change.
        pool: Serve with a heterogeneous speculator pool of this many
            coupled members (alignments stepping down from ``alignment``)
            routed per request; 0 (default) keeps the single-SSM path.
            Greedy token output is identical either way — routing only
            changes which member drafts (populates ``repro.router.*``
            metrics).
        router: Routing policy over the pool (``"ucb"``, ``"thompson"``,
            ``"round_robin"``, or ``"fixed:<member>"``); only consulted
            when ``pool >= 2``.
    """

    dataset: str = "Alpaca"
    requests: int = 4
    max_new_tokens: int = 8
    batch: int = 4
    rate: float = 1.0
    seed: int = 7
    alignment: float = 0.88
    simulate: bool = True
    fault_rate: float = 0.0
    fault_seed: Optional[int] = None
    planner: bool = False
    pool: int = 0
    router: str = "ucb"


def _build_toy_pair(alignment: float, seed: int):
    """Toy LLM + coupled-SSM factory (the CLI demo substrate)."""
    from repro.model.config import ModelConfig
    from repro.model.coupled import CoupledSSM
    from repro.model.transformer import TransformerLM

    llm = TransformerLM(
        ModelConfig(vocab_size=96, d_model=48, n_layers=3, n_heads=4,
                    max_seq_len=256, name="obs-llm"),
        seed=seed,
    )

    def ssm_factory():
        return CoupledSSM(llm, alignment=alignment, seed=seed + 1,
                          noise_scale=2.0)

    return llm, ssm_factory


def run_observed_workload(spec: Optional[WorkloadSpec] = None):
    """Serve ``spec`` and return the drained manager.

    Everything downstream of ``spec.seed`` is deterministic; callers that
    want a clean trace/metric state reset the observability globals first
    (:func:`repro.obs.reset_observability`).
    """
    from repro.engine.generation import GenerationConfig
    from repro.engine.pipeline import FusedBackend
    from repro.model.arena import BatchArena
    from repro.serving.manager import RequestManager
    from repro.serving.session import SpeculativeSession, make_routed_factory
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator
    from repro.workloads.arrival import PoissonArrivals, drive_manager
    from repro.workloads.datasets import make_dataset

    spec = spec or WorkloadSpec()
    llm, ssm_factory = _build_toy_pair(spec.alignment, spec.seed)
    arena = BatchArena(llm.config, max_requests=spec.batch)

    router = None
    if spec.pool:
        from repro.speculate.pool import SpeculatorPool
        from repro.speculate.router import RouterConfig, SpeculatorRouter

        if spec.pool < 2:
            raise ValueError("a routed pool needs >= 2 members")
        sp_pool = SpeculatorPool.coupled_spread(
            llm, spec.pool, spec.alignment, seed=spec.seed + 1,
            config=ExpansionConfig.paper_default(),
        )
        router = SpeculatorRouter(
            sp_pool, RouterConfig(policy=spec.router, seed=spec.seed)
        )
        session_factory = make_routed_factory(
            llm, sp_pool, router, cache_factory=arena.new_sequence
        )
    else:
        def session_factory(request):
            return SpeculativeSession(
                request, llm,
                lambda: Speculator([ssm_factory()],
                                   ExpansionConfig.paper_default()),
                cache_factory=arena.new_sequence,
            )

    injector = None
    if spec.fault_rate > 0:
        from repro.faults import FaultInjector

        fault_seed = (spec.fault_seed if spec.fault_seed is not None
                      else spec.seed + 9973)
        injector = FaultInjector(rate=spec.fault_rate, seed=fault_seed)
    planner = None
    if spec.planner:
        from repro.speculate.planner import TreePlanner

        planner = TreePlanner.default()
    manager = RequestManager(
        session_factory,
        max_batch_size=spec.batch,
        backend=FusedBackend(llm, rng=np.random.default_rng(spec.seed)),
        injector=injector,
        planner=planner,
        router=router,
    )
    dataset = make_dataset(spec.dataset, vocab_size=llm.config.vocab_size)
    arrivals = PoissonArrivals(
        rate=spec.rate, dataset=dataset, seed=spec.seed, max_prompt_len=16
    ).schedule(spec.requests)
    drive_manager(
        manager, arrivals,
        GenerationConfig(max_new_tokens=spec.max_new_tokens,
                         stop_on_eos=False),
    )
    if spec.simulate:
        _replay_through_cost_model(llm, ssm_factory, spec)
    return manager


def _replay_through_cost_model(llm, ssm_factory, spec: WorkloadSpec) -> None:
    """One offline generation replayed at paper scale (cluster metrics)."""
    from repro.cluster.cost_model import LatencyModel
    from repro.cluster.hardware import single_node_cluster
    from repro.cluster.models import paper_model
    from repro.cluster.parallel import ParallelPlan
    from repro.cluster.simulator import ServingSimulator
    from repro.engine.generation import GenerationConfig
    from repro.engine.tree_spec import SpecInferEngine
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator

    rng = np.random.default_rng(spec.seed)
    prompt = [int(t) for t in
              rng.integers(1, llm.config.vocab_size, size=8)]
    result = SpecInferEngine(
        llm, Speculator([ssm_factory()], ExpansionConfig.paper_default())
    ).generate(
        prompt,
        GenerationConfig(max_new_tokens=spec.max_new_tokens,
                         stop_on_eos=False),
    )
    cluster = single_node_cluster()
    plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
    simulator = ServingSimulator(
        llm_latency=LatencyModel(paper_model("llama-7b"), plan, cluster),
        ssm_latency=LatencyModel(paper_model("llama-68m"), plan, cluster),
    )
    simulator.replay(result, batch_size=spec.batch)
