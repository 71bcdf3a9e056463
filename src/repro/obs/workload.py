"""The toy serving stack every ``repro`` serving verb builds and drives.

``repro trace`` and ``repro metrics`` need a workload that (a) exercises
every instrumented layer — the four pipeline phases, a fused verification
backend, continuous-batching admission/retirement and the shared KV arena —
and (b) is fully determined by its seed, so the exported trace is
byte-identical across runs.  This module is that workload: a Poisson
arrival schedule of dataset prompts served by a
:class:`~repro.serving.manager.RequestManager` over a
:class:`~repro.model.kv_cache.BatchArena`.  Everything it records is
measured or counted on the host that runs it; modeled A10 seconds stay
with the paper-figure benchmarks (:mod:`repro.cluster.simulator`).

:func:`build_workload` is the one place the stack is built.  ``serve``,
``chat --local`` and ``loadgen`` put its manager behind a gateway or drive
it with :func:`run_observed_workload`, the same code path the trace golden
tests and ``benchmarks/ci_gate.py`` observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.serving.manager import RequestManager
    from repro.workloads.arrival import Arrival

#: The fault injector's seed is the workload seed plus this offset, so
#: fault decisions never perturb the workload's own RNG streams.
FAULT_SEED_OFFSET = 9973


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
        fault_rate: Per-site fault-injection probability; 0.0 (default)
            serves without an injector, byte-identical to the pre-fault
            workload.
        planner: Attach a hardware-aware
            :class:`~repro.speculate.planner.TreePlanner` to the manager's
            pipeline — speculation budgets re-solved every tick (populates
            ``repro.planner.*`` metrics).  Greedy token output is identical
            either way; only the tree shapes change.

    Raises:
        ValueError: ``requests``, ``max_new_tokens`` or ``batch`` below 1,
            a non-positive ``rate``, a negative ``seed``, an ``alignment``
            outside [0, 1], or an unknown ``dataset``.
    """

    dataset: str = "Alpaca"
    requests: int = 4
    max_new_tokens: int = 8
    batch: int = 4
    rate: float = 1.0
    seed: int = 7
    alignment: float = 0.88
    fault_rate: float = 0.0
    planner: bool = False

    def __post_init__(self) -> None:
        from repro.workloads.datasets import DATASET_NAMES

        for name in ("requests", "max_new_tokens", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        _check_toy_pair(self.alignment, self.seed)
        if not 0 <= self.fault_rate <= 1:
            raise ValueError(f"fault_rate must be in [0, 1], got "
                             f"{self.fault_rate}")
        if self.dataset not in DATASET_NAMES:
            raise ValueError(f"unknown dataset {self.dataset!r}; "
                             f"expected one of {', '.join(DATASET_NAMES)}")

    def generation_config(self):
        """Every request's config: ``max_new_tokens``, no EOS stop."""
        from repro.engine.generation import GenerationConfig

        return GenerationConfig(max_new_tokens=self.max_new_tokens,
                                stop_on_eos=False)


def _check_toy_pair(alignment: float, seed: int) -> None:
    """Reject a seed or an alignment the toy pair cannot be built from."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= alignment <= 1:
        raise ValueError(f"alignment must be in [0, 1], got {alignment}")


def _build_toy_pair(alignment: float, seed: int):
    """Toy LLM + coupled-SSM factory (the substrate of every CLI verb)."""
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


def build_workload(
        spec: WorkloadSpec) -> Tuple["RequestManager", List["Arrival"]]:
    """The toy serving stack for ``spec`` and its arrival schedule.

    Returns ``(manager, arrivals)``: a
    :class:`~repro.serving.manager.RequestManager` whose sessions draft
    with the toy coupled SSM into one
    :class:`~repro.model.kv_cache.BatchArena`, verified by a seeded
    :class:`~repro.engine.pipeline.FusedBackend`; and the seeded Poisson
    schedule of ``spec.requests`` dataset prompts.  Nothing has run yet.
    """
    from repro.engine.pipeline import FusedBackend
    from repro.model.kv_cache import BatchArena
    from repro.serving.manager import RequestManager
    from repro.serving.session import SpeculativeSession
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator
    from repro.workloads.arrival import PoissonArrivals
    from repro.workloads.datasets import make_dataset

    llm, ssm_factory = _build_toy_pair(spec.alignment, spec.seed)
    arena = BatchArena(llm.config, max_requests=spec.batch)

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

        injector = FaultInjector(rate=spec.fault_rate,
                                 seed=spec.seed + FAULT_SEED_OFFSET)
    planner = None
    if spec.planner:
        from repro.speculate.planner import TreePlanner

        planner = TreePlanner()
    manager = RequestManager(
        session_factory,
        max_batch_size=spec.batch,
        backend=FusedBackend(llm, rng=np.random.default_rng(spec.seed)),
        injector=injector,
        planner=planner,
    )
    dataset = make_dataset(spec.dataset, vocab_size=llm.config.vocab_size)
    arrivals = PoissonArrivals(
        rate=spec.rate, dataset=dataset, seed=spec.seed, max_prompt_len=16
    ).schedule(spec.requests)
    return manager, arrivals


def run_observed_workload(spec: Optional[WorkloadSpec] = None):
    """Serve ``spec`` and return the drained manager.

    Replays the arrival schedule through :func:`build_workload`'s manager.
    Everything downstream of ``spec.seed`` is deterministic; callers that
    want a clean trace/metric state reset the observability globals first
    (:func:`repro.obs.reset_observability`).
    """
    from repro.workloads.arrival import drive_manager

    spec = spec or WorkloadSpec()
    manager, arrivals = build_workload(spec)
    drive_manager(manager, arrivals, spec.generation_config())
    return manager
