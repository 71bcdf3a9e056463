"""Concurrent async load generator for the serving gateway.

``repro loadgen`` puts the toy serving stack that
:func:`repro.obs.workload.build_workload` builds behind a
:class:`~repro.serving.gateway.ServingGateway` with per-tenant admission
control, and drives it with *real concurrent asyncio clients* spread
across tenants and both SLO classes.  It is the acceptance harness for
the gateway's steady-state properties: admission rejects are counted and
retried (never crash a client), the queue stays bounded at the admission
limit, and the per-class ``repro.gateway.ttft_seconds`` /
``tbt_seconds`` histograms populate.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import REGISTRY
from repro.obs.workload import WorkloadSpec, build_workload
from repro.serving.gateway import (
    AdmissionError,
    GatewayConfig,
    ServingGateway,
    SloClass,
    TenantConfig,
)

#: Client-side retries after a ``queue_full`` admission reject.
MAX_RESUBMITS = 200
#: Client backoff between resubmits (seconds).
RETRY_DELAY = 0.002


@dataclass(frozen=True)
class LoadgenSpec:
    """Parameters for one load-generation run.

    Attributes:
        clients: Concurrent async clients.  Client ``i`` belongs to tenant
            ``tenants[i % len(tenants)]``; the SLO class flips once per
            full tenant rotation, so every (tenant, class) pair sees
            traffic (see :func:`_client_plan`).
        requests_per_client: Sequential requests each client issues.
        tenants: Tenant names; first tenant gets weight 2, the rest 1.
        max_queue_depth: Per-tenant admission queue bound — overflow
            submissions are rejected and retried by the client.
        rate_per_tick: Optional per-tenant admission rate limit.
        workload: The served stack and its requests: prompt dataset,
            generation budget, batch slots, seed, alignment and fault
            rate.  Its ``requests`` and ``rate`` are unused:
            the clients, not an arrival schedule, submit the requests.
    """

    clients: int = 8
    requests_per_client: int = 2
    tenants: Tuple[str, ...] = ("alpha", "beta")
    max_queue_depth: int = 4
    rate_per_tick: Optional[float] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        if len(set(self.tenants)) != len(self.tenants):
            raise ValueError(f"tenant names must be distinct, got "
                             f"{list(self.tenants)}")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.rate_per_tick is not None and self.rate_per_tick <= 0:
            raise ValueError("rate_per_tick must be positive")


@dataclass
class ClientStats:
    """One client's tally."""

    client_id: int
    tenant: str
    slo: SloClass
    completed: int = 0
    failed: int = 0
    dropped: int = 0
    rejections: int = 0
    stalls: int = 0
    tokens: int = 0


@dataclass
class LoadgenReport:
    """Aggregate outcome of one load-generation run.

    ``ttft_counts`` / ``tbt_counts`` are per-SLO-class histogram
    observation counts *from this run* (deltas, not registry totals).
    """

    spec: LoadgenSpec
    clients: List[ClientStats] = field(default_factory=list)
    peak_queue_depth: int = 0
    queue_bound: int = 0
    final_queue_depth: int = 0
    ticks: int = 0
    ttft_counts: Dict[str, int] = field(default_factory=dict)
    tbt_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(c.completed for c in self.clients)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.clients)

    @property
    def dropped(self) -> int:
        return sum(c.dropped for c in self.clients)

    @property
    def rejections(self) -> int:
        return sum(c.rejections for c in self.clients)

    @property
    def stalls(self) -> int:
        return sum(c.stalls for c in self.clients)

    @property
    def tokens(self) -> int:
        return sum(c.tokens for c in self.clients)

    def render(self) -> str:
        """Human-readable run report (the ``repro loadgen`` output)."""
        spec = self.spec
        lines = [
            "gateway load generation",
            f"  clients            : {spec.clients} "
            f"({len(spec.tenants)} tenants, 2 SLO classes)",
            f"  requests           : {spec.clients * spec.requests_per_client}",
            f"  completed          : {self.completed}",
            f"  failed             : {self.failed}",
            f"  dropped            : {self.dropped}",
            f"  admission rejects  : {self.rejections}",
            f"  mid-stream stalls  : {self.stalls}",
            f"  tokens streamed    : {self.tokens}",
            f"  gateway ticks      : {self.ticks}",
            f"  peak queue depth   : {self.peak_queue_depth} "
            f"(bound {self.queue_bound})",
            f"  final queue depth  : {self.final_queue_depth}",
        ]
        for slo in SloClass:
            lines.append(
                f"  ttft samples {slo.value:<11}: "
                f"{self.ttft_counts.get(slo.value, 0)}")
        for slo in SloClass:
            lines.append(
                f"  tbt samples {slo.value:<12}: "
                f"{self.tbt_counts.get(slo.value, 0)}")
        return "\n".join(lines)


def _client_plan(spec: LoadgenSpec) -> List[ClientStats]:
    """Deterministic (tenant, SLO) assignment for each client.

    Tenants rotate per client while the SLO class flips once per full
    tenant rotation, so the two dimensions stay decorrelated and every
    (tenant, class) pair sees traffic once ``clients >= 2 * len(tenants)``.
    """
    return [
        ClientStats(
            client_id=i,
            tenant=spec.tenants[i % len(spec.tenants)],
            slo=(SloClass.INTERACTIVE
                 if (i // len(spec.tenants)) % 2 == 0 else SloClass.BATCH),
        )
        for i in range(spec.clients)
    ]


async def _run_client(gateway: ServingGateway, spec: LoadgenSpec,
                      stats: ClientStats,
                      prompts: List[List[int]]) -> None:
    """One client: submit sequentially, retry rejects, stream each reply."""
    config = spec.workload.generation_config()
    for prompt in prompts:
        stream = None
        for _ in range(MAX_RESUBMITS + 1):
            try:
                stream = await gateway.submit(
                    prompt, config, tenant=stats.tenant, slo=stats.slo)
                break
            except AdmissionError as exc:
                if exc.reason != "queue_full":
                    raise
                stats.rejections += 1
                await asyncio.sleep(RETRY_DELAY)
        if stream is None:
            stats.dropped += 1
            continue
        failed = False
        async for event in stream:
            if event.kind == "token":
                stats.tokens += 1
            elif event.kind == "stall":
                stats.stalls += 1
            elif event.kind == "failed":
                failed = True
        if failed:
            stats.failed += 1
        else:
            stats.completed += 1


def _histogram_counts(stem: str) -> Dict[str, int]:
    return {
        slo.value: getattr(
            REGISTRY.get(f"repro.gateway.{stem}.{slo.value}"), "count", 0)
        for slo in SloClass
    }


async def run_loadgen(spec: Optional[LoadgenSpec] = None) -> LoadgenReport:
    """Run the load generator; returns the aggregate report."""
    from repro.workloads.datasets import make_dataset

    spec = spec or LoadgenSpec()
    manager, _ = build_workload(spec.workload)
    tenants = {
        name: TenantConfig(
            name=name,
            weight=2 if i == 0 else 1,
            max_queue_depth=spec.max_queue_depth,
            rate_per_tick=spec.rate_per_tick,
        )
        for i, name in enumerate(spec.tenants)
    }
    gateway = ServingGateway(manager, GatewayConfig(tenants=tenants))
    vocab = manager.backend.model.config.vocab_size
    dataset = make_dataset(spec.workload.dataset, vocab_size=vocab)
    clients = _client_plan(spec)
    # Pre-sample prompts so dataset RNG order does not depend on task
    # interleaving (the run stays seed-determined up to timing).
    prompts = [
        [
            [int(t) for t in dataset.sample_prompt(max_len=12)]
            for _ in range(spec.requests_per_client)
        ]
        for _ in clients
    ]
    ttft_before = _histogram_counts("ttft_seconds")
    tbt_before = _histogram_counts("tbt_seconds")
    await gateway.start()
    try:
        await asyncio.gather(*[
            _run_client(gateway, spec, stats, prompts[i])
            for i, stats in enumerate(clients)
        ])
    finally:
        await gateway.stop()
    ttft_after = _histogram_counts("ttft_seconds")
    tbt_after = _histogram_counts("tbt_seconds")
    return LoadgenReport(
        spec=spec,
        clients=clients,
        peak_queue_depth=gateway.peak_queue_depth,
        queue_bound=spec.max_queue_depth * len(spec.tenants),
        final_queue_depth=gateway.queue_depth,
        ticks=gateway.ticks,
        ttft_counts={
            k: ttft_after[k] - ttft_before.get(k, 0) for k in ttft_after},
        tbt_counts={
            k: tbt_after[k] - tbt_before.get(k, 0) for k in tbt_after},
    )
