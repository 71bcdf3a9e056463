"""Serving runtime (paper section 5.1).

* :mod:`repro.serving.request` -- request lifecycle types.
* :mod:`repro.serving.session` -- per-request decode sessions: a request
  bound to its decode state (with or without a speculator); no pipeline.
* :mod:`repro.serving.manager` -- the request manager: iteration-level
  (Orca-style) scheduling with continuous batching over one decode
  pipeline (:mod:`repro.engine.pipeline`), parameterized by verification
  backend (fused tree pass by default); finished requests leave and waiting
  requests join the batch between iterations.
* :mod:`repro.serving.policies` -- admission-ordering policies (FCFS, SJF,
  priority).
* :mod:`repro.serving.memory` -- KV-cache memory pool and admission control.
* :mod:`repro.serving.metrics` -- TTFT / TPOT / throughput reporting.
* :mod:`repro.serving.gateway` -- the async streaming gateway: bounded
  per-tenant admission queues, weighted round-robin with rate limits, two
  SLO classes, and per-request token streams over the synchronous core.
* :mod:`repro.serving.loop` -- the gateway's asyncio driver (a prefill or
  a decode iteration of the core per cycle).
* :mod:`repro.serving.transport` / :mod:`repro.serving.client` -- the
  localhost TCP/JSONL transport and its streaming client.
* :mod:`repro.serving.loadgen` -- concurrent async load generator
  (``repro loadgen``).

The manager is the pure *synchronous core* (admit / step / retire — used
directly by the replay path); the gateway layers live admission policy and
streaming on top.  See ``docs/serving_gateway.md``.
"""

from repro.engine.pipeline import (
    FusedBackend,
    IncrementalBackend,
    VerificationBackend,
)
from repro.serving.request import Request, RequestOutput, RequestState
from repro.serving.session import (
    DecodeSession,
    IncrementalSession,
    SpeculativeSession,
)
from repro.serving.gateway import (
    AdmissionError,
    GatewayConfig,
    GatewayRequestFailed,
    ServingGateway,
    SloClass,
    StreamEvent,
    TenantConfig,
    TokenStream,
)
from repro.serving.loop import GatewayLoop
from repro.serving.manager import IterationStats, RequestManager
from repro.serving.memory import KvMemoryPool, KvReservation
from repro.serving.metrics import (
    RequestLatency,
    ServingReport,
    build_report,
    report_from_manager,
    request_latency,
)
from repro.serving.policies import (
    fcfs,
    longest_job_first,
    make_preemption_policy,
    make_priority_policy,
    preempt_newest_first,
    preempt_oldest_first,
    shortest_job_first,
)

__all__ = [
    "Request",
    "RequestOutput",
    "RequestState",
    "DecodeSession",
    "IncrementalSession",
    "SpeculativeSession",
    "RequestManager",
    "IterationStats",
    "VerificationBackend",
    "FusedBackend",
    "IncrementalBackend",
    "KvMemoryPool",
    "KvReservation",
    "RequestLatency",
    "ServingReport",
    "build_report",
    "report_from_manager",
    "request_latency",
    "fcfs",
    "shortest_job_first",
    "longest_job_first",
    "make_priority_policy",
    "preempt_newest_first",
    "preempt_oldest_first",
    "make_preemption_policy",
    "AdmissionError",
    "GatewayConfig",
    "GatewayLoop",
    "GatewayRequestFailed",
    "ServingGateway",
    "SloClass",
    "StreamEvent",
    "TenantConfig",
    "TokenStream",
]
