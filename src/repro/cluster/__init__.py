"""Simulated hardware substrate: GPUs, clusters, parallelism, offloading.

The paper's latency evaluation (Figures 7, 8, 10, 11) runs LLaMA/OPT models
on AWS g5.12xlarge nodes (4x NVIDIA A10 24GB, 100 Gbps Ethernet).  Offline,
this package replaces the testbed with a first-order analytic model:

* :mod:`repro.cluster.hardware` -- device and cluster specs (A10 datasheet),
* :mod:`repro.cluster.models` -- paper-scale model descriptors
  (LLaMA-7B/65B, OPT-13B/30B and their SSMs) expressed as
  :class:`~repro.model.config.ModelConfig` so parameter counts are exact,
* :mod:`repro.cluster.parallel` -- Megatron-style tensor/pipeline
  parallelization plans with memory-fit validation,
* :mod:`repro.cluster.cost_model` -- roofline per-step latency (weight
  traffic, KV traffic, compute, kernel overhead, TP/PP communication),
* :mod:`repro.cluster.offload` -- FlexGen-style offloading step latency,
* :mod:`repro.cluster.simulator` -- replays the *measured* per-step traces
  of the algorithmic engines through the cost model to produce end-to-end
  per-token latencies for each serving system configuration.

The split matters: acceptance statistics (how many tokens each verification
step commits) come from real algorithm runs on the NumPy models; only the
*hardware timing* is modeled.
"""

from repro.cluster.hardware import (
    A10_GPU,
    AWS_G5_NODE,
    ClusterSpec,
    GpuSpec,
    NodeSpec,
    single_node_cluster,
    two_node_cluster,
)
from repro.cluster.models import PAPER_MODELS, paper_model
from repro.cluster.parallel import ParallelPlan
from repro.cluster.cost_model import LatencyModel, StepCost
from repro.cluster.offload import OffloadLatencyModel, OffloadSpec
from repro.cluster.simulator import (
    ServingSimulator,
    SimulatedLatency,
    SystemKind,
)

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "ClusterSpec",
    "A10_GPU",
    "AWS_G5_NODE",
    "single_node_cluster",
    "two_node_cluster",
    "PAPER_MODELS",
    "paper_model",
    "ParallelPlan",
    "LatencyModel",
    "StepCost",
    "OffloadSpec",
    "OffloadLatencyModel",
    "ServingSimulator",
    "SimulatedLatency",
    "SystemKind",
]
