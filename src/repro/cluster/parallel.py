"""Megatron-style parallelization plans (paper section 5.1).

SpecInfer serves the LLM with tensor model parallelism *within* a node and
pipeline model parallelism *across* nodes; SSMs are small enough to fit on a
single GPU and are replicated with data parallelism.  A
:class:`ParallelPlan` captures one such placement and knows how to validate
itself against a model and a cluster (degree fits the node and divides the
attention heads, per-GPU weights fit in HBM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.hardware import ClusterSpec
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class ParallelPlan:
    """Tensor/pipeline parallel placement for one LLM.

    Attributes:
        tensor_parallel: TP degree (GPUs per pipeline stage; intra-node).
        pipeline_stages: PP degree (one stage per node in the paper's setup).
        bytes_per_param: Serving precision (2 = FP16).
    """

    tensor_parallel: int = 1
    pipeline_stages: int = 1
    bytes_per_param: int = 2

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1 or self.pipeline_stages < 1:
            raise ValueError("parallel degrees must be >= 1")
        if self.bytes_per_param not in (1, 2, 4):
            raise ValueError("bytes_per_param must be 1, 2 or 4")

    @property
    def total_gpus(self) -> int:
        return self.tensor_parallel * self.pipeline_stages

    def weight_bytes_per_gpu(self, model: ModelConfig) -> float:
        """Model weight bytes resident on each GPU."""
        total = model.num_parameters() * self.bytes_per_param
        return total / self.total_gpus

    def layers_per_stage(self, model: ModelConfig) -> float:
        """Transformer layers per pipeline stage."""
        return model.n_layers / self.pipeline_stages

    def validate(self, model: ModelConfig, cluster: ClusterSpec,
                 kv_budget_fraction: float = 0.3) -> None:
        """Check the plan fits the cluster; raises ``ValueError`` otherwise.

        Args:
            model: The model being placed.
            cluster: The target cluster.
            kv_budget_fraction: Fraction of HBM reserved for KV cache and
                activations; weights must fit in the remainder.
        """
        if self.tensor_parallel > cluster.node.gpus_per_node:
            raise ValueError(
                f"tensor parallel degree {self.tensor_parallel} exceeds "
                f"{cluster.node.gpus_per_node} GPUs per node"
            )
        if model.n_heads % self.tensor_parallel:
            # Megatron-style sharding splits attention by whole heads.
            raise ValueError(
                f"tensor parallel degree {self.tensor_parallel} does not "
                f"divide {model.name}'s {model.n_heads} attention heads"
            )
        if self.pipeline_stages > cluster.num_nodes:
            raise ValueError(
                f"pipeline stages {self.pipeline_stages} exceed "
                f"{cluster.num_nodes} nodes"
            )
        budget = cluster.gpu.hbm_bytes * (1 - kv_budget_fraction)
        per_gpu = self.weight_bytes_per_gpu(model)
        if per_gpu > budget:
            raise ValueError(
                f"{model.name} needs {per_gpu / 1e9:.1f} GB weights per GPU "
                f"under plan tp={self.tensor_parallel} pp="
                f"{self.pipeline_stages}, but only {budget / 1e9:.1f} GB of "
                f"HBM is available for weights"
            )

    @classmethod
    def for_model(cls, model: ModelConfig, cluster: ClusterSpec,
                  bytes_per_param: int = 2) -> "ParallelPlan":
        """Smallest valid plan: grow TP within a node, then PP across nodes."""
        for pp in range(1, cluster.num_nodes + 1):
            for tp in range(1, cluster.node.gpus_per_node + 1):
                plan = cls(tensor_parallel=tp, pipeline_stages=pp,
                           bytes_per_param=bytes_per_param)
                try:
                    plan.validate(model, cluster)
                    return plan
                except ValueError:
                    continue
        raise ValueError(
            f"{model.name} does not fit on the cluster at any supported "
            f"parallelization"
        )
