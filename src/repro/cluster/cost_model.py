"""Roofline step-latency model for LLM decoding on modeled hardware.

One decoding step (incremental token or tree-verification pass) costs, per
pipeline stage:

* **weight traffic** — every parameter on the stage's GPUs is read once
  (the dominant term for small batches; paper section 2's "reduced memory
  accesses" argument is about amortizing exactly this),
* **KV traffic** — the attention reads cached keys/values for every live
  context token of every request in the batch,
* **compute** — ~2 FLOPs per parameter per scored token,
* **kernel overhead** — fixed per-launch cost times launches per stage,
* **TP communication** — two all-reduces of the activations per layer,
* **PP communication** — activations cross the network between stages.

The stage time is ``max(memory, compute) + overhead + tp_comm`` (memory and
compute overlap on GPUs; overheads do not), and stages of a pipeline are
sequential for a single decoding step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.hardware import ClusterSpec
from repro.cluster.models import kv_bytes_per_token
from repro.cluster.parallel import ParallelPlan
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class StepCost:
    """Latency breakdown of one decoding step (seconds)."""

    weight_time: float
    kv_time: float
    compute_time: float
    overhead_time: float
    tp_comm_time: float
    pp_comm_time: float

    @property
    def total(self) -> float:
        """Stage-combined step latency (memory/compute overlapped)."""
        return (
            max(self.weight_time + self.kv_time, self.compute_time)
            + self.overhead_time
            + self.tp_comm_time
            + self.pp_comm_time
        )


class LatencyModel:
    """Analytic decoding-step latency for a (model, plan, cluster) triple.

    Args:
        model: Paper-scale architecture descriptor.
        plan: Parallelization plan (validated against ``cluster``).
        cluster: Target hardware.
        kernels_per_layer: GEMM/attention kernel launches per transformer
            layer per step (fused implementations use fewer; SpecInfer's
            fused tree kernel motivates making this explicit).
    """

    def __init__(
        self,
        model: ModelConfig,
        plan: ParallelPlan,
        cluster: ClusterSpec,
        kernels_per_layer: int = 6,
    ):
        plan.validate(model, cluster)
        self.model = model
        self.plan = plan
        self.cluster = cluster
        self.kernels_per_layer = kernels_per_layer

    # -- components -------------------------------------------------------------

    def _weight_time_per_stage(self) -> float:
        per_gpu = self.plan.weight_bytes_per_gpu(self.model)
        return per_gpu / self.cluster.gpu.sustained_bandwidth

    def _kv_time_per_stage(self, context_tokens: int) -> float:
        bytes_total = context_tokens * kv_bytes_per_token(
            self.model, self.plan.bytes_per_param
        )
        per_gpu = bytes_total / self.plan.total_gpus
        return per_gpu / self.cluster.gpu.sustained_bandwidth

    def _compute_time_per_stage(self, scored_tokens: int) -> float:
        flops = 2.0 * self.model.num_parameters() * scored_tokens
        per_gpu = flops / self.plan.total_gpus
        return per_gpu / self.cluster.gpu.sustained_flops

    def _overhead_per_stage(self, num_kernel_batches: int) -> float:
        layers = self.plan.layers_per_stage(self.model)
        launches = layers * self.kernels_per_layer * num_kernel_batches
        return launches * self.cluster.gpu.kernel_overhead

    def _tp_comm_per_stage(self, scored_tokens: int) -> float:
        tp = self.plan.tensor_parallel
        if tp == 1:
            return 0.0
        node = self.cluster.node
        layers = self.plan.layers_per_stage(self.model)
        volume = (
            scored_tokens * self.model.d_model * self.plan.bytes_per_param
        )
        # Ring all-reduce moves 2(tp-1)/tp of the volume; two all-reduces
        # per layer (post-attention, post-MLP).
        per_allreduce = (
            volume * 2 * (tp - 1) / tp / node.intra_node_bandwidth
            + node.intra_node_latency
        )
        return 2 * layers * per_allreduce

    def _pp_comm(self, scored_tokens: int) -> float:
        pp = self.plan.pipeline_stages
        if pp == 1:
            return 0.0
        volume = (
            scored_tokens * self.model.d_model * self.plan.bytes_per_param
        )
        per_boundary = (
            volume / self.cluster.inter_node_bandwidth
            + self.cluster.inter_node_latency
        )
        return (pp - 1) * per_boundary

    # -- public API ---------------------------------------------------------------

    def step_cost(
        self,
        scored_tokens: int,
        context_tokens: int,
        num_kernel_batches: int = 1,
    ) -> StepCost:
        """Latency breakdown for one decoding step.

        Args:
            scored_tokens: Token positions the step scores, summed over the
                batch (incremental: batch size; tree verification: sum of
                tree sizes).
            context_tokens: Live KV-cache tokens read, summed over the batch.
            num_kernel_batches: Independent kernel sweeps the step needs
                (tree-based decoding: 1; sequence-based decoding of a tree:
                one per root-to-leaf sequence — the Figure 11 distinction).
        """
        if scored_tokens < 1:
            raise ValueError("scored_tokens must be >= 1")
        pp = self.plan.pipeline_stages
        per_stage = StepCost(
            weight_time=self._weight_time_per_stage(),
            kv_time=self._kv_time_per_stage(context_tokens),
            compute_time=self._compute_time_per_stage(scored_tokens),
            overhead_time=self._overhead_per_stage(num_kernel_batches),
            tp_comm_time=self._tp_comm_per_stage(scored_tokens),
            pp_comm_time=0.0,
        )
        return StepCost(
            weight_time=per_stage.weight_time * pp,
            kv_time=per_stage.kv_time * pp,
            compute_time=per_stage.compute_time * pp,
            overhead_time=per_stage.overhead_time * pp,
            tp_comm_time=per_stage.tp_comm_time * pp,
            pp_comm_time=self._pp_comm(scored_tokens),
        )

    def verify_seconds(
        self,
        batch_size: int,
        tree_tokens: int,
        context_len: int,
    ) -> float:
        """Latency of one batched tree-verification pass.

        Every request in the batch scores a ``tree_tokens``-node tree (the
        pending root plus the speculated tokens) on top of a
        ``context_len``-token verified prefix; the tree rows themselves are
        live KV during the pass, so they count toward the attention reads.

        Args:
            batch_size: Requests verified in the fused pass.
            tree_tokens: Scored tree nodes per request (>= 1; incremental
                decoding is ``tree_tokens=1``).
            context_len: Verified prefix length per request.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if tree_tokens < 1:
            raise ValueError("tree_tokens must be >= 1")
        return self.step_latency(
            batch_size * tree_tokens,
            batch_size * (context_len + tree_tokens),
        )

    def step_latency(
        self,
        scored_tokens: int,
        context_tokens: int,
        num_kernel_batches: int = 1,
    ) -> float:
        """Scalar step latency in seconds (see :meth:`step_cost`)."""
        # Stage times combine memory/compute by max *per stage*; summing the
        # component maxima stage-by-stage is equivalent for homogeneous
        # stages, which ours are.
        pp = self.plan.pipeline_stages
        per_stage_cost = self.step_cost(
            scored_tokens, context_tokens, num_kernel_batches
        )
        per_stage_total = (
            max(
                (per_stage_cost.weight_time + per_stage_cost.kv_time) / pp,
                per_stage_cost.compute_time / pp,
            )
            + per_stage_cost.overhead_time / pp
            + per_stage_cost.tp_comm_time / pp
        )
        return per_stage_total * pp + per_stage_cost.pp_comm_time
