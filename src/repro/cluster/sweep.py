"""What-if sweeps over the hardware cost model.

Deployment questions the paper's evaluation touches implicitly — how many
GPUs to give the LLM, how deep to speculate, how small the SSM can be —
answered systematically against the cost model, without running the
algorithms.  Each sweep returns plain data (lists of points) so benchmarks
and notebooks can render them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.cost_model import LatencyModel
from repro.cluster.hardware import ClusterSpec
from repro.cluster.parallel import ParallelPlan
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep.

    Attributes:
        x: The swept value (TP degree, depth, ...).
        latency: Per-token latency in seconds.
        label: Human-readable description of the point.
    """

    x: float
    latency: float
    label: str


def sweep_tensor_parallel(
    model: ModelConfig,
    cluster: ClusterSpec,
    context_tokens: int = 128,
    batch_size: int = 1,
) -> List[SweepPoint]:
    """Incremental per-token latency vs TP degree (within one node; a
    degree that does not fit or does not divide the heads is skipped).

    Shows the diminishing return the paper's placements reflect: weight
    reads shrink with TP but all-reduce costs grow, so small models stop
    benefiting early.
    """
    points = []
    for tp in range(1, cluster.node.gpus_per_node + 1):
        plan = ParallelPlan(tensor_parallel=tp)
        try:
            latency_model = LatencyModel(model, plan, cluster)
        except ValueError:
            continue  # not a valid placement at this degree
        latency = latency_model.step_latency(
            batch_size, batch_size * context_tokens
        )
        points.append(SweepPoint(x=tp, latency=latency, label=f"tp={tp}"))
    if not points:
        raise ValueError(f"{model.name} fits no TP degree on this cluster")
    return points


def expected_tokens_per_step(alpha: float, depth: int) -> float:
    """Expected emitted tokens per LLM step for sequence speculation.

    Speculative decoding theory (Leviathan et al.): with per-token
    acceptance rate ``alpha``, a step accepts exactly k of L speculated
    tokens with probability ``alpha^k (1 - alpha)`` for ``k < L`` and
    ``alpha^L`` for ``k = L``, so it emits ``(1 - alpha^(L+1)) / (1 - alpha)``
    tokens on average (including the bonus token).

    Args:
        alpha: Per-token acceptance probability, in [0, 1].
        depth: Speculation length L.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if alpha == 1.0:
        return float(depth + 1)
    return float((1 - alpha ** (depth + 1)) / (1 - alpha))


def sweep_speculation_depth(
    llm: ModelConfig,
    ssm: ModelConfig,
    cluster: ClusterSpec,
    alpha: float,
    plan: Optional[ParallelPlan] = None,
    max_depth: int = 16,
    context_tokens: int = 128,
    tree_width: int = 3,
) -> List[SweepPoint]:
    """Predicted per-token latency vs speculation depth.

    Combines the acceptance closed form (``expected_tokens_per_step``) with
    the cost model: deeper speculation emits more tokens per step but costs
    more SSM steps and a bigger verification pass.  The minimum of this
    curve is the model-pair's optimal depth — the planning calculation
    behind the paper's choice of 8.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    plan = plan or ParallelPlan.for_model(llm, cluster)
    llm_latency = LatencyModel(llm, plan, cluster)
    ssm_latency = LatencyModel(ssm, ParallelPlan(), cluster)
    points = []
    for depth in range(1, max_depth + 1):
        tokens_per_step = expected_tokens_per_step(alpha, depth)
        tree_tokens = 1 + depth + (tree_width - 1)  # root + chain + branch
        verify = llm_latency.step_latency(
            tree_tokens, context_tokens + tree_tokens
        )
        speculate = depth * ssm_latency.step_latency(1, context_tokens)
        points.append(
            SweepPoint(
                x=depth,
                latency=(verify + speculate) / tokens_per_step,
                label=f"depth={depth}",
            )
        )
    return points


def sweep_ssm_size(
    llm: ModelConfig,
    cluster: ClusterSpec,
    alpha_by_scale: dict,
    plan: Optional[ParallelPlan] = None,
    depth: int = 8,
    context_tokens: int = 128,
) -> List[SweepPoint]:
    """Per-token latency vs SSM size, given alignment at each scale.

    Args:
        alpha_by_scale: Maps an SSM scale factor (fraction of LLM width) to
            the acceptance rate a pair at that scale achieves — bigger SSMs
            align better but cost more per speculation step.  The sweep
            exposes the sweet spot (the paper's 100-1000x size gap).
    """
    plan = plan or ParallelPlan.for_model(llm, cluster)
    llm_latency = LatencyModel(llm, plan, cluster)
    points = []
    for scale, alpha in sorted(alpha_by_scale.items()):
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        heads = max(1, int(llm.n_heads * scale))
        d_model = max(heads, int(llm.d_model * scale) // heads * heads)
        ssm = llm.scaled(
            d_model=d_model,
            n_heads=heads,
            n_layers=max(1, int(llm.n_layers * scale)),
            name=f"{llm.name}-x{scale}",
        )
        ssm_latency = LatencyModel(ssm, ParallelPlan(), cluster)
        tokens_per_step = expected_tokens_per_step(alpha, depth)
        verify = llm_latency.step_latency(
            1 + depth + 2, context_tokens + depth + 3
        )
        speculate = depth * ssm_latency.step_latency(1, context_tokens)
        points.append(
            SweepPoint(
                x=scale,
                latency=(verify + speculate) / tokens_per_step,
                label=f"ssm-scale={scale} (alpha={alpha})",
            )
        )
    return points


def best_point(points: List[SweepPoint]) -> SweepPoint:
    """The sweep's latency-minimizing configuration."""
    if not points:
        raise ValueError("empty sweep")
    return min(points, key=lambda p: p.latency)
