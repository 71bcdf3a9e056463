"""Serving simulator: replay algorithm traces through the cost models.

The algorithmic engines (``repro.engine``) produce per-step traces —
tree sizes, accepted-token counts, SSM steps — from *real* runs on the
NumPy models.  This module converts those traces into end-to-end per-token
latencies for each serving-system configuration the paper compares
(Figure 7's six systems, Figure 8's offloading pair, Figures 10/11's
ablations).

The batch model matches the paper's benchmark methodology: a batch of B
requests with identical workload statistics advances in lock-step
iterations (continuous batching keeps the batch full), so a step scores
``B x per-request tokens`` and reads ``B x per-request context``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.cluster.cost_model import LatencyModel
from repro.cluster.offload import OffloadLatencyModel
from repro.engine.generation import GenerationResult, StepTrace


class SystemKind(enum.Enum):
    """Serving systems compared in Figure 7."""

    INCREMENTAL = "incremental"  # vLLM / TGI / FasterTransformer / ours-incr
    SEQUENCE_SPEC = "sequence-spec"  # sequence-based speculative inference
    TREE_SPEC = "tree-spec"  # SpecInfer


@dataclass(frozen=True)
class SimulatedLatency:
    """End-to-end simulated latency of one replayed generation.

    Attributes:
        total_seconds: Modeled serial seconds for the generation(s).  For a
            single :meth:`ServingSimulator.replay` this is one request's
            wall-clock (the batch advances together).  For
            :meth:`ServingSimulator.replay_many` it is the *sum* across
            requests — a throughput/accounting total, **not** batch
            wall-clock; see ``batch_wall_seconds``.
        tokens: Tokens generated (summed across requests for aggregates).
        spec_seconds: Time spent in SSM speculation.
        verify_seconds: Time spent in LLM decoding/verification steps.
        batch_wall_seconds: Wall-clock of the slowest request when this
            latency aggregates concurrent requests (``replay_many``);
            ``None`` for a single-request replay.
    """

    total_seconds: float
    tokens: int
    spec_seconds: float
    verify_seconds: float
    batch_wall_seconds: Optional[float] = None

    @property
    def per_token_seconds(self) -> float:
        return self.total_seconds / max(self.tokens, 1)

    @property
    def per_token_ms(self) -> float:
        return self.per_token_seconds * 1e3


class ServingSimulator:
    """Replays generation traces under a hardware model.

    Args:
        llm_latency: Step-latency model for the LLM — either a distributed
            :class:`LatencyModel` or an :class:`OffloadLatencyModel`.
        ssm_latency: Step-latency model for the SSM (single GPU); ``None``
            for incremental-only simulation.
    """

    def __init__(
        self,
        llm_latency: Union[LatencyModel, OffloadLatencyModel],
        ssm_latency: Optional[LatencyModel] = None,
    ):
        self.llm_latency = llm_latency
        self.ssm_latency = ssm_latency

    def replay(
        self,
        result: GenerationResult,
        batch_size: int = 1,
        sequence_based_decoding: bool = False,
    ) -> SimulatedLatency:
        """Simulate one generation trace.

        Args:
            result: Trace from an algorithmic engine run.
            batch_size: Concurrent identical-statistics requests.
            sequence_based_decoding: Model the Figure 11 baseline — the
                speculated tree is decoded as independent root-to-leaf
                sequences (more kernels, redundant prefix computation)
                instead of SpecInfer's single fused tree kernel.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        spec_seconds = 0.0
        verify_seconds = 0.0
        for step in result.steps:
            spec_seconds += self._spec_time(step, batch_size)
            verify_seconds += self._verify_time(
                step, batch_size, sequence_based_decoding
            )
        return SimulatedLatency(
            total_seconds=spec_seconds + verify_seconds,
            tokens=result.num_tokens,
            spec_seconds=spec_seconds,
            verify_seconds=verify_seconds,
        )

    def replay_many(
        self,
        results: Sequence[GenerationResult],
        batch_size: int = 1,
        sequence_based_decoding: bool = False,
    ) -> SimulatedLatency:
        """Aggregate replay over several requests.

        The returned ``total_seconds`` is the **sum** of each request's
        serial seconds — the right denominator-weighting for the
        ``per_token_seconds`` property, which then equals the token-weighted
        mean per-token latency across requests.  It is *not* the wall-clock
        of running the requests concurrently; that is the slowest request's
        time and is reported as ``batch_wall_seconds``.
        """
        if not results:
            raise ValueError("results must be non-empty")
        sims = [
            self.replay(r, batch_size, sequence_based_decoding)
            for r in results
        ]
        return SimulatedLatency(
            total_seconds=float(sum(s.total_seconds for s in sims)),
            tokens=int(sum(s.tokens for s in sims)),
            spec_seconds=float(sum(s.spec_seconds for s in sims)),
            verify_seconds=float(sum(s.verify_seconds for s in sims)),
            batch_wall_seconds=float(max(s.total_seconds for s in sims)),
        )

    # -- internals -----------------------------------------------------------------

    def _spec_time(self, step: StepTrace, batch_size: int) -> float:
        if step.ssm_steps == 0:
            return 0.0
        if self.ssm_latency is None:
            raise ValueError(
                "trace contains speculation steps but no SSM latency model "
                "was provided"
            )
        # Each sequential SSM step scores roughly (tree width) tokens per
        # request; the frontier averages tree_size / depth.
        width = max(1, round(step.tree_size / max(step.tree_depth, 1)))
        scored = batch_size * width
        context = batch_size * (step.prefix_len + step.tree_depth)
        per_step = self.ssm_latency.step_latency(scored, context)
        return step.ssm_steps * per_step

    def _verify_time(
        self, step: StepTrace, batch_size: int, sequence_based: bool
    ) -> float:
        if sequence_based and step.tree_size > 0:
            # The baseline decodes each root-to-leaf path as its own
            # sequence, so the KV context it reads covers the redundant
            # per-path tokens (tree_path_tokens), not the deduplicated
            # tree positions the fused kernel scores.
            scored = batch_size * max(step.tree_path_tokens, 1)
            kernels = max(step.tree_leaves, 1)
            context = batch_size * (
                step.prefix_len + max(step.tree_path_tokens, 1)
            )
        else:
            scored = batch_size * max(step.llm_tokens_scored, 1)
            kernels = 1
            context = batch_size * (
                step.prefix_len + max(step.llm_tokens_scored, 1)
            )
        if isinstance(self.llm_latency, OffloadLatencyModel):
            return self.llm_latency.step_latency(scored, context)
        return self.llm_latency.step_latency(
            scored, context, num_kernel_batches=kernels
        )


def mean_tokens_per_step(results: Sequence[GenerationResult]) -> float:
    """Average verified tokens per decoding step across requests (Table 2)."""
    counts = [
        step.tokens_emitted for result in results for step in result.steps
    ]
    if not counts:
        return 0.0
    return float(np.mean(counts))
