"""Shared generation types: configs, per-step traces, results.

The :class:`StepTrace` records are the interface between the algorithmic
layer (which decides *how many* LLM/SSM steps a request needs and how large
each verification pass is) and the cluster cost model (which converts those
counts into simulated wall-clock latency on modeled hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.model.sampling import SamplingConfig


@dataclass(frozen=True)
class GenerationConfig:
    """Bounds and decoding mode for one generation run.

    Attributes:
        max_new_tokens: Hard cap on generated tokens (the paper truncates at
            128 — SpecInfer can overshoot within a step, then truncates).
        sampling: Greedy or stochastic decoding configuration.
        stop_on_eos: Whether to stop at the model's EOS token.
        seed: RNG seed for stochastic decoding.
    """

    max_new_tokens: int = 128
    sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(greedy=True))
    stop_on_eos: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )


@dataclass
class StepTrace:
    """Cost-relevant facts about one LLM decoding step.

    Attributes:
        llm_tokens_scored: Token positions the LLM scores this step in
            one fused pass (1 for incremental decoding; tree size for tree
            verification).  It feeds the modelled one-pass A10 cost
            (``repro.cluster``), so it stays the tree size even though the
            host's verifier forwards only the trunk and the accepted
            fan-out child's subtree; ``repro.verify.fused.tokens_scored``
            counts the rows actually forwarded.
        tokens_emitted: Tokens the step accepted: the verified path plus
            the bonus token.  Counted before the token budget or an EOS
            stop truncates them, so it can exceed what the step appended
            to the output (``repro.engine.tokens_emitted`` counts those).
        ssm_steps: Sequential SSM decode steps spent speculating (0 for
            incremental decoding).
        tree_size: Nodes in the speculated tree (0 for incremental).
        tree_depth: Depth of the speculated tree.
        tree_leaves: Root-to-leaf sequences in the tree — the kernel count
            sequence-based decoding would need (Figure 11).
        tree_path_tokens: Total tokens across all root-to-leaf sequences —
            what sequence-based decoding computes (> tree_size when the
            tree branches, because shared prefixes are recomputed).
        prefix_len: Verified sequence length when the step began.
        num_rejections: Stochastic verification rejections in the step.
    """

    llm_tokens_scored: int
    tokens_emitted: int
    ssm_steps: int = 0
    tree_size: int = 0
    tree_depth: int = 0
    tree_leaves: int = 0
    tree_path_tokens: int = 0
    prefix_len: int = 0
    num_rejections: int = 0


@dataclass
class GenerationResult:
    """Output of one request's generation.

    Attributes:
        prompt: The input token ids.
        tokens: Generated token ids (prompt excluded), truncated to
            ``max_new_tokens`` and at EOS when configured.
        steps: Per-LLM-step traces, in order.
        finished_by_eos: Whether generation stopped at EOS.
    """

    prompt: np.ndarray
    tokens: List[int] = field(default_factory=list)
    steps: List[StepTrace] = field(default_factory=list)
    finished_by_eos: bool = False

    @property
    def num_llm_steps(self) -> int:
        """LLM decoding steps consumed — the quantity SpecInfer minimizes."""
        return len(self.steps)

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def mean_tokens_per_step(self) -> float:
        """Average verified tokens per decoding step (Table 2 metric)."""
        if not self.steps:
            return 0.0
        return float(np.mean([s.tokens_emitted for s in self.steps]))

    def tokens_per_step_series(self) -> np.ndarray:
        """Per-step emitted-token counts (Figure 9's CDF input)."""
        return np.array([s.tokens_emitted for s in self.steps], dtype=np.float64)

