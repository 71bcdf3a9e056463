"""SpecInfer engine: tree-based speculative inference + verification (Alg. 2).

A thin adapter over the unified :class:`~repro.engine.pipeline.DecodePipeline`:
``generate`` builds one :class:`~repro.engine.pipeline.DecodeState` and
drives it to completion through a
:class:`~repro.engine.pipeline.FusedBackend` with a batch of one (speculation
and verification share the request's seeded RNG, so stochastic runs replay).

Greedy mode emits *exactly* the incremental-decoding sequence; stochastic
mode emits tokens from exactly the LLM's distribution (Theorem 4.2).  The
win is fewer LLM steps: each iteration emits ``1 + #accepted`` tokens.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.generation import GenerationConfig, GenerationResult
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
)
from repro.model.transformer import TransformerLM
from repro.speculate.speculator import Speculator


class SpecInferEngine:
    """Tree-based speculative inference engine.

    Args:
        model: The LLM (verifier).
        speculator: The learning-based speculator (one or more SSMs).
        use_naive_sampling: Use the naive-sampling baseline instead of MSS
            for stochastic verification (Table 3's comparison arm).
    """

    def __init__(
        self,
        model: TransformerLM,
        speculator: Speculator,
        use_naive_sampling: bool = False,
    ):
        self.model = model
        self.speculator = speculator
        self.use_naive_sampling = use_naive_sampling

    def generate(
        self,
        prompt: Sequence[int],
        config: Optional[GenerationConfig] = None,
    ) -> GenerationResult:
        """Generate a completion for ``prompt`` with Algorithm 2."""
        state = DecodeState(
            self.model, prompt, config or GenerationConfig(),
            speculator=self.speculator,
        )
        pipeline = DecodePipeline(
            self.model,
            FusedBackend(
                self.model, use_naive_sampling=self.use_naive_sampling
            ),
        )
        return pipeline.run_to_completion(state).to_result()
