"""Decoding engines.

* :mod:`repro.engine.generation` -- shared request/result/trace types.
* :mod:`repro.engine.pipeline` -- the unified decode pipeline: the one
  speculate→fit→verify→commit loop every surface drives, with pluggable
  verification backends (fused tree pass, incremental).
* :mod:`repro.engine.incremental` -- Algorithm 1: one token per LLM step
  (what vLLM/TGI/FasterTransformer do; also "SpecInfer w/ incremental
  decoding" in Figure 7) — the pipeline's degenerate one-node-tree case.
* :mod:`repro.engine.tree_spec` -- Algorithm 2: SpecInfer's tree-based
  speculative inference and verification loop.
* :mod:`repro.engine.sequence_spec` -- sequence-based speculative decoding
  baseline (a width-1 token tree), per Leviathan et al. / Chen et al.
"""

from repro.engine.generation import (
    GenerationConfig,
    GenerationResult,
    StepTrace,
)
from repro.engine.batched import BatchedTreeVerifier
from repro.engine.beam_search import BeamSearchEngine, BeamSearchResult
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
    IncrementalBackend,
    TickOutcome,
    TraceRecorder,
    TreeFitter,
    VerificationBackend,
    prune_to_size,
)
from repro.engine.tree_spec import SpecInferEngine
from repro.engine.sequence_spec import make_sequence_spec_engine

__all__ = [
    "GenerationConfig",
    "GenerationResult",
    "StepTrace",
    "IncrementalEngine",
    "SpecInferEngine",
    "make_sequence_spec_engine",
    "BatchedTreeVerifier",
    "BeamSearchEngine",
    "BeamSearchResult",
    "DecodePipeline",
    "DecodeState",
    "TickOutcome",
    "TraceRecorder",
    "TreeFitter",
    "VerificationBackend",
    "FusedBackend",
    "IncrementalBackend",
    "prune_to_size",
]
