"""SpecInfer reproduction: tree-based speculative inference and verification.

A from-scratch, NumPy-based reproduction of *SpecInfer: Accelerating Large
Language Model Serving with Tree-based Speculative Inference and
Verification* (Miao et al., ASPLOS 2024).

Public API tour::

    from repro import (
        ModelConfig, TransformerLM, CoupledSSM,       # model substrate
        TokenTree, ExpansionConfig, Speculator,       # speculation
        BatchedTreeVerifier, SamplingConfig,          # verification
        IncrementalEngine, SpecInferEngine,           # decoding engines
        GenerationConfig,
    )

See ``examples/quickstart.py`` for an end-to-end walkthrough, DESIGN.md for
the system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.engine import (
    BatchedTreeVerifier,
    BeamSearchEngine,
    DecodePipeline,
    DecodeState,
    FusedBackend,
    GenerationConfig,
    GenerationResult,
    IncrementalBackend,
    IncrementalEngine,
    SpecInferEngine,
    StepTrace,
    VerificationBackend,
    make_sequence_spec_engine,
)
from repro.model import (
    CoupledSSM,
    KVCache,
    ModelConfig,
    PagedKVPool,
    SamplingConfig,
    TransformerLM,
)
from repro.speculate import (
    AdaptiveConfig,
    BoostTuner,
    ExpansionConfig,
    Speculator,
)
from repro.tree import TokenTree, merge_trees
from repro.verify import VerificationResult

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "TransformerLM",
    "CoupledSSM",
    "KVCache",
    "PagedKVPool",
    "SamplingConfig",
    "TokenTree",
    "merge_trees",
    "ExpansionConfig",
    "AdaptiveConfig",
    "Speculator",
    "BoostTuner",
    "VerificationResult",
    "IncrementalEngine",
    "SpecInferEngine",
    "make_sequence_spec_engine",
    "DecodePipeline",
    "DecodeState",
    "VerificationBackend",
    "FusedBackend",
    "IncrementalBackend",
    "BatchedTreeVerifier",
    "BeamSearchEngine",
    "GenerationConfig",
    "GenerationResult",
    "StepTrace",
    "__version__",
]
