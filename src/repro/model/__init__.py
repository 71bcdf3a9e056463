"""NumPy transformer substrate used by the SpecInfer reproduction.

This package implements, from scratch, everything the paper assumes from a
deep-learning framework:

* :mod:`repro.model.config` -- architecture hyper-parameters,
* :mod:`repro.model.parameters` -- named parameter store with init/IO,
* :mod:`repro.model.layers` -- linear / LayerNorm / embedding / GELU primitives
  with manual backward passes,
* :mod:`repro.model.attention` -- multi-head attention accepting arbitrary
  additive masks (the hook tree attention plugs into),
* :mod:`repro.model.kv_cache` -- the KV cache: a row range of a shared
  per-layer slab, with rollback and path compaction (the block-sparse fused
  batch path reads straight from the slab),
* :mod:`repro.model.perf` -- op counters (GEMM FLOPs, copied bytes, mask
  cells) asserted by the perf-smoke tests,
* :mod:`repro.model.transformer` -- the decoder-only language model with
  prefill, incremental decode and tree-parallel decode entry points,
* :mod:`repro.model.sampling` -- greedy / temperature / top-k / top-p sampling,
* :mod:`repro.model.trainer` -- cross-entropy training loop (Adam) used for
  distillation and boost-tuning,
* :mod:`repro.model.coupled` -- the logit-coupled SSM family with a
  controllable alignment knob (see DESIGN.md substitution table).
"""

from repro.model.config import ModelConfig
from repro.model.parameters import ParameterStore
from repro.model.kv_cache import BatchArena, KVCache
from repro.model.transformer import TransformerLM
from repro.model.coupled import CoupledSSM
from repro.model.sampling import (
    SamplingConfig,
    greedy_token,
    sample_token,
    softmax,
    top_k_filter,
    top_p_filter,
)
from repro.model.trainer import AdamOptimizer, Trainer, TrainingConfig

__all__ = [
    "ModelConfig",
    "ParameterStore",
    "KVCache",
    "BatchArena",
    "TransformerLM",
    "CoupledSSM",
    "SamplingConfig",
    "greedy_token",
    "sample_token",
    "softmax",
    "top_k_filter",
    "top_p_filter",
    "AdamOptimizer",
    "Trainer",
    "TrainingConfig",
]
