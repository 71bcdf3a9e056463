"""Token tree verifier (paper section 4).

* :mod:`repro.verify.decode` -- tree-based parallel decoding (one fused pass
  over the LLM with the topology-aware causal mask) and the sequence-based
  reference decomposition used as a baseline in Figure 11.
* :mod:`repro.verify.greedy` -- ``VerifyGreedy`` (Algorithm 2).
* :mod:`repro.verify.stochastic` -- ``VerifyStochastic``: multi-step
  speculative sampling (MSS) with residual renormalization.
* :mod:`repro.verify.naive` -- the naive-sampling baseline of section 4.3.

The tree verifier that combines a fused decode, these rules and KV-cache
compaction is :class:`repro.engine.batched.BatchedTreeVerifier`.
"""

from repro.verify.decode import (
    SequenceDecodeStats,
    TreeDecodeOutput,
    sequence_parallel_decode,
    tree_parallel_decode,
)
from repro.verify.greedy import verify_greedy
from repro.verify.naive import verify_naive_sampling
from repro.verify.result import VerificationResult
from repro.verify.stochastic import verify_stochastic

__all__ = [
    "TreeDecodeOutput",
    "SequenceDecodeStats",
    "tree_parallel_decode",
    "sequence_parallel_decode",
    "verify_greedy",
    "verify_stochastic",
    "verify_naive_sampling",
    "VerificationResult",
]
