"""Naive-sampling verification baseline (paper section 4.3, Table 3).

At each node ``u`` the next token is sampled *directly* from the LLM's
distribution ``P(· | u, LLM)``.  If the sampled token happens to match one of
``u``'s children, the walk descends (the speculated token was "verified");
otherwise the sampled token is emitted as the bonus token and verification
stops.  This trivially preserves the LLM's distribution but wastes the
information in the SSM proposals — Theorem 4.3 shows MSS rejects uniformly
less often, and Table 3 quantifies the gap at 1.26-1.28x verified tokens.
Like the other rules, the walk resumes a partial result and pauses at a
node ``output`` did not score.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.sampling import SamplingConfig, sample_from_probs
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.result import VerificationResult


def verify_naive_sampling(
    output: TreeDecodeOutput,
    tree: TokenTree,
    sampling: SamplingConfig,
    rng: np.random.Generator,
    result: Optional[VerificationResult] = None,
) -> VerificationResult:
    """Verify ``tree`` by sampling from the LLM and checking membership,
    resuming ``result`` when given (``None`` starts at the root)."""
    if result is None:
        result = VerificationResult(accepted_nodes=[0])
    u = result.accepted_nodes[-1]
    while output.scores(u):
        probs = output.distribution_for_node(u, sampling)
        token = sample_from_probs(probs, rng)
        result.num_candidates_considered += 1
        matched = tree.child_with_token(u, token)
        result.accepted_tokens.append(token)
        if matched == -1:
            result.bonus_token = token
            if not tree.is_leaf(u):
                result.num_rejections += 1
            return result
        result.accepted_nodes.append(matched)
        u = matched
    return result
