"""``VerifyStochastic`` (Algorithm 2): multi-step speculative sampling (MSS).

At each tree node ``u`` the verifier holds the LLM's next-token distribution
``P(x | u, LLM)`` and tries ``u``'s children in uniformly random order.  A
child ``x_s`` (proposed by SSM ``s``) is accepted with probability
``min(1, P(x_s | u, LLM) / P(x_s | u, SSM_s))``; on rejection the LLM
distribution is replaced by the normalized residual
``norm(max(0, P(· | u, LLM) - P(· | u, SSM_s)))`` and the child is removed
from consideration.  If every child is rejected (or ``u`` is a leaf), the
next token is sampled from the current (residual) LLM distribution and
verification ends.

Theorem 4.2: the emitted token follows exactly the LLM's stochastic-decoding
distribution.  Theorem 4.3: MSS rejects less often than the naive-sampling
baseline (:mod:`repro.verify.naive`).  Both are checked statistically in the
test suite.

The walk resumes a partial result and pauses, bonus unset, on descending to
a node ``output`` did not score: everything drawn up to that point depends
only on scored nodes, so resuming on a later decode of that node's subtree
draws exactly what one walk over the whole tree would.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import sanitizer
from repro.model.sampling import SamplingConfig, sample_from_probs
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.result import VerificationResult


def verify_stochastic(
    output: TreeDecodeOutput,
    tree: TokenTree,
    sampling: SamplingConfig,
    rng: np.random.Generator,
    result: Optional[VerificationResult] = None,
) -> VerificationResult:
    """Verify ``tree`` against stochastic LLM outputs using MSS.

    Args:
        output: Tree-parallel decode output (per-node LLM logits).
        tree: Speculated token tree; each child's proposal row
            (:meth:`~repro.tree.token_tree.TokenTree.proposal_for`) is the
            SSM distribution it was drawn from.  A child without one is a
            deterministic proposal, accepted with probability
            ``P(x | u, LLM)``.
        sampling: Stochastic decoding configuration (temperature/top-k/top-p).
        rng: Source of randomness (acceptance tests and fallback samples).
        result: A paused walk to resume (``None`` starts at the root).

    Returns:
        A :class:`VerificationResult` whose final token was sampled from a
        distribution provably equal to the LLM's (Theorem 4.2), or a paused
        walk (see :attr:`VerificationResult.paused`).
    """
    if result is None:
        result = VerificationResult(accepted_nodes=[0])
    u = result.accepted_nodes[-1]
    while output.scores(u):
        llm_probs = output.distribution_for_node(u, sampling)
        sanitizer.guard_simplex("MSS llm_probs", llm_probs)
        children = tree.children(u).tolist()
        descended = False
        while children:
            pick = int(rng.integers(len(children)))
            child = children.pop(pick)
            token = int(tree.tokens[child])
            result.num_candidates_considered += 1
            ssm_probs = tree.proposal_for(child)
            if ssm_probs is not None:
                sanitizer.guard_simplex("MSS ssm_probs", ssm_probs)
            if ssm_probs is None:
                # No recorded proposal (hand-built tree): treat the child as
                # a deterministic proposal, accepted iff the LLM could emit it.
                accept_prob = min(1.0, float(llm_probs[token]))
                residual_source = None
            else:
                denom = float(ssm_probs[token])
                if denom <= 0.0:
                    # The SSM claims it could never have proposed this token;
                    # reject outright (ratio is 0).
                    accept_prob = 0.0
                else:
                    accept_prob = min(1.0, float(llm_probs[token]) / denom)
                residual_source = ssm_probs
            if float(rng.uniform()) <= accept_prob:
                result.accepted_tokens.append(token)
                result.accepted_nodes.append(child)
                u = child
                descended = True
                break
            result.num_rejections += 1
            if residual_source is not None:
                llm_probs = _normalized_residual(llm_probs, residual_source)
            else:
                llm_probs = _excluding_token(llm_probs, token)
        if descended:
            continue
        # All children rejected (or leaf): sample from the residual.
        bonus = sample_from_probs(llm_probs, rng)
        result.accepted_tokens.append(bonus)
        result.bonus_token = bonus
        return result
    return result


def _normalized_residual(
    llm_probs: np.ndarray, ssm_probs: np.ndarray
) -> np.ndarray:
    """``norm(max(0, P_LLM - P_SSM))`` with a safe fallback.

    If the residual is identically zero (the SSM distribution dominates the
    LLM's everywhere — only possible with numerical coincidence), fall back
    to the unmodified LLM distribution, which keeps sampling well-defined
    without affecting the theorem's regime.
    """
    residual = np.maximum(0.0, llm_probs - ssm_probs)
    total = residual.sum()
    if total <= 1e-300:
        return llm_probs
    return residual / total


def _excluding_token(probs: np.ndarray, token: int) -> np.ndarray:
    """Remove a single token's mass and renormalize (proposal-free children)."""
    out = probs.copy()
    out[token] = 0.0
    total = out.sum()
    if total <= 1e-300:
        return probs
    return out / total
