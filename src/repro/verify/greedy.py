"""``VerifyGreedy`` (Algorithm 2): greedy token tree verification.

Walk the tree from the root; at each node ``u`` the LLM's greedy output
``𝒪(u)`` is compared against ``u``'s children.  A matching child is accepted
and the walk descends; on the first miss (or at a leaf) ``𝒪(u)`` itself is
appended as the bonus token and verification stops.  The emitted sequence is
therefore *exactly* the one incremental greedy decoding would produce —
SpecInfer's losslessness guarantee for greedy decoding.

The walk is resumable: it starts from a partial result's last accepted node
and pauses, bonus unset, on reaching a node ``output`` did not score.
"""

from __future__ import annotations

from typing import Optional

from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.result import VerificationResult


def verify_greedy(output: TreeDecodeOutput, tree: TokenTree,
                  result: Optional[VerificationResult] = None,
                  ) -> VerificationResult:
    """Verify ``tree`` against greedy LLM outputs.

    Args:
        output: Tree-parallel decode output (𝒪 in Algorithm 2).
        tree: The speculated token tree 𝒩.
        result: A paused walk to resume (``None`` starts at the root).

    Returns:
        A :class:`VerificationResult`; ``accepted_tokens`` are the verified
        tokens 𝒱 (accepted speculated tokens + one bonus token), or a
        paused walk (see :attr:`VerificationResult.paused`).
    """
    if result is None:
        result = VerificationResult(accepted_nodes=[0])
    u = result.accepted_nodes[-1]
    while output.scores(u):
        llm_token = output.greedy_token_for_node(u)
        result.num_candidates_considered += 1
        matched = tree.child_with_token(u, llm_token)
        result.accepted_tokens.append(llm_token)
        if matched == -1:
            result.bonus_token = llm_token
            return result
        result.accepted_nodes.append(matched)
        u = matched
    return result
