"""Verification outcome record shared by all verification algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class VerificationResult:
    """Outcome of verifying one speculated token tree.

    Attributes:
        accepted_tokens: The verified tokens 𝒱 appended this step, i.e. the
            accepted *speculated* tokens followed by the one bonus token the
            LLM contributes (Algorithm 2 always appends at least one token).
        accepted_nodes: Tree-node indices of the accepted root-to-node path,
            root (index 0) included.  ``len(accepted_nodes) - 1`` speculated
            tokens were accepted.
        bonus_token: The final token of ``accepted_tokens`` — produced by the
            LLM itself (greedy argmax, residual sample, or direct sample),
            never taken from the tree.  ``-1`` while the walk is paused.
        num_candidates_considered: How many tree nodes the verifier examined.
        num_rejections: Stochastic only — candidate rejections before
            acceptance or fallback.
    """

    accepted_tokens: List[int] = field(default_factory=list)
    accepted_nodes: List[int] = field(default_factory=list)
    bonus_token: int = -1
    num_candidates_considered: int = 0
    num_rejections: int = 0

    @property
    def paused(self) -> bool:
        """The walk stopped, bonus unset, at its last accepted node because
        the decode it read did not score that node; it resumes on a decode
        of that node's subtree."""
        return self.bonus_token == -1

    @property
    def num_accepted_speculated(self) -> int:
        """Speculated tokens accepted (excludes the bonus token)."""
        return len(self.accepted_nodes) - 1

    @property
    def tokens_per_step(self) -> int:
        """Total tokens emitted by this verification step (>= 1)."""
        return len(self.accepted_tokens)

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        if not self.accepted_nodes or self.accepted_nodes[0] != 0:
            raise ValueError("accepted path must start at the root (node 0)")
        if len(self.accepted_tokens) != len(self.accepted_nodes):
            raise ValueError(
                "accepted_tokens must be one bonus token plus the accepted "
                "speculated tokens: expected "
                f"{len(self.accepted_nodes)} tokens, got {len(self.accepted_tokens)}"
            )
        if self.accepted_tokens and self.accepted_tokens[-1] != self.bonus_token:
            raise ValueError("last accepted token must be the bonus token")
