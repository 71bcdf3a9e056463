"""Acceptance-rate analytics for speculative decoding.

Speculative decoding theory (Leviathan et al.) gives a closed form for
sequence speculation with per-token acceptance rate ``alpha``: a step
accepts exactly k of L speculated tokens with probability
``alpha^k (1 - alpha)`` for ``k < L`` and ``alpha^L`` for ``k = L``, so
it emits ``(1 - alpha^(L+1)) / (1 - alpha)`` tokens on average
(including the bonus token).

These utilities estimate ``alpha`` from measured traces and predict
tokens-per-step for candidate speculation lengths (the closed form
:mod:`repro.cluster.sweep` plans depth with), plus a first-order
extension for trees (width ``w`` boosts the per-step success probability
from ``alpha`` to ``1 - (1 - alpha)^w`` under an independence
approximation).
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.generation import GenerationResult


def expected_tokens_per_step(alpha: float, depth: int) -> float:
    """Expected emitted tokens per LLM step for sequence speculation.

    Args:
        alpha: Per-token acceptance probability, in [0, 1].
        depth: Speculation length L.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if alpha == 1.0:
        return float(depth + 1)
    return float((1 - alpha ** (depth + 1)) / (1 - alpha))


def effective_tree_alpha(alpha: float, width: int) -> float:
    """Per-step success rate of a width-``w`` candidate set.

    Independence approximation: each of ``w`` distinct candidates succeeds
    with marginal probability ``alpha`` — the tree succeeds if any does.
    (Real candidates are the SSM's top-w, so this overestimates slightly;
    Table 1 measures the true values.)
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    return float(1 - (1 - alpha) ** width)


def estimate_alpha(results: Sequence[GenerationResult]) -> float:
    """Estimate the per-token acceptance rate from engine traces.

    Maximum-likelihood estimate under the geometric acceptance model: each
    verification step accepting ``k`` of ``L`` speculated tokens contributes
    ``k`` Bernoulli successes plus one failure when ``k < L`` (the step
    that rejected) and no failure when the whole speculation was accepted.
    ``alpha_hat = successes / trials``.
    """
    successes = 0
    trials = 0
    for result in results:
        for step in result.steps:
            if step.tree_depth == 0:
                continue
            accepted = step.tokens_emitted - 1
            successes += accepted
            trials += accepted
            if accepted < step.tree_depth:
                trials += 1  # the rejected position
    if trials == 0:
        raise ValueError("traces contain no speculation steps")
    return successes / trials
