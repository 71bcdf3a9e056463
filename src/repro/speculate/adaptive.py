"""Dynamic token tree expansion (the paper's stated future work).

Section 3 of the paper fixes the tree shape with a *static* expansion
configuration and notes that "dynamically expanding a token tree from an
SSM is an open research problem".  This module implements the natural
dynamic policy the paper gestures at (later realized by systems like
Sequoia): spend a fixed speculation budget where the SSM is *confident*,
instead of uniformly.

The algorithm is best-first expansion.  Every candidate token carries the
probability of its root-to-candidate path under the SSM; candidates are
expanded in decreasing path-probability order until the token budget, the
depth limit, or the path-probability floor stops growth.  Per node, the
branching factor adapts to the SSM's local certainty: enough top tokens to
cover ``coverage`` probability mass, capped at ``max_width``.

Under greedy verification the expected number of accepted tokens equals the
sum of path probabilities of tree nodes (when the SSM is calibrated against
the LLM), so best-first expansion maximizes exactly the right objective
given a node budget.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.layers import stable_softmax
from repro.tree.token_tree import TokenTree


@dataclass(frozen=True)
class AdaptiveConfig:
    """Policy knobs for dynamic tree expansion.

    Attributes:
        max_tokens: Total speculated-token budget per tree (root excluded).
        max_depth: Maximum speculation depth.
        max_width: Per-node branching cap.
        coverage: Per-node probability mass the expanded children should
            cover (confident nodes expand 1 child, uncertain ones up to
            ``max_width``).
        min_path_prob: Candidates whose path probability falls below this
            floor are never expanded (they would almost surely be rejected).
    """

    max_tokens: int = 16
    max_depth: int = 8
    max_width: int = 4
    coverage: float = 0.85
    min_path_prob: float = 0.02

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_width < 1:
            raise ValueError("max_width must be >= 1")
        if not 0 < self.coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if not 0 <= self.min_path_prob < 1:
            raise ValueError("min_path_prob must be in [0, 1)")


def _adaptive_width(probs: np.ndarray, config: AdaptiveConfig) -> np.ndarray:
    """Top tokens covering ``coverage`` mass, capped at ``max_width``."""
    order = np.argsort(probs)[::-1][: config.max_width]
    cumulative = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cumulative, config.coverage)) + 1
    return order[: max(1, min(cutoff, config.max_width))]


def expand_token_tree_adaptive(
    ssm,
    root_token: int,
    cache,
    config: AdaptiveConfig,
    temperature: float = 1.0,
    stochastic: bool = False,
    rng: Optional[np.random.Generator] = None,
    max_tokens: Optional[int] = None,
) -> TokenTree:
    """Best-first dynamic expansion of a token tree from one SSM.

    The SSM cache is restored to its entry state on return, mirroring
    :func:`repro.speculate.expansion.expand_token_tree`.

    Args:
        ssm: Model exposing ``decode(token, cache)`` plus a snapshot/restore
            cache (``TransformerLM`` or ``CoupledSSM``).
        root_token: The pending token (tree root).
        cache: SSM cache holding the verified prefix.
        config: The dynamic expansion policy.
        temperature: Softmax temperature of recorded proposals.
        stochastic: Sample candidates from the SSM distribution instead of
            taking the covering top set (required for distribution-
            preserving stochastic verification).
        rng: Randomness for stochastic candidates.
        max_tokens: Optional per-call override of ``config.max_tokens`` —
            the tree planner's tick-to-tick budget, applied without
            rebuilding the speculator or its config.
    """
    if stochastic and rng is None:
        raise ValueError("stochastic expansion requires an rng")
    if max_tokens is not None and max_tokens < 0:
        raise ValueError("max_tokens must be >= 0")
    budget = config.max_tokens if max_tokens is None else max_tokens
    tree = TokenTree(root_token)
    entry = cache.snapshot()
    counter = itertools.count()  # heap tie-breaker
    # Heap of (-path_prob, tiebreak, parent_node_idx, token, path_tokens,
    # proposal row).
    heap: List[Tuple[float, int, int, int, Tuple[int, ...], int]] = []

    def node_distribution(path_tokens: Sequence[int]) -> Optional[np.ndarray]:
        """SSM next-token distribution after decoding ``path_tokens``."""
        if cache.length + len(path_tokens) > cache.capacity:
            return None
        cache.restore(entry)
        logits = None
        for token in path_tokens:
            logits = ssm.decode(int(token), cache)
        return stable_softmax(
            np.asarray(logits, dtype=np.float64) / max(temperature, 1e-8)
        )

    def push_children(node_idx: int, path_tokens: Tuple[int, ...],
                      path_prob: float) -> None:
        depth = len(path_tokens)  # root is 1 token
        if depth > config.max_depth:
            return
        probs = node_distribution(path_tokens)
        if probs is None:
            return
        row = tree.add_proposal(probs) if stochastic else -1
        if stochastic:
            width = len(_adaptive_width(probs, config))
            candidates = rng.choice(probs.shape[-1], size=width, p=probs)
        else:
            candidates = _adaptive_width(probs, config)
        for token in candidates:
            token = int(token)
            child_prob = path_prob * float(probs[token])
            if child_prob < config.min_path_prob:
                continue
            heapq.heappush(
                heap,
                (-child_prob, next(counter), node_idx, token,
                 path_tokens + (token,), row),
            )

    expanded = {0}
    if budget > 0:
        push_children(0, (int(root_token),), 1.0)
    while heap and tree.num_speculated() < budget:
        neg_prob, _, parent, token, path_tokens, row = heapq.heappop(heap)
        child_idx = tree.add_child(parent, token, row)
        if child_idx in expanded:
            # Duplicate candidate (stochastic sampling can propose the same
            # token twice) — the node merged; expand it only once.
            continue
        expanded.add(child_idx)
        push_children(child_idx, path_tokens, -neg_prob)
    cache.restore(entry)
    return tree
