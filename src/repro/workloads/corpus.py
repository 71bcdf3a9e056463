"""Synthetic training corpus (the OpenWebText stand-in).

:class:`MarkovCorpus` draws sequences from a sparse random first-order
Markov chain over the vocabulary.  They have *low conditional entropy*, so a
transformer trained on them develops the peaked next-token distributions
that make speculation informative (a flat untrained model accepts almost
nothing — the same reason the paper uses trained model pairs).
"""

from __future__ import annotations

from typing import List

import numpy as np


class MarkovCorpus:
    """Sequences from a sparse random first-order Markov chain.

    Each token has ``branching`` plausible successors with Zipf-decaying
    probabilities, giving a per-step conditional entropy of roughly
    ``log(branching)`` nats — low enough that a small trained transformer
    predicts the chain well, which is what gives the SSM/LLM pair realistic
    (Table 1-like) agreement statistics.
    """

    def __init__(
        self,
        vocab_size: int,
        branching: int = 4,
        exponent: float = 1.0,
        seed: int = 0,
        reserved_low: int = 1,
    ):
        if branching < 1:
            raise ValueError("branching must be >= 1")
        usable = vocab_size - reserved_low
        if usable < branching + 1:
            raise ValueError("vocabulary too small for requested branching")
        self.vocab_size = vocab_size
        self.reserved_low = reserved_low
        self.branching = branching
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, branching + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        self._succ_probs = weights / weights.sum()
        # successors[t] lists the plausible next tokens after token t.
        self.successors = np.empty((usable, branching), dtype=np.intp)
        for t in range(usable):
            self.successors[t] = (
                self._rng.choice(usable, size=branching, replace=False)
                + reserved_low
            )

    def sample(self, length: int, rng: np.random.Generator = None) -> np.ndarray:
        """One sequence of ``length`` tokens following the chain.

        Args:
            length: Sequence length.
            rng: Optional external generator (for call-order-independent
                reproducibility); defaults to the corpus's own stream.
        """
        rng = rng if rng is not None else self._rng
        usable = self.vocab_size - self.reserved_low
        seq = np.empty(length, dtype=np.intp)
        seq[0] = rng.integers(usable) + self.reserved_low
        for i in range(1, length):
            prev = seq[i - 1] - self.reserved_low
            seq[i] = rng.choice(self.successors[prev], p=self._succ_probs)
        return seq

    def sample_many(self, n: int, length: int) -> List[np.ndarray]:
        return [self.sample(length) for _ in range(n)]

    def conditional_entropy(self) -> float:
        """Exact per-step conditional entropy of the chain, in nats."""
        p = self._succ_probs
        return float(-(p * np.log(p)).sum())
