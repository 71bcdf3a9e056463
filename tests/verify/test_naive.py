"""Tests for the naive-sampling verification baseline."""

import numpy as np
import pytest

from repro.model.sampling import SamplingConfig
from repro.tree.token_tree import TokenTree
from repro.verify.naive import verify_naive_sampling

from tests.conftest import total_variation_distance
from tests.verify.test_stochastic import (
    P_LLM,
    VOCAB,
    output_with_distribution,
)

SAMPLING = SamplingConfig()


class TestVerifyNaive:
    def test_preserves_llm_distribution(self):
        """Naive sampling trivially samples from the LLM distribution."""
        rng = np.random.default_rng(0)
        counts = np.zeros(VOCAB)
        for _ in range(20000):
            tree = TokenTree(0)
            tree.add_child(0, 1)
            out = output_with_distribution(tree, P_LLM)
            result = verify_naive_sampling(out, tree, SAMPLING, rng)
            counts[result.accepted_tokens[0]] += 1
        freqs = counts / counts.sum()
        assert total_variation_distance(freqs, P_LLM) < 0.02

    def test_acceptance_rate_equals_child_probability(self):
        """P(descend) = P_LLM(child token) exactly."""
        rng = np.random.default_rng(1)
        accepts = 0
        n = 10000
        for _ in range(n):
            tree = TokenTree(0)
            tree.add_child(0, 0)  # P_LLM[0] = 0.35
            out = output_with_distribution(tree, P_LLM)
            result = verify_naive_sampling(out, tree, SAMPLING, rng)
            accepts += result.num_accepted_speculated
        assert accepts / n == pytest.approx(0.35, abs=0.02)

    def test_wide_tree_raises_acceptance(self):
        """More children = more tokens the sampled token can match."""
        rng = np.random.default_rng(2)

        def rate(width):
            accepts = 0
            n = 4000
            for _ in range(n):
                tree = TokenTree(0)
                for t in range(width):
                    tree.add_child(0, t)
                out = output_with_distribution(tree, P_LLM)
                result = verify_naive_sampling(out, tree, SAMPLING, rng)
                accepts += result.num_accepted_speculated > 0
            return accepts / n

        assert rate(3) > rate(1)

    def test_descends_chain(self):
        rng = np.random.default_rng(3)
        # Deterministic LLM: always emits token 2.
        p = np.zeros(VOCAB)
        p[2] = 1.0
        tree = TokenTree(0)
        n1 = tree.add_child(0, 2)
        tree.add_child(n1, 2)
        out = output_with_distribution(tree, p)
        result = verify_naive_sampling(out, tree, SAMPLING, rng)
        assert result.accepted_tokens == [2, 2, 2]
        assert result.num_accepted_speculated == 2

    def test_result_validates(self):
        rng = np.random.default_rng(4)
        tree = TokenTree(0)
        tree.add_child(0, 1)
        out = output_with_distribution(tree, P_LLM)
        result = verify_naive_sampling(out, tree, SAMPLING, rng)
        result.validate()
