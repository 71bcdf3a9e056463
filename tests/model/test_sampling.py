"""Tests for sampling utilities (greedy / top-k / top-p / configs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.sampling import (
    SamplingConfig,
    distribution_from_logits,
    entropy,
    greedy_token,
    inverse_cdf_tokens,
    sample_from_probs,
    sample_token,
    softmax,
    top_k_filter,
    top_k_tokens,
    top_p_filter,
)


class TestSamplingConfig:
    def test_defaults_valid(self):
        SamplingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"top_k": -1},
            {"top_p": 0.0},
            {"top_p": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestTopK:
    def test_keeps_k_largest(self):
        probs = np.array([0.1, 0.4, 0.2, 0.3])
        out = top_k_filter(probs, 2)
        assert out[0] == 0.0 and out[2] == 0.0
        assert out.sum() == pytest.approx(1.0)
        assert out[1] > out[3]

    def test_k_zero_or_large_is_identity(self):
        probs = np.array([0.25, 0.25, 0.5])
        np.testing.assert_array_equal(top_k_filter(probs, 0), probs)
        np.testing.assert_array_equal(top_k_filter(probs, 10), probs)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_result_has_at_most_k_nonzero(self, k):
        rng = np.random.default_rng(k)
        probs = softmax(rng.normal(size=8))
        out = top_k_filter(probs, k)
        assert (out > 0).sum() <= k
        assert out.sum() == pytest.approx(1.0)


class TestTopP:
    def test_keeps_smallest_covering_set(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        out = top_p_filter(probs, 0.7)
        assert out[0] > 0 and out[1] > 0
        assert out[2] == 0.0 and out[3] == 0.0
        assert out.sum() == pytest.approx(1.0)

    def test_p_one_is_identity(self):
        probs = np.array([0.5, 0.5])
        np.testing.assert_array_equal(top_p_filter(probs, 1.0), probs)

    def test_always_keeps_at_least_one(self):
        probs = np.array([0.9, 0.1])
        out = top_p_filter(probs, 0.01)
        assert (out > 0).sum() == 1
        assert out[0] == pytest.approx(1.0)


class TestDistributionFromLogits:
    def test_greedy_is_one_hot(self, rng):
        logits = rng.normal(size=10)
        probs = distribution_from_logits(logits, SamplingConfig(greedy=True))
        assert probs[np.argmax(logits)] == 1.0
        assert probs.sum() == pytest.approx(1.0)

    def test_temperature_sharpens(self, rng):
        logits = rng.normal(size=10)
        hot = distribution_from_logits(logits, SamplingConfig(temperature=2.0))
        cold = distribution_from_logits(logits, SamplingConfig(temperature=0.25))
        assert entropy(cold) < entropy(hot)

    def test_filters_compose(self, rng):
        logits = rng.normal(size=20)
        probs = distribution_from_logits(
            logits, SamplingConfig(top_k=5, top_p=0.9)
        )
        assert (probs > 0).sum() <= 5
        assert probs.sum() == pytest.approx(1.0)


class TestSampling:
    def test_greedy_token(self):
        assert greedy_token(np.array([0.1, 5.0, 2.0])) == 1

    def test_sample_token_greedy_config(self, rng):
        logits = np.array([0.0, 10.0, 0.0])
        token = sample_token(logits, SamplingConfig(greedy=True), rng)
        assert token == 1

    def test_sample_matches_distribution(self):
        rng = np.random.default_rng(0)
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        counts = np.zeros(3)
        for _ in range(3000):
            counts[sample_token(logits, SamplingConfig(), rng)] += 1
        freqs = counts / counts.sum()
        np.testing.assert_allclose(freqs, [0.7, 0.2, 0.1], atol=0.03)

    def test_sample_from_probs_rejects_invalid(self, rng):
        with pytest.raises(ValueError):
            sample_from_probs(np.zeros(4), rng)
        with pytest.raises(ValueError):
            sample_from_probs(np.array([np.nan, 1.0]), rng)

    def test_top_k_tokens_ordering(self):
        probs = np.array([0.1, 0.5, 0.15, 0.25])
        np.testing.assert_array_equal(top_k_tokens(probs, 3), [1, 3, 2])

    def test_top_k_tokens_edge_cases(self):
        probs = np.array([0.6, 0.4])
        assert top_k_tokens(probs, 0).size == 0
        np.testing.assert_array_equal(top_k_tokens(probs, 5), [0, 1])


class TestRowWiseHelpers:
    """One call over a tree level's rows == one call per row, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rows,vocab", [(1, 64), (8, 256), (24, 1000)])
    def test_top_k_tokens_stacked_equals_per_row(self, rows, vocab, k):
        probs = np.random.default_rng(rows + k).dirichlet(
            np.ones(vocab), size=rows)
        stacked = top_k_tokens(probs, k)
        assert stacked.shape == (rows, k)
        for row in range(rows):
            np.testing.assert_array_equal(stacked[row],
                                          top_k_tokens(probs[row], k))
            np.testing.assert_array_equal(
                stacked[row], np.argsort(probs[row])[::-1][:k])
        assert top_k_tokens(probs, 0).shape == (rows, 0)

    @pytest.mark.parametrize("vocab", [2, 64, 1000])
    def test_inverse_cdf_reproduces_generator_choice(self, vocab):
        """Same uniforms in, ``Generator.choice(p=...)``'s tokens out."""
        drawer = np.random.default_rng(vocab)
        for trial in range(50):
            probs = drawer.dirichlet(np.full(vocab, 0.3))
            size = 1 + trial % 4
            chosen = np.random.default_rng(trial).choice(
                vocab, size=size, p=probs)
            uniforms = np.random.default_rng(trial).random(size)
            np.testing.assert_array_equal(
                inverse_cdf_tokens(probs, uniforms), chosen)

    def test_inverse_cdf_stacked_equals_per_row(self):
        drawer = np.random.default_rng(3)
        probs = drawer.dirichlet(np.full(256, 0.3), size=24)
        uniforms = drawer.random((24, 3))
        stacked = inverse_cdf_tokens(probs, uniforms)
        assert stacked.shape == (24, 3)
        for row in range(24):
            np.testing.assert_array_equal(
                stacked[row], inverse_cdf_tokens(probs[row], uniforms[row]))

    def test_inverse_cdf_never_picks_a_zero_mass_token(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        uniforms = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        np.testing.assert_array_equal(
            inverse_cdf_tokens(probs, uniforms), [1, 1, 3, 3, 3])


class TestEntropy:
    def test_uniform_maximal(self):
        uniform = np.full(8, 1 / 8)
        assert entropy(uniform) == pytest.approx(np.log(8))

    def test_point_mass_zero(self):
        point = np.zeros(8)
        point[3] = 1.0
        assert entropy(point) == pytest.approx(0.0, abs=1e-9)
