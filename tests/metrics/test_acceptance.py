"""Tests for acceptance-rate analytics."""

import numpy as np
import pytest

from repro.engine.generation import GenerationResult, StepTrace
from repro.metrics.acceptance import (
    effective_tree_alpha,
    estimate_alpha,
    expected_tokens_per_step,
)


class TestClosedForms:
    def test_alpha_zero_gives_one_token(self):
        assert expected_tokens_per_step(0.0, 8) == 1.0

    def test_alpha_one_accepts_everything(self):
        assert expected_tokens_per_step(1.0, 8) == 9.0

    def test_matches_geometric_sum(self):
        alpha, depth = 0.7, 5
        expected = sum(alpha**k for k in range(depth + 1))
        assert expected_tokens_per_step(alpha, depth) == \
            pytest.approx(expected)

    def test_monte_carlo_agreement(self):
        """Closed form matches direct simulation of the acceptance chain."""
        rng = np.random.default_rng(0)
        alpha, depth = 0.6, 8
        emitted = []
        for _ in range(20000):
            k = 0
            while k < depth and rng.uniform() < alpha:
                k += 1
            emitted.append(k + 1)
        assert np.mean(emitted) == pytest.approx(
            expected_tokens_per_step(alpha, depth), abs=0.03
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_tokens_per_step(1.5, 4)
        with pytest.raises(ValueError):
            expected_tokens_per_step(0.5, -1)


class TestTreeAlpha:
    def test_width_one_is_identity(self):
        assert effective_tree_alpha(0.6, 1) == pytest.approx(0.6)

    def test_width_grows_alpha(self):
        assert effective_tree_alpha(0.6, 3) > 0.6

    def test_paper_magnitude(self):
        """Top-5 boosts ~55% to ~90%+ (Table 1 stochastic shape)."""
        assert effective_tree_alpha(0.55, 5) > 0.9


class TestEstimateAlpha:
    def _trace(self, emitted_per_step, depth):
        result = GenerationResult(prompt=np.array([1]))
        result.steps = [
            StepTrace(llm_tokens_scored=depth + 1, tokens_emitted=e,
                      tree_depth=depth, tree_size=depth + 1)
            for e in emitted_per_step
        ]
        result.tokens = list(range(sum(emitted_per_step)))
        return result

    def test_perfect_acceptance(self):
        trace = self._trace([9, 9], depth=8)
        assert estimate_alpha([trace]) == 1.0

    def test_zero_acceptance(self):
        trace = self._trace([1, 1], depth=8)
        assert estimate_alpha([trace]) == 0.0

    def test_no_speculation_raises(self):
        result = GenerationResult(prompt=np.array([1]))
        result.steps = [StepTrace(llm_tokens_scored=1, tokens_emitted=1)]
        with pytest.raises(ValueError):
            estimate_alpha([result])

    def test_recovers_alpha_from_real_engine(self, llm, ssm, rng):
        """Estimated alpha plugged into the closed form predicts the
        engine's measured tokens/step within tolerance."""
        from repro.engine.generation import GenerationConfig
        from repro.engine.sequence_spec import make_sequence_spec_engine
        from tests.conftest import make_prompt

        engine = make_sequence_spec_engine(llm, ssm, depth=6)
        traces = [
            engine.generate(make_prompt(rng, length=5),
                            GenerationConfig(max_new_tokens=24,
                                             stop_on_eos=False))
            for _ in range(4)
        ]
        alpha = estimate_alpha(traces)
        predicted = expected_tokens_per_step(alpha, 6)
        measured = float(np.mean(
            [t.mean_tokens_per_step for t in traces]
        ))
        assert predicted == pytest.approx(measured, rel=0.25)

