"""The statistics two paper-figure benchmarks compute from engine traces:
``bench_ablation_alignment``'s acceptance-rate estimate and
``bench_fig9_cdf``'s empirical CDF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_ablation_alignment import estimate_alpha
from benchmarks.bench_fig9_cdf import empirical_cdf
from repro.cluster.sweep import expected_tokens_per_step
from repro.engine.generation import GenerationResult, StepTrace


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


class TestCdf:
    def test_values(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(2.0) == pytest.approx(0.5)
        assert cdf.at(0.5) == 0.0
        assert cdf.at(10.0) == 1.0

    def test_quantile(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 4.0

    def test_quantile_bounds(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_bounded(self, values):
        cdf = empirical_cdf(values)
        assert (np.diff(cdf.ps) >= 0).all()
        assert (np.diff(cdf.xs) >= 0).all()
        assert cdf.ps[-1] == pytest.approx(1.0)
