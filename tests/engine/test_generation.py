"""Tests for the generation config, step trace and result types."""

import numpy as np
import pytest

from repro.engine.generation import (
    GenerationConfig,
    GenerationResult,
    StepTrace,
)


class TestGenerationConfig:
    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=0)

    def test_defaults_greedy(self):
        assert GenerationConfig().sampling.greedy


class TestGenerationResult:
    def _result(self):
        result = GenerationResult(prompt=np.array([1, 2]))
        result.tokens = [3, 4, 5, 6]
        result.steps = [
            StepTrace(llm_tokens_scored=5, tokens_emitted=3, tree_size=5),
            StepTrace(llm_tokens_scored=5, tokens_emitted=1, tree_size=5),
        ]
        return result

    def test_counts(self):
        result = self._result()
        assert result.num_tokens == 4
        assert result.num_llm_steps == 2

    def test_mean_tokens_per_step(self):
        assert self._result().mean_tokens_per_step == 2.0

    def test_tokens_per_step_series(self):
        np.testing.assert_array_equal(
            self._result().tokens_per_step_series(), [3.0, 1.0]
        )

    def test_empty_result(self):
        result = GenerationResult(prompt=np.array([1]))
        assert result.mean_tokens_per_step == 0.0
        assert result.tokens_per_step_series().size == 0
