"""Runtime tensor sanitizer: armed guards fire, disarmed guards are free.

Run just this tier with ``-m sanitizer``.
"""

import numpy as np
import pytest

from repro import sanitizer
from repro.sanitizer import (
    SanitizerError,
    guard_disjoint_ranges,
    guard_finite,
    guard_simplex,
    sanitized,
    tensor_contract,
)
from repro.model.kv_cache import BatchArena, KVCache
from repro.model.config import ModelConfig
from repro.model.transformer import TransformerLM

pytestmark = pytest.mark.sanitizer

CONFIG = ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2,
                     max_seq_len=32, name="sanitizer-lm")


@pytest.fixture(autouse=True)
def restore_flag():
    yield
    sanitizer.reset()


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        sanitizer.reset()
        assert not sanitizer.enabled()
        guard_finite("x", np.array([np.nan]))  # no raise

    def test_env_flag_arms_guards(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        sanitizer.reset()
        assert sanitizer.enabled()
        with pytest.raises(SanitizerError):
            guard_finite("x", np.array([np.nan]))

    def test_environment_is_read_at_import_and_on_reset_only(self, monkeypatch):
        # The hot path reads one module global; it never sees a mid-run
        # change to the environment until ``reset()`` re-reads it.
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        sanitizer.reset()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        assert not sanitizer.enabled()
        guard_finite("x", np.array([np.nan]))  # still disarmed
        sanitizer.reset()
        assert sanitizer.enabled()

    @pytest.mark.parametrize("value", ["False", "OFF", "no"])
    def test_off_spellings_disarm_at_import(self, monkeypatch, value):
        monkeypatch.setenv(sanitizer.ENV_FLAG, value)
        sanitizer.reset()
        assert not sanitizer.enabled()

    def test_enable_overrides_until_reset(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        sanitizer.reset()
        sanitizer.enable()
        assert sanitizer.enabled()
        with sanitized(False):
            assert not sanitizer.enabled()
        assert sanitizer.enabled()
        sanitizer.reset()
        assert not sanitizer.enabled()

    def test_context_manager_restores(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        sanitizer.reset()
        with sanitized():
            assert sanitizer.enabled()
        assert not sanitizer.enabled()


class TestGuards:
    def test_nan_logit_guard_fires_end_to_end(self):
        # The required injection test: poison one lm_head weight with NaN
        # and assert the decode-path guard catches it at the source.
        model = TransformerLM(CONFIG, seed=3)
        model.params["lm_head"][0, 0] = np.nan
        cache = model.new_cache()
        with sanitized(), pytest.raises(SanitizerError, match="non-finite"):
            model.decode(1, cache)

    def test_clean_model_passes_armed(self):
        model = TransformerLM(CONFIG, seed=3)
        cache = model.new_cache()
        with sanitized():
            logits = model.decode(1, cache)
        assert np.all(np.isfinite(logits))

    def test_overlapping_arena_range_fires(self):
        # The required overlap test: a second cache claiming rows inside a
        # live request's range must be rejected.
        arena = BatchArena(CONFIG, max_requests=2)
        first = arena.new_sequence(16)
        start, _ = first.row_range
        with sanitized(), pytest.raises(SanitizerError, match="overlaps"):
            KVCache(arena, start + 4, start + 12)

    def test_released_range_can_be_reused(self):
        arena = BatchArena(CONFIG, max_requests=2)
        with sanitized():
            first = arena.new_sequence(16)
            first.free()
            second = arena.new_sequence(16)  # same rows, no overlap error
        assert second.row_range == first.row_range

    def test_simplex_guard(self):
        with sanitized():
            guard_simplex("p", np.array([0.5, 0.5]))
            with pytest.raises(SanitizerError, match="sum to"):
                guard_simplex("p", np.array([0.5, 0.9]))
            with pytest.raises(SanitizerError, match="negative"):
                guard_simplex("p", np.array([1.5, -0.5]))

    def test_simplex_guard_in_stochastic_verifier(self, llm, ssm, rng):
        # A corrupted SSM proposal is caught by the verifier's guard.
        from repro.model.sampling import SamplingConfig
        from repro.speculate.expansion import ExpansionConfig
        from repro.speculate.speculator import Speculator
        from repro.verify.decode import tree_parallel_decode

        speculator = Speculator([ssm], ExpansionConfig((2, 1)))
        prompt = rng.integers(1, 64, size=6)
        speculator.prefill(prompt[:-1])
        tree = speculator.speculate(int(prompt[-1]), stochastic=True,
                                    rng=np.random.default_rng(5))
        tree.proposals = tree.proposals * 3.0
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        output = tree_parallel_decode(llm, cache, tree)
        from repro.verify.stochastic import verify_stochastic

        with sanitized(), pytest.raises(SanitizerError, match="ssm_probs"):
            verify_stochastic(output, tree, SamplingConfig(temperature=1.0),
                              np.random.default_rng(0))

    def test_range_guard_rejects_inverted(self):
        with sanitized(), pytest.raises(SanitizerError, match="inverted"):
            guard_disjoint_ranges("arena", [], (5, 5))


class TestGuardTree:
    """``guard_tree`` names each broken token-tree invariant when armed."""

    @staticmethod
    def _tree():
        from repro.tree.token_tree import TokenTree

        tree = TokenTree(1)
        row = tree.add_proposal(np.full(4, 0.25))
        a = tree.add_child(0, 2, row)
        tree.add_child(0, 3, row)
        tree.add_child(a, 4)
        for name in ("tokens", "parents", "depths", "rows"):
            setattr(tree, name, getattr(tree, name).copy())
        return tree

    def test_good_tree_passes_and_disarmed_is_silent(self):
        sanitizer.guard_tree(self._tree())
        tree = self._tree()
        tree.parents[0] = 0
        with sanitized(False):
            sanitizer.guard_tree(tree)
        with sanitized():
            sanitizer.guard_tree(self._tree())

    def test_root_parent(self):
        tree = self._tree()
        tree.parents[0] = 0
        with sanitized(), pytest.raises(SanitizerError, match="root"):
            sanitizer.guard_tree(tree)

    def test_parent_before_child(self):
        tree = self._tree()
        tree.parents[1] = 3
        with sanitized(), pytest.raises(SanitizerError, match="earlier"):
            sanitizer.guard_tree(tree)

    def test_depth_is_parent_depth_plus_one(self):
        tree = self._tree()
        tree.depths[3] = 1
        with sanitized(), pytest.raises(SanitizerError, match="depth"):
            sanitizer.guard_tree(tree)

    def test_siblings_unique_by_token(self):
        tree = self._tree()
        tree.tokens[2] = 2
        with sanitized(), pytest.raises(SanitizerError, match="siblings"):
            sanitizer.guard_tree(tree)

    def test_proposal_row_in_range(self):
        tree = self._tree()
        tree.rows[1] = 1
        with sanitized(), pytest.raises(SanitizerError, match="row"):
            sanitizer.guard_tree(tree)


class TestTensorContract:
    def test_contract_checks_when_armed(self):
        @tensor_contract(x={"ndim": 2, "dtype": np.float32})
        def f(x):
            return x

        good = np.zeros((2, 2), dtype=np.float32)
        with sanitized():
            assert f(good) is good
            with pytest.raises(SanitizerError, match="ndim"):
                f(np.zeros(3, dtype=np.float32))
            with pytest.raises(SanitizerError, match="dtype"):
                f(np.zeros((2, 2), dtype=np.float64))

    def test_contract_free_when_disarmed(self):
        @tensor_contract(x={"ndim": 2})
        def f(x):
            return x

        with sanitized(False):
            assert f(np.zeros(3)) is not None  # wrong ndim, but disarmed

    def test_shape_spec_with_wildcards(self):
        @tensor_contract(x={"shape": (None, 4)})
        def f(x):
            return x

        with sanitized():
            f(np.zeros((7, 4)))
            with pytest.raises(SanitizerError, match="shape"):
                f(np.zeros((7, 5)))

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(TypeError, match="no parameter"):
            @tensor_contract(missing={"ndim": 1})
            def f(x):
                return x

    def test_forward_masked_contract_rejects_bad_mask(self, llm):
        cache = llm.new_cache()
        with sanitized(), pytest.raises(SanitizerError, match="ndim"):
            llm.forward_masked(
                np.array([1], dtype=np.intp),
                np.array([0], dtype=np.intp),
                np.zeros(1, dtype=llm.config.dtype),  # 1-D mask
                cache,
            )
