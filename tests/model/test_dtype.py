"""Tests for reduced-precision (float32) operation.

Production serving runs FP16; the closest NumPy analogue is float32.  The
substrate must stay consistent (cache == scratch) at lower precision, and
the speculative engines must remain lossless — acceptance decisions compare
tokens, not floats, so precision affects *which* tokens get speculated but
never output correctness.

Every case runs with the runtime sanitizer armed, so a float64 tensor that
leaks into the float32 forward (a mask, a cache, a staging buffer) fails
here rather than only in the sanitized CI runs.
"""

import numpy as np
import pytest

from repro import sanitizer
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import TransformerLM

F32_CONFIG = ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2,
                         max_seq_len=48, dtype="float32", name="f32-lm")


@pytest.fixture(scope="module")
def model():
    return TransformerLM(F32_CONFIG, seed=11)


@pytest.fixture(autouse=True)
def armed():
    with sanitizer.sanitized():
        yield


class TestFloat32:
    def test_parameters_are_float32(self, model):
        for name in model.params.names():
            assert model.params[name].dtype == np.float32, name

    def test_cache_storage_is_float32(self, model):
        cache = model.new_cache()
        model.prefill(np.array([1, 2, 3]), cache)
        keys, values = cache.layers[0].view()
        assert keys.dtype == np.float32
        assert values.dtype == np.float32

    def test_cache_equals_scratch_within_tolerance(self, model, rng):
        tokens = rng.integers(1, 32, size=8)
        full = model.logits_for_sequence(tokens)
        cache = model.new_cache()
        model.prefill(tokens[:4], cache)
        for i in range(4, 8):
            step = model.decode(int(tokens[i]), cache)
            np.testing.assert_allclose(step, full[i], atol=1e-4)

    def test_tree_decode_matches_per_path(self, model, rng):
        from repro.tree.token_tree import TokenTree
        from repro.verify.decode import (
            sequence_parallel_decode,
            tree_parallel_decode,
        )

        prompt = rng.integers(1, 32, size=4)
        tree = TokenTree(5)
        a = tree.add_child(0, 6)
        tree.add_child(0, 7)
        tree.add_child(a, 8)
        cache = model.new_cache()
        model.prefill(prompt, cache)
        snap = cache.snapshot()
        out = tree_parallel_decode(model, cache, tree)
        cache.restore(snap)
        seq_out, _ = sequence_parallel_decode(model, cache, tree)
        for node in range(len(tree)):
            np.testing.assert_allclose(
                out.logits_for_node(node), seq_out[node], atol=1e-4
            )

    def test_lossless_speculation_at_float32(self, model, rng):
        from repro.engine.generation import GenerationConfig
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine
        from repro.speculate.expansion import ExpansionConfig
        from repro.speculate.speculator import Speculator

        prompt = list(rng.integers(1, 32, size=5))
        config = GenerationConfig(max_new_tokens=12)
        reference = IncrementalEngine(model).generate(prompt, config)
        ssm = CoupledSSM(model, alignment=0.9, seed=2, noise_scale=2.0)
        engine = SpecInferEngine(
            model, Speculator([ssm], ExpansionConfig((2, 2, 1)))
        )
        assert engine.generate(prompt, config).tokens == reference.tokens

    def test_training_step_at_float32(self, model, rng):
        """Forward/backward runs and produces finite float32 grads."""
        from repro.model.layers import softmax_cross_entropy

        tokens = rng.integers(1, 32, size=6)
        logits, caches = model.forward_train(tokens)
        targets = np.concatenate([tokens[1:], [-1]])
        _, dlogits = softmax_cross_entropy(logits, targets)
        grads = model.backward(dlogits, caches)
        for name, grad in grads.items():
            assert np.isfinite(grad).all(), name
