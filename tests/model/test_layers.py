"""Gradient and behavior tests for the layer primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.layers import (
    embedding_backward,
    embedding_forward,
    gelu_backward,
    gelu_forward,
    kl_divergence_loss,
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    softmax_cross_entropy,
    stable_softmax,
)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        out, _ = linear_forward(x, w, b)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out, x @ w + b)

    def test_gradients_match_numerical(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        upstream = rng.normal(size=(3, 5))

        def loss():
            return float((linear_forward(x, w, b)[0] * upstream).sum())

        out, cache = linear_forward(x, w, b)
        dx, dw, db = linear_backward(upstream, cache)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(dw, numerical_grad(loss, w), atol=1e-6)
        np.testing.assert_allclose(db, numerical_grad(loss, b), atol=1e-6)

    def test_3d_input(self, rng):
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        b = np.zeros(5)
        out, cache = linear_forward(x, w, b)
        assert out.shape == (2, 3, 5)
        dx, dw, db = linear_backward(np.ones_like(out), cache)
        assert dx.shape == x.shape
        assert dw.shape == w.shape


class TestLayerNorm:
    def test_output_normalized(self, rng):
        x = rng.normal(loc=3.0, scale=5.0, size=(4, 8))
        out, _ = layernorm_forward(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_gradients_match_numerical(self, rng):
        x = rng.normal(size=(3, 6))
        scale = rng.normal(size=6)
        bias = rng.normal(size=6)
        upstream = rng.normal(size=(3, 6))

        def loss():
            return float((layernorm_forward(x, scale, bias)[0] * upstream).sum())

        _, cache = layernorm_forward(x, scale, bias)
        dx, dscale, dbias = layernorm_backward(upstream, cache)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(dscale, numerical_grad(loss, scale), atol=1e-6)
        np.testing.assert_allclose(dbias, numerical_grad(loss, bias), atol=1e-6)


    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("rows", [1, 8, 168])
    def test_inference_form_matches_training_output(self, rng, rows, dtype):
        x = rng.normal(loc=0.5, scale=3.0, size=(rows, 128)).astype(dtype)
        scale = rng.normal(size=128).astype(dtype)
        bias = rng.normal(size=128).astype(dtype)
        trained, cache = layernorm_forward(x, scale, bias)
        assert len(cache) == 3
        out = np.empty_like(x)
        result, no_cache = layernorm_forward(x, scale, bias, out=out)
        assert result is out and no_cache is None
        assert out.dtype == x.dtype
        np.testing.assert_allclose(out, trained, rtol=0, atol=1e-12)

    def test_statistics_match_ndarray_mean_and_var(self, rng):
        # The training output against the definition NumPy's own (slower,
        # pure-Python) ``mean`` / ``var`` give.
        x = rng.normal(loc=-2.0, scale=4.0, size=(21, 128))
        scale = rng.normal(size=128)
        bias = rng.normal(size=128)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = scale * ((x - mu) / np.sqrt(var + 1e-5)) + bias
        out, _ = layernorm_forward(x, scale, bias)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_inference_form_may_alias_input(self, rng):
        x = rng.normal(size=(3, 16))
        expected, _ = layernorm_forward(x, np.ones(16), np.zeros(16))
        out, _ = layernorm_forward(x, np.ones(16), np.zeros(16), out=x)
        assert out is x
        np.testing.assert_array_equal(out, expected)


def textbook_gelu(x):
    """The tanh-GELU as written in the paper, cube by ``np.power``, every
    constant in ``x``'s own dtype."""
    t = x.dtype.type
    inner = t(np.sqrt(2.0 / np.pi)) * (x + t(0.044715) * np.power(x, 3))
    return t(0.5) * x * (t(1.0) + np.tanh(inner))


class TestGelu:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("rows", [1, 8, 168])
    def test_matches_textbook_formula_within_4_ulp(self, rng, rows, dtype):
        x = rng.normal(scale=3.0, size=(rows, 512)).astype(dtype)
        expected = textbook_gelu(x)
        out, _ = gelu_forward(x)
        assert out.dtype == x.dtype
        # ulps at the scale of the input: for x << 0 the factor 1 + tanh(.)
        # cancels, so an output-relative ulp is ill-conditioned in that tail
        # for *any* two evaluation orders; where it does not cancel (x >= 0)
        # the bound holds relative to the output as well.
        err = np.abs(out - expected)
        assert (err <= 4 * np.spacing(np.abs(x))).all()
        positive = x >= 0
        assert (err[positive] <= 4 * np.spacing(expected[positive])).all()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_out_form_is_bit_equal_and_cache_free(self, rng, dtype):
        x = rng.normal(scale=3.0, size=(8, 512)).astype(dtype)
        trained, cache = gelu_forward(x)
        assert cache[0] is x and cache[1].shape == x.shape
        out = np.empty_like(x)
        result, no_cache = gelu_forward(x, out=out)
        assert result is out and no_cache is None
        np.testing.assert_array_equal(out, trained)

    def test_out_may_alias_input(self, rng):
        x = rng.normal(scale=3.0, size=(8, 512)).astype("float32")
        expected, _ = gelu_forward(x.copy())
        result, _ = gelu_forward(x, out=x)
        assert result is x and x.dtype == np.float32
        np.testing.assert_array_equal(x, expected)

    def test_matches_known_values(self):
        out, _ = gelu_forward(np.array([0.0]))
        assert out[0] == pytest.approx(0.0)
        out, _ = gelu_forward(np.array([10.0]))
        assert out[0] == pytest.approx(10.0, rel=1e-4)

    def test_gradient_matches_numerical(self, rng):
        x = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 5))

        def loss():
            return float((gelu_forward(x)[0] * upstream).sum())

        _, cache = gelu_forward(x)
        dx = gelu_backward(upstream, cache)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), atol=1e-6)


class TestEmbedding:
    def test_lookup(self, rng):
        table = rng.normal(size=(10, 4))
        ids = np.array([3, 3, 7])
        out, _ = embedding_forward(ids, table)
        np.testing.assert_allclose(out, table[ids])

    def test_backward_accumulates_duplicates(self, rng):
        table = rng.normal(size=(10, 4))
        ids = np.array([3, 3, 7])
        _, cache = embedding_forward(ids, table)
        grad = np.ones((3, 4))
        dtable = embedding_backward(grad, cache)
        np.testing.assert_allclose(dtable[3], 2 * np.ones(4))
        np.testing.assert_allclose(dtable[7], np.ones(4))
        np.testing.assert_allclose(dtable[0], np.zeros(4))


class TestSoftmaxCrossEntropy:
    def test_loss_of_perfect_prediction_near_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6

    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((3, 8))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 2]))
        assert loss == pytest.approx(np.log(8))

    def test_ignored_positions_do_not_contribute(self, rng):
        logits = rng.normal(size=(3, 5))
        loss_all, _ = softmax_cross_entropy(logits[:2], np.array([1, 2]))
        loss_masked, _ = softmax_cross_entropy(logits, np.array([1, 2, -1]))
        assert loss_all == pytest.approx(loss_masked)

    def test_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(3, 5))
        targets = np.array([0, 4, -1])

        def loss():
            return softmax_cross_entropy(logits, targets)[0]

        _, dlogits = softmax_cross_entropy(logits, targets)
        np.testing.assert_allclose(
            dlogits, numerical_grad(loss, logits), atol=1e-6
        )

    def test_all_ignored_returns_zero(self):
        loss, grad = softmax_cross_entropy(np.ones((2, 3)), np.array([-1, -1]))
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            softmax_cross_entropy(np.zeros(5), np.array([1]))


class TestKlDivergence:
    def test_zero_when_matching(self, rng):
        logits = rng.normal(size=(2, 6))
        teacher = stable_softmax(logits)
        loss, grad = kl_divergence_loss(logits, teacher)
        assert loss == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_positive_when_different(self, rng):
        student = rng.normal(size=(2, 6))
        teacher = stable_softmax(rng.normal(size=(2, 6)))
        loss, _ = kl_divergence_loss(student, teacher)
        assert loss > 0

    def test_gradient_matches_numerical(self, rng):
        student = rng.normal(size=(2, 6))
        teacher = stable_softmax(rng.normal(size=(2, 6)))

        def loss():
            return kl_divergence_loss(student, teacher)[0]

        _, grad = kl_divergence_loss(student, teacher)
        np.testing.assert_allclose(grad, numerical_grad(loss, student), atol=1e-6)


class TestStableSoftmax:
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_nonnegative(self, values):
        probs = stable_softmax(np.array(values))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_handles_extreme_logits(self):
        probs = stable_softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=8)
        np.testing.assert_allclose(
            stable_softmax(logits), stable_softmax(logits + 123.0), atol=1e-12
        )
