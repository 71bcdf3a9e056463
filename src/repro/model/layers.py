"""Primitive neural-network layers with manual forward/backward passes.

Each primitive exposes ``*_forward`` returning ``(output, cache)`` and a
matching ``*_backward`` taking the upstream gradient plus the cache and
returning gradients for inputs and parameters.  The training path (used by
SSM distillation and boost-tuning, paper section 3) composes these.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.model import perf
from repro.sanitizer import tensor_contract

LayerCache = Tuple


# -- linear --------------------------------------------------------------------


@tensor_contract(w={"ndim": 2}, b={"ndim": 1})
def linear_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray,
    out: np.ndarray = None,
) -> Tuple[np.ndarray, LayerCache]:
    """Affine map ``y = x @ w + b`` over the last axis.

    Args:
        x: ``(..., d_in)`` input activations.
        w: ``(d_in, d_out)`` weight.
        b: ``(d_out,)`` bias.
        out: Optional output buffer of shape ``x.shape[:-1] + (d_out,)``.
            The GEMM writes into it directly and the bias adds in place —
            bit-identical to the allocating path (same GEMM, same
            elementwise add) but with zero allocations, which is how the
            decode loop's packed QKV projection and LM head reuse
            scratch-arena buffers.
    """
    perf.add_gemm(x.size // x.shape[-1], w.shape[0], w.shape[1])
    out = np.matmul(x, w, out=out)
    out += b
    return out, (x, w)


def linear_backward(
    grad: np.ndarray, cache: LayerCache
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward for :func:`linear_forward`; returns ``(dx, dw, db)``."""
    x, w = cache
    dx = grad @ w.T
    flat_x = x.reshape(-1, x.shape[-1])
    flat_g = grad.reshape(-1, grad.shape[-1])
    dw = flat_x.T @ flat_g
    db = flat_g.sum(axis=0)
    return dx, dw, db


# -- layer norm -----------------------------------------------------------------


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` as the two ufunc calls it is made of.

    ``ndarray.mean`` / ``ndarray.var`` are Python functions
    (``numpy._core._methods``) that cost more than the reduction itself on
    one decode row; for float32/float64 this is bit-identical to them.
    """
    total = np.add.reduce(x, axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


@tensor_contract(scale={"ndim": 1}, bias={"ndim": 1})
def layernorm_forward(
    x: np.ndarray, scale: np.ndarray, bias: np.ndarray, eps: float = 1e-5,
    out: np.ndarray = None,
) -> Tuple[np.ndarray, LayerCache]:
    """LayerNorm over the last axis: ``scale * (x - mu) / sigma + bias``.

    Pass ``out`` (same shape and dtype as ``x``; may alias ``x``) for the
    inference form: the same subtract / scale / shift sequence run in place
    in ``out``, returning ``(out, None)`` — bit-identical output, no
    ``(x_hat, inv_std, scale)`` backward cache.
    """
    centered = np.subtract(x, _row_mean(x), out=out)
    inv_std = _row_mean(centered * centered)  # the (biased) variance
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat = np.multiply(centered, inv_std, out=centered)
    if out is None:
        return scale * x_hat + bias, (x_hat, inv_std, scale)
    out *= scale
    out += bias
    return out, None


def layernorm_backward(
    grad: np.ndarray, cache: LayerCache
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward for :func:`layernorm_forward`; returns ``(dx, dscale, dbias)``."""
    x_hat, inv_std, scale = cache
    d = x_hat.shape[-1]
    dbias = grad.reshape(-1, d).sum(axis=0)
    dscale = (grad * x_hat).reshape(-1, d).sum(axis=0)
    dx_hat = grad * scale
    # Standard LayerNorm backward over the normalized axis.
    dx = (
        dx_hat
        - dx_hat.mean(axis=-1, keepdims=True)
        - x_hat * (dx_hat * x_hat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return dx, dscale, dbias


# -- GELU -------------------------------------------------------------------------

# A Python float, not ``np.float64``: a NumPy scalar would promote float32
# activations to float64 (NEP 50), a Python float keeps the array's dtype.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_forward(x: np.ndarray,
                 out: np.ndarray = None) -> Tuple[np.ndarray, LayerCache]:
    """Tanh-approximation GELU (as used by GPT-2/OPT).

    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))`` evaluated as a chain
    of in-place ufuncs over one temporary; the cube is ``x * x * x`` (two
    multiplies, within 1 ulp of ``pow(x, 3)``, which is ~20x slower).

    Pass ``out`` (same shape and dtype as ``x``; may alias ``x``) for the
    inference form: the result lands in ``out`` and ``(out, None)`` comes
    back — bit-identical values, no ``(x, t)`` backward cache kept alive.
    """
    t = np.multiply(x, x)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    # Training keeps ``t`` for the backward, so there the gate ``1 + t`` is a
    # new array; inference has no use for ``t`` and overwrites it.
    training = out is None
    gate = t + 1.0 if training else np.add(t, 1.0, out=t)
    out = np.multiply(gate, x, out=gate if training else out)
    out *= 0.5
    return out, ((x, t) if training else None)


def gelu_backward(grad: np.ndarray, cache: LayerCache) -> np.ndarray:
    """Backward for :func:`gelu_forward`."""
    x, t = cache
    dt_dx = (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * dt_dx)


# -- embedding ---------------------------------------------------------------------


@tensor_contract(table={"ndim": 2})
def embedding_forward(
    token_ids: np.ndarray, table: np.ndarray
) -> Tuple[np.ndarray, LayerCache]:
    """Row lookup ``table[token_ids]``."""
    return table[token_ids], (token_ids, table.shape)


def embedding_backward(grad: np.ndarray, cache: LayerCache) -> np.ndarray:
    """Scatter-add gradient back into an embedding-table-shaped buffer."""
    token_ids, shape = cache
    dtable = np.zeros(shape, dtype=grad.dtype)
    np.add.at(dtable, token_ids.reshape(-1), grad.reshape(-1, shape[1]))
    return dtable


# -- softmax / cross-entropy -----------------------------------------------------


def stable_softmax(logits: np.ndarray, axis: int = -1,
                   out: np.ndarray = None) -> np.ndarray:
    """Numerically stable softmax.

    Pass ``out`` (same shape as ``logits``; may alias ``logits``) to compute
    in place — the same subtract/exp/normalize sequence, so results are
    bit-identical to the allocating path.
    """
    if out is None:
        shifted = logits - logits.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)
    np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


@tensor_contract(targets={"ndim": 1})
def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. ``logits``.

    Args:
        logits: ``(n, vocab)`` unnormalized scores.
        targets: ``(n,)`` integer class labels; entries equal to ``-1`` are
            ignored (padding positions).

    Returns:
        ``(loss, dlogits)`` where loss is averaged over non-ignored positions.
    """
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    mask = targets >= 0
    n_valid = int(mask.sum())
    probs = stable_softmax(logits)
    dlogits = probs.copy()
    if n_valid == 0:
        return 0.0, np.zeros_like(logits)
    safe_targets = np.where(mask, targets, 0)
    rows = np.arange(logits.shape[0])
    log_probs = np.log(np.clip(probs[rows, safe_targets], 1e-30, None))
    loss = float(-(log_probs * mask).sum() / n_valid)
    dlogits[rows, safe_targets] -= 1.0
    dlogits *= (mask / n_valid)[:, None]
    return loss, dlogits


@tensor_contract(student_logits={"ndim": 2}, teacher_probs={"ndim": 2})
def kl_divergence_loss(
    student_logits: np.ndarray, teacher_probs: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean KL(teacher || student) and gradient w.r.t. student logits.

    Used by distillation: aligning an SSM's distribution with the LLM's.
    """
    student_probs = stable_softmax(student_logits)
    ratio = np.log(np.clip(teacher_probs, 1e-30, None)) - np.log(
        np.clip(student_probs, 1e-30, None)
    )
    n = student_logits.shape[0]
    loss = float((teacher_probs * ratio).sum() / n)
    dlogits = (student_probs - teacher_probs) / n
    return loss, dlogits


def merge_grad(grads: Dict[str, np.ndarray], name: str, value: np.ndarray) -> None:
    """Accumulate ``value`` into ``grads[name]`` (creating it if absent)."""
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value
