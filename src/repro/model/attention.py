"""Multi-head self-attention with arbitrary additive masks.

This is the hook tree attention (paper section 4.1) plugs into: the attention
primitive takes an *additive* mask of shape ``(n_query, n_key)`` whose entries
are ``0`` (attend) or ``-inf`` (do not attend).  Sequence decoding passes the
ordinary causal mask; tree-parallel decoding passes the *topology-aware
causal mask* built from the token tree (see :mod:`repro.tree.masks`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.model import perf
from repro.model.layers import (
    LayerCache,
    linear_backward,
    linear_forward,
    merge_grad,
    stable_softmax,
)
from repro.model.rope import rope_rotate
from repro.model.scratch import ScratchArena
from repro.sanitizer import tensor_contract

NEG_INF = float("-inf")


def _mask_buffer(shape: Tuple[int, int], dtype: str,
                 out: Optional[np.ndarray]) -> np.ndarray:
    """``out`` validated against ``shape``, or a fresh (counted) buffer."""
    if out is None:
        perf.add_mask_alloc(shape[0] * shape[1])
        return np.empty(shape, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"mask out buffer {out.shape} != expected {shape}")
    return out


class MaskScratch:
    """Persistent per-step attention-mask buffer over a :class:`ScratchArena`.

    The decode loop builds a fresh mask every iteration whose shape creeps
    up as the prefix grows; allocating it anew each step makes the steady
    state allocation-bound.  ``take(rows, cols)`` returns a view of one
    arena-backed buffer.  Pass ``bound=(max_rows, max_cols)`` (typically
    ``(max_seq_len, max_seq_len)``) to allocate the worst case up front, so
    a growing prefix never triggers mid-run reallocation; without a bound
    the buffer grows to the next power of two per dimension.

    Args:
        dtype: Mask element type (the model dtype).
        arena: Arena owning the backing buffer; a private one by default.
        tag: Shape-class key inside the arena (several mask scratches can
            share one arena under distinct tags).
        bound: Optional ``(rows, cols)`` worst case.
    """

    def __init__(self, dtype: str = "float64",
                 arena: Optional[ScratchArena] = None, tag: str = "mask",
                 bound: Optional[Tuple[int, int]] = None):
        self._dtype = dtype
        self._arena = arena if arena is not None else ScratchArena()
        self._tag = tag
        self._bound = bound

    def take(self, rows: int, cols: int) -> np.ndarray:
        """A writable ``(rows, cols)`` view, reusing the buffer if possible."""
        before = self._arena.alloc_events
        view = self._arena.take(self._tag, (rows, cols), self._dtype,
                                bound=self._bound)
        if self._arena.alloc_events != before:
            grown = self._arena.buffer_shape(self._tag, self._dtype)
            perf.add_mask_cells(grown[0] * grown[1])
        return view


def causal_mask(n: int, dtype: str = "float64",
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard lower-triangular causal mask (Equation 4 in the paper).

    Entry ``[j, k]`` is ``0`` when ``j >= k`` (token ``j`` may attend to
    token ``k``) and ``-inf`` otherwise.  Pass ``out`` (an ``(n, n)``
    buffer) to fill in place instead of allocating.
    """
    mask = _mask_buffer((n, n), dtype, out)
    mask[:] = 0.0
    mask[np.triu_indices(n, k=1)] = NEG_INF
    return mask


def cross_mask(n_query: int, n_key: int, query_offset: int,
               dtype: str = "float64",
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Causal mask for queries appended after ``query_offset`` cached keys.

    Query ``j`` (absolute position ``query_offset + j``) may attend to keys
    ``0 .. query_offset + j``.  Pass ``out`` to fill in place.
    """
    mask = _mask_buffer((n_query, n_key), dtype, out)
    mask[:] = 0.0
    cols = np.arange(n_key)[None, :]
    rows = np.arange(n_query)[:, None] + query_offset
    mask[cols > rows] = NEG_INF
    return mask


@tensor_contract(q={"ndim": 3}, k={"ndim": 3}, v={"ndim": 3},
                 mask={"ndim": 2})
def scaled_dot_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Masked scaled-dot-product attention (inference path, no grad).

    Both contractions are ``np.matmul`` over head-major *views* of the
    inputs — ``(h, n_q, d) @ (h, d, n_k)`` and ``(h, n_q, n_k) @ (h, n_k, d)``
    — so each head is one BLAS GEMM reading the (possibly strided) cache
    slices in place; the scale, the mask add and the softmax all run in the
    one ``(h, n_q, n_k)`` score buffer.

    Args:
        q: ``(n_q, h, d_head)`` queries.
        k: ``(n_k, h, d_head)`` keys.
        v: ``(n_k, h, d_head)`` values.
        mask: ``(n_q, n_k)`` additive mask.
        out: Optional ``(n_q, h, d_head)`` buffer the weighted sum is
            written into (a row block of a larger array is fine).

    Returns:
        ``(n_q, h, d_head)`` attention outputs.
    """
    d_head = q.shape[-1]
    perf.add_attention(q.shape[1], q.shape[0], k.shape[0], d_head)
    if out is None:
        out = np.empty_like(q)
    scores = np.matmul(q.transpose(1, 0, 2), k.transpose(1, 2, 0))
    scores /= math.sqrt(d_head)
    scores += mask
    weights = stable_softmax(scores, axis=-1, out=scores)
    np.matmul(weights, v.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return out


@tensor_contract(q={"ndim": 3})
def block_diagonal_attention(
    q: np.ndarray,
    kvs: Sequence[Tuple[np.ndarray, np.ndarray]],
    masks: Sequence[np.ndarray],
    row_offsets: Sequence[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Block-sparse attention: each query block attends only to its own keys.

    The batched-verification score matrix is block-diagonal by construction
    (a request's tree tokens may never see another request's keys), so
    instead of one dense ``(Σn_q, Σn_k)`` pass whose cross-request blocks
    are all ``-inf``, compute one :func:`scaled_dot_attention` per request
    block against that request's keys only.  Score work drops from
    ``O((Σn_q)·(Σn_k))`` to ``O(Σ n_qᵢ·n_kᵢ)`` and no combined mask or
    concatenated K/V tensor is ever materialized.

    Args:
        q: ``(Σn_q, h, d_head)`` queries for the whole batch, request
            blocks contiguous in batch order.
        kvs: Per-request ``(keys, values)`` pairs, each
            ``(n_kᵢ, h, d_head)`` — typically zero-copy cache views.
        masks: Per-request ``(n_qᵢ, n_kᵢ)`` additive masks.
        row_offsets: Start row of each request's query block in ``q``
            (``len(row_offsets) == len(kvs) + 1``; last entry is ``Σn_q``).
        out: Optional ``(Σn_q, h, d_head)`` output buffer (steady-state
            callers pass a reused scratch view).

    Returns:
        ``(Σn_q, h, d_head)`` attention outputs.
    """
    if out is None:
        out = np.empty_like(q)
    elif out.shape != q.shape:
        raise ValueError(f"out buffer {out.shape} != queries {q.shape}")
    for i, ((keys, values), mask) in enumerate(zip(kvs, masks)):
        lo, hi = row_offsets[i], row_offsets[i + 1]
        scaled_dot_attention(q[lo:hi], keys, values, mask, out=out[lo:hi])
    return out


@tensor_contract(x={"ndim": 2})
def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Reshape ``(n, d_model)`` to ``(n, h, d_head)``."""
    n, d = x.shape
    return x.reshape(n, n_heads, d // n_heads)


@tensor_contract(x={"ndim": 3})
def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    n, h, dh = x.shape
    return x.reshape(n, h * dh)


# -- training path (forward + backward over a full sequence) --------------------


@tensor_contract(x={"ndim": 2}, mask={"ndim": 2})
def mha_forward(
    x: np.ndarray,
    params: Dict[str, np.ndarray],
    prefix: str,
    n_heads: int,
    mask: np.ndarray,
    positions: np.ndarray = None,
    use_rope: bool = False,
) -> Tuple[np.ndarray, LayerCache]:
    """Full multi-head self-attention over a sequence, differentiable.

    Args:
        x: ``(n, d_model)`` input activations.
        params: parameter mapping (a :class:`ParameterStore` works).
        prefix: name prefix, e.g. ``"layer0.attn"``.
        n_heads: number of heads.
        mask: ``(n, n)`` additive mask.
        positions: ``(n,)`` absolute positions (required for RoPE).
        use_rope: apply rotary embeddings to queries and keys.
    """
    q, q_cache = linear_forward(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k, k_cache = linear_forward(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v, v_cache = linear_forward(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    qh, kh, vh = (split_heads(t, n_heads) for t in (q, k, v))
    if use_rope:
        if positions is None:
            raise ValueError("RoPE attention requires explicit positions")
        qh = rope_rotate(qh, positions)
        kh = rope_rotate(kh, positions)
    d_head = qh.shape[-1]
    scores = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(d_head)
    scores = scores + mask[None, :, :]
    weights = stable_softmax(scores, axis=-1)
    attn = np.einsum("hqk,khd->qhd", weights, vh)
    merged = merge_heads(attn)
    out, o_cache = linear_forward(
        merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"]
    )
    cache = (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, weights, n_heads,
             positions if use_rope else None)
    return out, cache


@tensor_contract(grad={"ndim": 2})
def mha_backward(
    grad: np.ndarray,
    cache: LayerCache,
    prefix: str,
    grads: Dict[str, np.ndarray],
) -> np.ndarray:
    """Backward for :func:`mha_forward`; accumulates into ``grads``.

    Returns the gradient w.r.t. the layer input ``x``.
    """
    (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, weights, n_heads,
     rope_positions) = cache
    d_head = qh.shape[-1]

    dmerged, dwo, dbo = linear_backward(grad, o_cache)
    merge_grad(grads, f"{prefix}.wo", dwo)
    merge_grad(grads, f"{prefix}.bo", dbo)

    dattn = dmerged.reshape(dmerged.shape[0], n_heads, d_head)
    # attn = weights @ vh
    dweights = np.einsum("qhd,khd->hqk", dattn, vh)
    dvh = np.einsum("hqk,qhd->khd", weights, dattn)
    # softmax backward (rows of weights sum to 1)
    dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dscores /= np.sqrt(d_head)
    dqh = np.einsum("hqk,khd->qhd", dscores, kh)
    dkh = np.einsum("hqk,qhd->khd", dscores, qh)

    if rope_positions is not None:
        # The rotation is orthogonal: its adjoint is the inverse rotation.
        dqh = rope_rotate(dqh, rope_positions, inverse=True)
        dkh = rope_rotate(dkh, rope_positions, inverse=True)

    dq = merge_heads(dqh)
    dk = merge_heads(dkh)
    dv = merge_heads(dvh)

    dx_q, dwq, dbq = linear_backward(dq, q_cache)
    dx_k, dwk, dbk = linear_backward(dk, k_cache)
    dx_v, dwv, dbv = linear_backward(dv, v_cache)
    merge_grad(grads, f"{prefix}.wq", dwq)
    merge_grad(grads, f"{prefix}.bq", dbq)
    merge_grad(grads, f"{prefix}.wk", dwk)
    merge_grad(grads, f"{prefix}.bk", dbk)
    merge_grad(grads, f"{prefix}.wv", dwv)
    merge_grad(grads, f"{prefix}.bv", dbv)
    return dx_q + dx_k + dx_v
