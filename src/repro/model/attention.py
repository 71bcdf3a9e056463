"""Multi-head self-attention with arbitrary additive masks.

This is the hook tree attention (paper section 4.1) plugs into: the attention
primitive takes an *additive* mask of shape ``(n_query, n_key)`` whose entries
are ``0`` (attend) or ``-inf`` (do not attend).  Sequence decoding passes the
ordinary causal mask; tree-parallel decoding passes the *topology-aware
causal mask* built from the token tree (see :mod:`repro.tree.masks`).
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.model import perf
from repro.model.layers import (
    LayerCache,
    linear_backward,
    linear_forward,
    merge_grad,
    stable_softmax,
)
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


class SlotKV(NamedTuple):
    """One layer of a batch laid out slot-major (see :func:`slot_layout`).

    Block ``b`` of the batch lives in slot ``slots[b]`` of a span of ``S``
    equal-size cache slots; ``keys`` / ``values`` are the span's first
    ``L`` rows, ``(S, L, h, d_head)`` views of one slab.
    """

    keys: np.ndarray
    values: np.ndarray
    #: ``(S, Q, L)`` additive bias: each block's mask in its slot's first
    #: rows, ``-inf`` past its keys (padding rows and idle slots see key 0
    #: alone).
    bias: np.ndarray
    #: Row of each query in the ``S·Q`` grid, or ``None`` when the queries
    #: already are that grid (every slot of the span busy with ``Q`` rows).
    index: Optional[np.ndarray]


def slot_layout(masks: Sequence[np.ndarray], slots: Sequence[int],
                n_slots: int, row_offsets: Sequence[int], dtype: str
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The ``(bias, index)`` of a :class:`SlotKV` for blocks in ``slots``.

    Built once per forward (every layer shares it): block ``b``'s
    ``(n_qᵦ, n_kᵦ)`` mask lands in ``bias[slots[b], :n_qᵦ, :n_kᵦ]``; every
    other entry is ``-inf``, except that rows holding no query see key 0,
    so that their (discarded) softmax stays finite.
    """
    counts = [mask.shape[0] for mask in masks]
    rows = max(counts)
    bias = np.full((n_slots, rows, max(mask.shape[1] for mask in masks)),
                   NEG_INF, dtype=dtype)
    bias[:, :, 0] = 0.0
    for mask, slot, count in zip(masks, slots, counts):
        bias[slot, :count, : mask.shape[1]] = mask
    if (len(masks) == n_slots and min(counts) == rows
            and list(slots) == list(range(n_slots))):
        return bias, None
    starts = np.asarray(row_offsets[:-1], dtype=np.intp)
    index = (np.repeat(np.asarray(slots, dtype=np.intp) * rows - starts,
                       counts)
             + np.arange(row_offsets[-1]))
    return bias, index


def _slot_major_attention(q: np.ndarray, kv: SlotKV,
                          out: np.ndarray) -> np.ndarray:
    """Every block at once: one batched ``matmul`` pair and one softmax
    over the ``(S, h, Q, L)`` scores of the whole span."""
    n_slots, rows, n_keys = kv.bias.shape
    _, n_heads, d_head = q.shape
    perf.add_attention(n_heads, n_slots * rows, n_keys, d_head)
    if kv.index is None:
        grid = q.reshape(n_slots, rows, n_heads, d_head)
    else:
        grid = np.zeros((n_slots * rows, n_heads, d_head), dtype=q.dtype)
        grid[kv.index] = q
        grid = grid.reshape(n_slots, rows, n_heads, d_head)
    scores = np.matmul(grid.transpose(0, 2, 1, 3),
                       kv.keys.transpose(0, 2, 3, 1))
    scores /= math.sqrt(d_head)
    scores += kv.bias[:, None]
    weights = stable_softmax(scores, axis=-1, out=scores)
    values = kv.values.transpose(0, 2, 1, 3)
    if kv.index is None and out.flags.c_contiguous:
        np.matmul(weights, values,
                  out=out.reshape(grid.shape).transpose(0, 2, 1, 3))
        return out
    result = np.empty(grid.shape, dtype=q.dtype)
    np.matmul(weights, values, out=result.transpose(0, 2, 1, 3))
    result = result.reshape(-1, n_heads, d_head)
    if kv.index is None:
        out[...] = result
    else:
        np.take(result, kv.index, axis=0, out=out)
    return out


@tensor_contract(q={"ndim": 3})
def block_diagonal_attention(
    q: np.ndarray,
    kvs: Union[Sequence[Tuple[np.ndarray, np.ndarray]], SlotKV],
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

    Small blocks are call overhead rather than arithmetic, so when every
    block's keys sit in an equal-size slot of one slab the caller passes a
    :class:`SlotKV` instead, and all blocks are scored together, padded to
    the span's ``(S, Q, L)`` grid (slot-major order; the caller picks it by
    shape, see :data:`repro.model.transformer.SLOT_BLOCK_CELLS`).

    Args:
        q: ``(Σn_q, h, d_head)`` queries for the whole batch, request
            blocks contiguous in batch order.
        kvs: Per-request ``(keys, values)`` pairs, each
            ``(n_kᵢ, h, d_head)`` — typically zero-copy cache views — or
            one :class:`SlotKV` for the slot-major order.
        masks: Per-request ``(n_qᵢ, n_kᵢ)`` additive masks (a
            :class:`SlotKV` carries them in its bias); a block with no
            query rows is skipped.
        row_offsets: Start row of each request's query block in ``q``
            (``len(row_offsets) == len(masks) + 1``; last entry is ``Σn_q``).
        out: Optional ``(Σn_q, h, d_head)`` output buffer (steady-state
            callers pass a reused scratch view).

    Returns:
        ``(Σn_q, h, d_head)`` attention outputs.
    """
    if out is None:
        out = np.empty_like(q)
    elif out.shape != q.shape:
        raise ValueError(f"out buffer {out.shape} != queries {q.shape}")
    if isinstance(kvs, SlotKV):
        return _slot_major_attention(q, kvs, out)
    for i, ((keys, values), mask) in enumerate(zip(kvs, masks)):
        lo, hi = row_offsets[i], row_offsets[i + 1]
        if lo < hi:
            scaled_dot_attention(q[lo:hi], keys, values, mask,
                                 out=out[lo:hi])
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
) -> Tuple[np.ndarray, LayerCache]:
    """Full multi-head self-attention over a sequence, differentiable.

    Args:
        x: ``(n, d_model)`` input activations.
        params: parameter mapping (a :class:`ParameterStore` works).
        prefix: name prefix, e.g. ``"layer0.attn"``.
        n_heads: number of heads.
        mask: ``(n, n)`` additive mask.
    """
    q, q_cache = linear_forward(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k, k_cache = linear_forward(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v, v_cache = linear_forward(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    qh, kh, vh = (split_heads(t, n_heads) for t in (q, k, v))
    d_head = qh.shape[-1]
    scores = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(d_head)
    scores = scores + mask[None, :, :]
    weights = stable_softmax(scores, axis=-1)
    attn = np.einsum("hqk,khd->qhd", weights, vh)
    merged = merge_heads(attn)
    out, o_cache = linear_forward(
        merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"]
    )
    cache = (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, weights, n_heads)
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
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, weights, n_heads = cache
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
