"""Rotary position embeddings (RoPE), as used by the LLaMA family.

RoPE encodes a token's absolute position by rotating each consecutive pair
of query/key channels by a position-dependent angle; attention scores then
depend only on *relative* positions.  For tree-parallel decoding this
composes cleanly with depth-based positions: two sibling candidates at the
same depth receive the same rotation, exactly as they would if decoded in
each other's place.

The rotation is orthogonal and linear per position, so its backward pass is
the inverse rotation — used by the differentiable attention path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.sanitizer import tensor_contract


@lru_cache(maxsize=32)
def _angle_table(max_positions: int, d_head: int, base: float) -> Tuple:
    """Precomputed (cos, sin) tables of shape ``(max_positions, d_head/2)``."""
    half = d_head // 2
    # One-time cached table: angles are computed at full precision.
    inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.outer(np.arange(max_positions, dtype=np.float64), inv_freq)
    return np.cos(angles), np.sin(angles)


@tensor_contract(x={"ndim": 3}, positions={"ndim": 1})
def rope_rotate(
    x: np.ndarray,
    positions: np.ndarray,
    base: float = 10000.0,
    inverse: bool = False,
    max_positions: int = 4096,
) -> np.ndarray:
    """Apply (or invert) the rotary embedding for the given positions.

    Args:
        x: ``(n, h, d_head)`` queries or keys; ``d_head`` must be even.
        positions: ``(n,)`` absolute positions.
        base: RoPE frequency base (10000 in LLaMA).
        inverse: Rotate by the negative angle (the backward pass).
        max_positions: Size of the cached angle table.

    Returns:
        The rotated tensor, same shape as ``x``.
    """
    n, h, d_head = x.shape
    if d_head % 2 != 0:
        raise ValueError(f"d_head must be even for RoPE, got {d_head}")
    positions = np.asarray(positions, dtype=np.intp)
    if positions.shape != (n,):
        raise ValueError(
            f"positions shape {positions.shape} does not match {n} tokens"
        )
    table_size = max(max_positions, int(positions.max(initial=0)) + 1)
    cos, sin = _angle_table(table_size, d_head, float(base))
    c = cos[positions][:, None, :]  # (n, 1, half)
    s = sin[positions][:, None, :]
    if inverse:
        s = -s
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * c - x2 * s
    out[..., 1::2] = x1 * s + x2 * c
    return out


@tensor_contract(q={"ndim": 3}, k={"ndim": 3})
def relative_score_invariance_check(
    q: np.ndarray, k: np.ndarray, shift: int, base: float = 10000.0
) -> float:
    """Max deviation of RoPE dot products under a global position shift.

    RoPE's defining property: ``<R(p)q, R(m)k>`` depends only on ``p - m``.
    Exposed as a utility so tests (and users validating custom bases) can
    check the invariance numerically.
    """
    n = q.shape[0]
    positions = np.arange(n)
    q0 = rope_rotate(q, positions, base=base)
    k0 = rope_rotate(k, positions, base=base)
    q1 = rope_rotate(q, positions + shift, base=base)
    k1 = rope_rotate(k, positions + shift, base=base)
    scores0 = np.einsum("qhd,khd->hqk", q0, k0)
    scores1 = np.einsum("qhd,khd->hqk", q1, k1)
    return float(np.abs(scores0 - scores1).max())
