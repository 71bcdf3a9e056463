"""Token sampling utilities: greedy, temperature, top-k and top-p.

The paper's verifier supports both greedy decoding and stochastic decoding
(section 4.3); these helpers define the distributions both the LLM and the
SSMs sample from.  ``softmax`` is re-exported here as the canonical way to
turn logits into the distributions consumed by multi-step speculative
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.model.layers import stable_softmax as softmax
from repro.sanitizer import tensor_contract


@dataclass(frozen=True)
class SamplingConfig:
    """How to turn logits into a next-token distribution.

    Attributes:
        temperature: Softmax temperature; values < 1 sharpen.
        top_k: If > 0, keep only the k most likely tokens.
        top_p: If < 1, keep the smallest prefix of tokens whose cumulative
            probability reaches ``top_p`` (nucleus sampling).
        greedy: If True, sampling degenerates to argmax and the other knobs
            are ignored.
    """

    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0
    greedy: bool = False

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not 0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


@tensor_contract(probs={"ndim": 1})
def top_k_filter(probs: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the ``k`` largest probabilities and renormalize."""
    if k <= 0 or k >= probs.shape[-1]:
        return probs
    kept = np.zeros_like(probs)
    idx = np.argpartition(probs, -k)[-k:]
    kept[idx] = probs[idx]
    total = kept.sum()
    if total <= 0:
        raise ValueError("top-k filtering removed all probability mass")
    return kept / total


@tensor_contract(probs={"ndim": 1})
def top_p_filter(probs: np.ndarray, p: float) -> np.ndarray:
    """Nucleus filtering: keep the smallest set with cumulative mass >= p."""
    if p >= 1.0:
        return probs
    order = np.argsort(probs)[::-1]
    cumulative = np.cumsum(probs[order])
    # Keep every token up to and including the first that crosses p.
    cutoff = int(np.searchsorted(cumulative, p)) + 1
    kept = np.zeros_like(probs)
    keep_idx = order[:cutoff]
    kept[keep_idx] = probs[keep_idx]
    return kept / kept.sum()


@tensor_contract(logits={"ndim": 1})
def distribution_from_logits(
    logits: np.ndarray, config: SamplingConfig,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The next-token distribution implied by ``logits`` under ``config``.

    For greedy configs this is a one-hot distribution on the argmax, which
    makes greedy decoding a special case of stochastic verification.

    Pass ``out`` (a float64 ``(vocab,)`` buffer, typically a scratch-arena
    view) to build the distribution without allocating; results are
    bit-identical to the allocating path.  When top-k/top-p filtering is
    active the filtered distribution is a fresh array either way (the
    filters are off on the greedy/serving hot path).
    """
    if config.greedy:
        if out is None:
            # Verification distributions are float64 (MSS ratio/residual math).
            probs = np.zeros(logits.shape[-1], dtype=np.float64)
        else:
            probs = out
            probs[:] = 0.0
        probs[int(np.argmax(logits))] = 1.0
        return probs
    if out is None:
        probs = softmax(logits / config.temperature)
    else:
        np.divide(logits, config.temperature, out=out)
        probs = softmax(out, out=out)
    if config.top_k:
        probs = top_k_filter(probs, config.top_k)
    if config.top_p < 1.0:
        probs = top_p_filter(probs, config.top_p)
    return probs


@tensor_contract(logits={"ndim": 1})
def greedy_token(logits: np.ndarray) -> int:
    """Argmax token id."""
    return int(np.argmax(logits))


@tensor_contract(logits={"ndim": 1})
def sample_token(
    logits: np.ndarray,
    config: SamplingConfig,
    rng: np.random.Generator,
    probs_out: Optional[np.ndarray] = None,
) -> int:
    """Sample a token id from ``logits`` under ``config``.

    ``probs_out`` optionally receives the intermediate distribution (a
    reused scratch buffer keeps stochastic incremental decoding
    allocation-free; greedy sampling never builds a distribution).
    """
    if config.greedy:
        return greedy_token(logits)
    probs = distribution_from_logits(logits, config, out=probs_out)
    return int(rng.choice(probs.shape[-1], p=probs))


@tensor_contract(probs={"ndim": 1})
def sample_from_probs(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a token id from an explicit probability vector."""
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"invalid probability vector (sum={total})")
    return int(rng.choice(probs.shape[-1], p=probs / total))


def top_k_tokens(probs: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` most likely tokens, most likely first.

    ``probs`` is one ``(vocab,)`` distribution or a ``(rows, vocab)`` stack
    of them; the result is ``(k,)`` or ``(rows, k)``.  A stacked call
    returns, row for row, exactly what the one-row calls would.
    """
    if k <= 0:
        return np.empty(probs.shape[:-1] + (0,), dtype=np.intp)
    if k == 1:
        # Most tree levels are one token wide, and argmax costs a twentieth
        # of a partition.
        return np.argmax(probs, axis=-1, keepdims=True)
    k = min(k, probs.shape[-1])
    idx = np.argpartition(probs, -k, axis=-1)[..., -k:]
    order = np.argsort(np.take_along_axis(probs, idx, axis=-1), axis=-1)
    return np.take_along_axis(idx, order[..., ::-1], axis=-1)


def inverse_cdf_tokens(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Token ids drawn from ``probs`` by inverting its CDF at ``uniforms``.

    The arithmetic is ``Generator.choice(vocab, p=probs)``'s own — cumulative
    sum, divide by its last entry, ``searchsorted(side="right")`` — so fed
    the uniforms ``choice`` would have drawn it returns the tokens ``choice``
    would have returned, bit for bit.  Taking the uniforms as an argument is
    what lets a caller decide *which* draw a tree node reads independently
    of the order nodes are visited in.

    ``probs`` is ``(vocab,)`` with ``(k,)`` uniforms, or ``(rows, vocab)``
    with ``(rows, k)``; the result has the shape of ``uniforms``.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    if cdf.ndim == 1:
        return cdf.searchsorted(uniforms, side="right")
    tokens = np.empty(uniforms.shape, dtype=np.intp)
    for row, row_cdf in enumerate(cdf):
        tokens[row] = row_cdf.searchsorted(uniforms[row], side="right")
    return tokens


@tensor_contract(probs={"ndim": 1})
def entropy(probs: np.ndarray, eps: float = 1e-12) -> float:
    """Shannon entropy in nats (used by workload characterization)."""
    clipped = np.clip(probs, eps, None)
    return float(-(probs * np.log(clipped)).sum())
