"""Logit-coupled small speculative models (SSMs).

The paper's SSMs (LLaMA-68M, OPT-125M) align with their LLMs because they
were pre-trained on the same corpus; Table 1 measures that alignment at
top-1 hit rates of 52-70% and top-5 of 82-97%.  Offline we cannot pre-train
real model pairs, so this module provides a *calibrated* substitute (see
DESIGN.md substitution table): a ``CoupledSSM`` whose next-token distribution
is a deterministic, context-dependent perturbation of a base model's
distribution.  The ``alignment`` knob moves the agreement statistics through
the paper's observed range, so benchmarks can reproduce the Table 1 / Table 2
spread across datasets.

The perturbation is deterministic in the token context, which matters for
correctness: multi-step speculative sampling divides by ``P(x | u, SSM)``,
so the SSM must define a genuine conditional distribution (the same context
must always yield the same probabilities).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.model.config import ModelConfig
from repro.model.layers import stable_softmax
from repro.model.transformer import TransformerLM
from repro.sanitizer import tensor_contract


@dataclass
class CoupledCache:
    """Decode state for a :class:`CoupledSSM`: base cache + token context."""

    base_cache: object
    context: List[int] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.context)

    @property
    def capacity(self) -> int:
        return self.base_cache.capacity

    def snapshot(self) -> tuple:
        return (self.base_cache.snapshot(), len(self.context))

    def restore(self, snap: tuple) -> None:
        base_snap, n = snap
        self.base_cache.restore(base_snap)
        del self.context[n:]


class CoupledSSM:
    """An SSM whose distribution is a perturbed view of a base model's.

    With ``alignment=1.0`` the SSM is the base model exactly (oracle
    speculation); as ``alignment`` decreases, context-keyed Gaussian noise is
    added to the base logits and the temperature is raised, producing the
    partial-agreement regime of real SSM/LLM pairs.

    The class exposes the same decode surface as :class:`TransformerLM`
    (``new_cache`` / ``prefill`` / ``decode`` / ``next_distribution``), so the
    speculator can drive trained small transformers and coupled SSMs
    interchangeably.
    """

    def __init__(
        self,
        base: TransformerLM,
        alignment: float = 0.7,
        seed: int = 0,
        noise_scale: float = 4.0,
        uniform_mix: float = 2.0,
        name: Optional[str] = None,
        nominal_config: Optional[ModelConfig] = None,
    ):
        if not 0.0 <= alignment <= 1.0:
            raise ValueError(f"alignment must be in [0, 1], got {alignment}")
        if uniform_mix < 0:
            raise ValueError(f"uniform_mix must be >= 0, got {uniform_mix}")
        self.base = base
        self.alignment = alignment
        self.seed = seed
        self.noise_scale = noise_scale
        self.uniform_mix = uniform_mix
        self._name = name or f"coupled-ssm(a={alignment:.2f},seed={seed})"
        # The cost model charges the SSM at a nominal small-model size, not
        # at the base model's size (the coupling is a statistical stand-in
        # for a genuinely small model).
        self.nominal_config = nominal_config or base.config.scaled(
            d_model=max(8, base.config.d_model // 4),
            n_heads=max(1, base.config.n_heads // 4),
            n_layers=max(1, base.config.n_layers // 2),
            name=self._name,
        )

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def config(self) -> ModelConfig:
        return self.nominal_config

    def num_parameters(self) -> int:
        return self.nominal_config.num_parameters()

    # -- decode surface ----------------------------------------------------------

    def new_cache(self, capacity: int = 0) -> CoupledCache:
        return CoupledCache(base_cache=self.base.new_cache(capacity=capacity))

    @tensor_contract(tokens={"ndim": 1})
    def prefill(self, tokens: np.ndarray, cache: CoupledCache,
                scratch=None) -> np.ndarray:
        logits = self.base.prefill(tokens, cache.base_cache, scratch=scratch)
        cache.context.extend(int(t) for t in np.asarray(tokens).reshape(-1))
        return self._perturb(logits[-1], cache.context)[None, :]

    def decode(self, token: int, cache: CoupledCache) -> np.ndarray:
        logits = self.base.decode(token, cache.base_cache)
        cache.context.append(int(token))
        return self._perturb(logits, cache.context)

    def next_distribution(
        self, token: int, cache: CoupledCache, temperature: float = 1.0
    ) -> np.ndarray:
        logits = self.decode(token, cache)
        return stable_softmax(logits / max(temperature, 1e-8))

    # -- internals -----------------------------------------------------------------

    def _context_rng(self, context: List[int]) -> np.random.Generator:
        """Deterministic RNG keyed by (seed, token context)."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.seed.to_bytes(8, "little", signed=True))
        h.update(np.asarray(context, dtype=np.int64).tobytes())
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def _perturb(self, logits: np.ndarray, context: List[int]) -> np.ndarray:
        """Apply alignment-controlled, context-deterministic perturbation.

        Two effects compose, both scaled by ``1 - alignment``:

        * Gaussian logit noise (amplitude relative to the base logits'
          spread), which reorders the top-k ranking the way a smaller
          model's preferences drift from a larger one's, and
        * a uniform mixture (mass ``uniform_mix * (1 - alignment)``), which
          models the smaller model's diffuse misallocation of probability —
          it leaves rankings intact (greedy/top-k statistics unchanged) but
          lowers the distribution overlap ``sum_x min(p, q)`` that governs
          stochastic acceptance rates, matching the paper's observation
          that stochastic verification accepts less than greedy.

        The returned values are the (log-space) logits of the mixed
        distribution, so softmax of the output recovers it exactly.
        """
        if self.alignment >= 1.0:
            return logits
        rng = self._context_rng(context)
        spread = float(np.std(logits)) or 1.0
        sigma = self.noise_scale * (1.0 - self.alignment) * spread
        noise = rng.normal(0.0, sigma, size=logits.shape)
        probs = stable_softmax(logits + noise)
        eps = min(0.9, self.uniform_mix * (1.0 - self.alignment))
        mixed = (1.0 - eps) * probs + eps / probs.shape[-1]
        return np.log(mixed)
