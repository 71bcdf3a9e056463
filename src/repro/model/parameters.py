"""Named parameter store with initialization, serialization and arithmetic.

The transformer keeps all weights in a flat ``{name: ndarray}`` mapping so the
trainer, the boost-tuner and the checkpoints all share one representation.
"""

from __future__ import annotations

import io
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.model.config import ModelConfig


class ParameterStore:
    """Flat named-tensor container for transformer weights.

    Names follow the convention::

        tok_embed, pos_embed,
        layer{i}.ln1.scale, layer{i}.ln1.bias,
        layer{i}.attn.{wq,wk,wv,wo}, layer{i}.attn.{bq,bk,bv,bo},
        layer{i}.ln2.scale, layer{i}.ln2.bias,
        layer{i}.mlp.{w1,b1,w2,b2},
        final_ln.scale, final_ln.bias, lm_head
    """

    def __init__(self, params: Dict[str, np.ndarray]):
        self._params = self._unpack_fused(params)
        # Memoized per-prefix packed QKV weights (see ``packed_qkv``);
        # invalidated whenever the underlying parameters change.
        self._packed: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _unpack_fused(params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Compatibility shim: split packed ``*.wqkv``/``*.bqkv`` tensors.

        Canonical storage stays the unpacked ``wq``/``wk``/``wv`` triplet
        (the training path updates them independently, and every checkpoint
        this repository writes stores them that way).  Checkpoints
        that instead carry fused ``wqkv`` tensors are split on load so both
        layouts keep working.
        """
        unpacked: Dict[str, np.ndarray] = {}
        for name, value in params.items():
            if name.endswith(".wqkv"):
                prefix = name[: -len(".wqkv")]
                wq, wk, wv = np.split(value, 3, axis=1)
                unpacked[f"{prefix}.wq"] = np.ascontiguousarray(wq)
                unpacked[f"{prefix}.wk"] = np.ascontiguousarray(wk)
                unpacked[f"{prefix}.wv"] = np.ascontiguousarray(wv)
            elif name.endswith(".bqkv"):
                prefix = name[: -len(".bqkv")]
                bq, bk, bv = np.split(value, 3)
                unpacked[f"{prefix}.bq"] = np.ascontiguousarray(bq)
                unpacked[f"{prefix}.bk"] = np.ascontiguousarray(bk)
                unpacked[f"{prefix}.bv"] = np.ascontiguousarray(bv)
            else:
                unpacked[name] = value
        return unpacked

    def packed_qkv(self, prefix: str) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized ``(d, 3d)`` weight / ``(3d,)`` bias fusing Q, K and V.

        The decode hot path runs one packed GEMM per layer instead of three
        (``x @ wqkv`` then split), which matters every single step.  The
        packed tensors are rebuilt lazily after any parameter update, so
        training and boost-tuning see fresh weights.
        """
        cached = self._packed.get(prefix)
        if cached is None:
            cached = (
                np.concatenate(
                    [self[f"{prefix}.wq"], self[f"{prefix}.wk"],
                     self[f"{prefix}.wv"]],
                    axis=1,
                ),
                np.concatenate(
                    [self[f"{prefix}.bq"], self[f"{prefix}.bk"],
                     self[f"{prefix}.bv"]]
                ),
            )
            self._packed[prefix] = cached
        return cached

    # -- construction ------------------------------------------------------

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> "ParameterStore":
        """Randomly initialize all weights for ``config``.

        Uses scaled-normal init (std 0.02, residual projections scaled by
        1/sqrt(2*n_layers) as in GPT-2) so tiny models produce well-behaved
        distributions without training.
        """
        rng = np.random.default_rng(seed)
        dtype = np.dtype(config.dtype)
        std = 0.02
        resid_std = std / np.sqrt(2.0 * config.n_layers)

        def normal(shape: Tuple[int, ...], scale: float = std) -> np.ndarray:
            return rng.normal(0.0, scale, size=shape).astype(dtype)

        d, f, v = config.d_model, config.d_ff, config.vocab_size
        params: Dict[str, np.ndarray] = {
            "tok_embed": normal((v, d)),
            "final_ln.scale": np.ones(d, dtype=dtype),
            "final_ln.bias": np.zeros(d, dtype=dtype),
            "lm_head": normal((d, v)),
            "pos_embed": normal((config.max_seq_len, d)),
        }
        for i in range(config.n_layers):
            p = f"layer{i}"
            params[f"{p}.ln1.scale"] = np.ones(d, dtype=dtype)
            params[f"{p}.ln1.bias"] = np.zeros(d, dtype=dtype)
            params[f"{p}.attn.wq"] = normal((d, d))
            params[f"{p}.attn.wk"] = normal((d, d))
            params[f"{p}.attn.wv"] = normal((d, d))
            params[f"{p}.attn.wo"] = normal((d, d), resid_std)
            params[f"{p}.attn.bq"] = np.zeros(d, dtype=dtype)
            params[f"{p}.attn.bk"] = np.zeros(d, dtype=dtype)
            params[f"{p}.attn.bv"] = np.zeros(d, dtype=dtype)
            params[f"{p}.attn.bo"] = np.zeros(d, dtype=dtype)
            params[f"{p}.ln2.scale"] = np.ones(d, dtype=dtype)
            params[f"{p}.ln2.bias"] = np.zeros(d, dtype=dtype)
            params[f"{p}.mlp.w1"] = normal((d, f))
            params[f"{p}.mlp.b1"] = np.zeros(f, dtype=dtype)
            params[f"{p}.mlp.w2"] = normal((f, d), resid_std)
            params[f"{p}.mlp.b2"] = np.zeros(d, dtype=dtype)
        return cls(params)

    # -- mapping interface --------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name in self._params and self._params[name].shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name}: "
                f"{self._params[name].shape} vs {value.shape}"
            )
        self._params[name] = value
        self._packed.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[Tuple[str, np.ndarray]]:
        return iter(self._params.items())

    def names(self) -> Tuple[str, ...]:
        return tuple(self._params.keys())

    # -- utilities -----------------------------------------------------------

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.size for p in self._params.values()))

    def num_bytes(self, bytes_per_param: int = 2) -> int:
        """Model size in bytes at the given precision (default FP16)."""
        return self.num_parameters() * bytes_per_param

    def copy(self) -> "ParameterStore":
        """Deep copy (used to snapshot weights during boost-tuning)."""
        return ParameterStore({k: v.copy() for k, v in self._params.items()})

    def zeros_like(self) -> "ParameterStore":
        """A store of zero tensors with matching shapes (gradient buffers)."""
        return ParameterStore(
            {k: np.zeros_like(v) for k, v in self._params.items()}
        )

    def add_scaled(self, other: "ParameterStore", scale: float) -> None:
        """In-place ``self += scale * other`` (SGD-style update)."""
        for name, value in other.items():
            self._params[name] += scale * value
        self._packed.clear()

    def global_norm(self) -> float:
        """L2 norm over all parameters (used for gradient clipping)."""
        total = 0.0
        for value in self._params.values():
            # Accumulate in float64 so the norm cannot overflow in float32.
            total += float(np.sum(value.astype(np.float64) ** 2))
        return float(np.sqrt(total))

    # -- serialization --------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialize to an ``.npz`` checkpoint."""
        np.savez(path, **self._params)

    @classmethod
    def load(cls, path: str) -> "ParameterStore":
        """Load from an ``.npz`` checkpoint produced by :meth:`save`."""
        with np.load(path) as data:
            return cls({k: data[k] for k in data.files})

    def to_bytes(self) -> bytes:
        """Serialize to in-memory bytes (used by tests)."""
        buf = io.BytesIO()
        np.savez(buf, **self._params)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ParameterStore":
        """Inverse of :meth:`to_bytes`."""
        with np.load(io.BytesIO(raw)) as data:
            return cls({k: data[k] for k in data.files})
