"""Architecture configuration for the decoder-only transformer substrate.

The paper serves LLaMA-7B/65B and OPT-13B/30B as "LLMs" and LLaMA-68M /
OPT-125M as "small speculative models" (SSMs).  This reproduction scales the
architectures down so they run in NumPy, but keeps the *ratios* the paper
relies on: an SSM is 100-1000x smaller than its LLM, shares the vocabulary,
and uses the same decoder-only architecture.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of a decoder-only transformer language model.

    Attributes:
        vocab_size: Number of tokens in the (shared) vocabulary.
        d_model: Residual-stream width.
        n_layers: Number of transformer blocks.
        n_heads: Number of attention heads; must divide ``d_model``.
        d_ff: Hidden width of the position-wise MLP (defaults to 4x d_model).
        max_seq_len: Maximum sequence length (bounds positional embeddings
            and KV-cache capacity).
        eos_token_id: Token id that terminates generation.
        dtype: NumPy dtype name used for parameters and activations.
        name: Human-readable model name used in logs and reports.
    """

    vocab_size: int = 256
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0
    max_seq_len: int = 256
    eos_token_id: int = 0
    dtype: str = "float64"
    name: str = "transformer-lm"

    def __post_init__(self) -> None:
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by "
                f"n_heads ({self.n_heads})"
            )
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1, got {self.max_seq_len}")
        if not 0 <= self.eos_token_id < self.vocab_size:
            raise ValueError(
                f"eos_token_id ({self.eos_token_id}) out of range for "
                f"vocab_size {self.vocab_size}"
            )

    @property
    def d_head(self) -> int:
        """Per-head dimensionality."""
        return self.d_model // self.n_heads

    def num_parameters(self) -> int:
        """Exact parameter count for this architecture.

        Used by the cluster cost model to derive memory traffic per decoding
        step (the dominant term for LLM inference, per paper section 2).
        """
        embed = (self.vocab_size + self.max_seq_len) * self.d_model
        per_layer = (
            4 * self.d_model * self.d_model  # Wq, Wk, Wv, Wo
            + 4 * self.d_model  # attention biases folded into q,k,v,o
            + 2 * self.d_model * self.d_ff  # MLP up + down
            + self.d_ff
            + self.d_model  # MLP biases
            + 4 * self.d_model  # two LayerNorms (scale + bias)
        )
        final_ln = 2 * self.d_model
        lm_head = self.d_model * self.vocab_size
        return embed + self.n_layers * per_layer + final_ln + lm_head

    def scaled(self, **overrides: object) -> "ModelConfig":
        """Return a copy with some fields overridden."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


def llm_config(vocab_size: int = 512, name: str = "sim-llm") -> ModelConfig:
    """A 'large' model config at reproduction scale."""
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=128,
        n_layers=4,
        n_heads=8,
        max_seq_len=512,
        name=name,
    )


def ssm_config(vocab_size: int = 512, name: str = "sim-ssm") -> ModelConfig:
    """A 'small speculative model' config ~50-100x smaller than llm_config."""
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=32,
        n_layers=2,
        n_heads=2,
        max_seq_len=512,
        name=name,
    )
