"""Paper-scale model descriptors for the cost model.

These :class:`~repro.model.config.ModelConfig` instances describe the real
architectures the paper serves, so ``num_parameters()`` yields the correct
weight volumes (the first-order driver of decoding latency).  They are never
instantiated as NumPy weights — only their dimensions feed the cost model.
"""

from __future__ import annotations

from typing import Dict

from repro.model.config import ModelConfig

#: Architectures from the paper's evaluation (section 6.1 / appendix A.3.4).
#: LLaMA models use a SwiGLU FFN (three weight matrices at intermediate
#: width w); this repository's MLP has two, so LLaMA descriptors carry an
#: *effective* d_ff = 1.5w that preserves the exact FFN parameter count —
#: what the cost models consume.
PAPER_MODELS: Dict[str, ModelConfig] = {
    # LLMs
    "llama-7b": ModelConfig(
        vocab_size=32000, d_model=4096, n_layers=32, n_heads=32,
        d_ff=16512, max_seq_len=2048, name="llama-7b",  # 1.5 x 11008
    ),
    "opt-13b": ModelConfig(
        vocab_size=50272, d_model=5120, n_layers=40, n_heads=40,
        d_ff=20480, max_seq_len=2048, name="opt-13b",
    ),
    "opt-30b": ModelConfig(
        vocab_size=50272, d_model=7168, n_layers=48, n_heads=56,
        d_ff=28672, max_seq_len=2048, name="opt-30b",
    ),
    "llama-65b": ModelConfig(
        vocab_size=32000, d_model=8192, n_layers=80, n_heads=64,
        d_ff=33024, max_seq_len=2048, name="llama-65b",  # 1.5 x 22016
    ),
    # SSMs
    "llama-68m": ModelConfig(
        vocab_size=32000, d_model=768, n_layers=2, n_heads=12,
        d_ff=4608, max_seq_len=2048, name="llama-68m",  # 1.5 x 3072
    ),
    "opt-125m": ModelConfig(
        vocab_size=50272, d_model=768, n_layers=12, n_heads=12,
        d_ff=3072, max_seq_len=2048, name="opt-125m",
    ),
}


def paper_model(name: str) -> ModelConfig:
    """Look up a paper-scale model descriptor by name."""
    if name not in PAPER_MODELS:
        raise KeyError(
            f"unknown paper model {name!r}; known: {sorted(PAPER_MODELS)}"
        )
    return PAPER_MODELS[name]


def kv_bytes_per_token(config: ModelConfig, bytes_per_value: int = 2) -> int:
    """KV-cache bytes appended per token (keys + values, all layers)."""
    return 2 * config.n_layers * config.d_model * bytes_per_value
