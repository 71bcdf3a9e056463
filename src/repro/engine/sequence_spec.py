"""Sequence-based speculative decoding baseline.

Prior speculative-decoding systems (Leviathan et al. 2022, Chen et al. 2023,
blockwise decoding) speculate a *single sequence* of tokens from one SSM and
verify it against the LLM in parallel.  In SpecInfer's formulation this is
exactly a token tree of width 1 — an expansion configuration ⟨1,1,…,1⟩ — so
the baseline is constructed as a configuration of the tree engine, which
also guarantees the comparison in Figure 7 isolates the *tree* contribution
(identical kernels, identical verification machinery, different tree shape).
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.tree_spec import SpecInferEngine
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator


def make_sequence_spec_engine(
    model: TransformerLM,
    ssm,
    depth: int = 8,
) -> SpecInferEngine:
    """Build a sequence-based speculative decoding engine.

    Args:
        model: The LLM (verifier).
        ssm: A single small speculative model.
        depth: Speculation length per step (paper uses 8).

    Returns:
        A :class:`SpecInferEngine` whose speculator emits width-1 trees.
    """
    speculator = Speculator([ssm], ExpansionConfig.sequence(depth))
    return SpecInferEngine(model, speculator)
