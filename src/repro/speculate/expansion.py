"""Expansion-based token tree construction (paper section 3, Figure 3).

A static *expansion configuration* ⟨k1, …, km⟩ fixes the tree shape: ``m`` is
the maximum number of speculative decoding steps and ``k_i`` is how many
top-k tokens each frontier node expands into at step ``i``.  The paper's
main experiments use ⟨1,1,3,1,1,1,1,1⟩ (depth 8, expanding at the third
token); Table 2 and Figures 9/10 sweep ⟨1,1,k,1,1,1,1,1⟩ for k = 1..5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.model.layers import stable_softmax
from repro.model.sampling import inverse_cdf_tokens, top_k_tokens
from repro.tree.token_tree import TokenTree


@dataclass(frozen=True)
class ExpansionConfig:
    """A static expansion configuration ⟨k1, …, km⟩.

    Attributes:
        widths: ``widths[i]`` is the branching factor applied at speculative
            step ``i`` (1-indexed ``k_{i+1}`` in the paper's notation).
    """

    widths: Tuple[int, ...] = (1, 1, 3, 1, 1, 1, 1, 1)

    def __post_init__(self) -> None:
        if not self.widths:
            raise ValueError("expansion configuration must be non-empty")
        if any(k < 1 for k in self.widths):
            raise ValueError(f"all widths must be >= 1, got {self.widths}")

    @property
    def depth(self) -> int:
        """Maximum number of speculative steps ``m``."""
        return len(self.widths)

    @property
    def num_sequences(self) -> int:
        """Number of root-to-leaf sequences the expanded tree contains."""
        product = 1
        for k in self.widths:
            product *= k
        return product

    def max_tree_tokens(self) -> int:
        """Upper bound on speculated tokens (exact when no dedup occurs)."""
        total = 0
        frontier = 1
        for k in self.widths:
            frontier *= k
            total += frontier
        return total

    def level_offsets(self) -> Tuple[int, ...]:
        """Where each level's draws start in a stochastic call's uniform block.

        A stochastic expansion draws ``max_tree_tokens()`` uniforms up front,
        one per candidate the full tree could hold, level after level.  The
        node reached from the root by child ranks ``r_1 … r_d`` has path index
        ``p = (…(r_1·k_2 + r_2)·k_3 + …) + r_d`` and samples its ``k_{d+1}``
        candidates from entries ``level_offsets()[d] + p·k_{d+1} + j``; its
        ``j``-th candidate has path index ``p·k_{d+1} + j``.  Which uniform a
        node reads therefore depends on where it sits, never on when it is
        visited.
        """
        offsets = []
        total = 0
        frontier = 1
        for k in self.widths:
            offsets.append(total)
            frontier *= k
            total += frontier
        return tuple(offsets)

    @classmethod
    def paper_default(cls) -> "ExpansionConfig":
        """⟨1,1,3,1,1,1,1,1⟩ — the configuration used in sections 6.2/6.3."""
        return cls((1, 1, 3, 1, 1, 1, 1, 1))

    @classmethod
    def width_sweep(cls, width: int, depth: int = 8,
                    expand_step: int = 2) -> "ExpansionConfig":
        """⟨1,1,k,1,…⟩ used by the section 6.4 tree-width study."""
        if not 0 <= expand_step < depth:
            raise ValueError(f"expand_step {expand_step} out of range")
        widths = [1] * depth
        widths[expand_step] = width
        return cls(tuple(widths))

    @classmethod
    def sequence(cls, depth: int = 8) -> "ExpansionConfig":
        """All-ones configuration: sequence-based speculation baseline."""
        return cls((1,) * depth)


def expand_token_tree(
    ssm,
    root_token: int,
    cache,
    config: ExpansionConfig,
    stochastic: bool = False,
    rng: "np.random.Generator" = None,
) -> TokenTree:
    """Build a token tree from one SSM under a static expansion config.

    The SSM is driven depth-first with cache snapshot/restore, so on return
    ``cache`` is exactly as it was on entry.  The decode pipeline never
    calls this: its drafter,
    :class:`~repro.speculate.packed.PackedSpeculator`, builds the same
    trees level by level, and this loop is the reference it is tested
    against (through :meth:`~repro.speculate.speculator.Speculator.
    speculate`).

    Two proposal modes:

    * deterministic (default): each node expands into the SSM's top-``k_i``
      tokens — the right choice for greedy decoding, where verification
      compares against the LLM's argmax;
    * ``stochastic=True``: each node expands into ``k_i`` tokens drawn
      i.i.d. from the SSM's distribution (duplicates merge).  Multi-step
      speculative sampling is only distribution-preserving (Theorem 4.2)
      when candidates are *samples* from the recorded proposal
      distribution, so stochastic decoding must use this mode.  Every call
      takes one block of ``config.max_tree_tokens()`` uniforms from ``rng``
      — however small the tree turns out — and a node inverts its CDF at
      the entries its position selects
      (:meth:`ExpansionConfig.level_offsets`); a duplicate draw merges into
      the child its first occurrence made.  The tree is thus a function of
      (``rng``'s stream, ``config``, the SSM) and not of this depth-first
      visiting order, which is what lets the packed drafter build the same
      tree level by level.

    Args:
        ssm: Any model exposing ``decode(token, cache) -> logits`` and a
            snapshot/restore-capable cache (``TransformerLM`` or
            ``CoupledSSM``).
        root_token: The pending token — the last generated token, which
            becomes the tree root.
        cache: SSM cache holding the verified prefix (excluding the root).
        config: Expansion configuration ⟨k1…km⟩.
        stochastic: Sample candidates instead of taking top-k.
        rng: Randomness for stochastic proposals (required when
            ``stochastic=True``).

    Returns:
        The expanded :class:`TokenTree`; a stochastic one records, per node,
        the proposal row its token was drawn from (a greedy one records no
        proposals: only :func:`~repro.verify.stochastic.verify_stochastic`
        reads them).
    """
    if stochastic and rng is None:
        raise ValueError("stochastic expansion requires an rng")
    tree = TokenTree(root_token)
    entry_snapshot = cache.snapshot()
    uniforms = rng.random(config.max_tree_tokens()) if stochastic else None
    offsets = config.level_offsets()

    def expand(node_idx: int, token: int, step: int, path: int) -> None:
        if step >= config.depth:
            return
        if cache.length + 1 > cache.capacity:
            return  # SSM context limit reached; stop this branch
        logits = ssm.decode(token, cache)
        probs = stable_softmax(np.asarray(logits, dtype=np.float64))
        row = tree.add_proposal(probs) if stochastic else -1
        width = config.widths[step]
        if stochastic:
            lo = offsets[step] + path * width
            drawn = inverse_cdf_tokens(probs, uniforms[lo : lo + width])
        else:
            drawn = top_k_tokens(probs, width)
        for rank, candidate in enumerate(drawn.tolist()):
            known = len(tree)
            child_idx = tree.add_child(node_idx, candidate, row)
            if len(tree) == known:
                continue  # duplicate sample: the first draw's child stands
            snap = cache.snapshot()
            expand(child_idx, candidate, step + 1, path * width + rank)
            cache.restore(snap)

    expand(0, int(root_token), 0, 0)
    cache.restore(entry_snapshot)
    return tree
