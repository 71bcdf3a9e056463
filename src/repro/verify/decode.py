"""Tree-based parallel decoding and the sequence-based reference (section 4.2).

``tree_parallel_decode`` scores *every* node of a token tree in a single
fused pass over the LLM: tree tokens are appended to the KV cache in DFS
order and attention is computed under the topology-aware causal mask, so the
logits obtained for node ``u`` are identical to what incremental decoding of
the sequence ``S_u`` would produce (Definition 4.1 — tested bit-exactly).

``sequence_parallel_decode`` is the baseline existing systems would use: the
tree is decomposed into root-to-leaf sequences, each decoded with its own
kernel and its own KV-cache region.  It produces the same outputs and also
reports the redundancy statistics (kernel launches, duplicated token
computations) that drive the Figure 11 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.model.attention import cross_mask
from repro.model.kv_cache import KVCache
from repro.model.sampling import SamplingConfig, distribution_from_logits
from repro.model.transformer import TransformerLM
from repro.tree.masks import (
    LinearizedTree,
    linearize,
    topology_causal_mask,
    tree_positions,
)
from repro.tree.token_tree import TokenTree


@dataclass
class TreeDecodeOutput:
    """LLM outputs 𝒪 for every node of a token tree.

    Attributes:
        lin: The DFS linearization used (maps nodes to KV-cache slots).
        logits: ``(n, vocab)`` logits in linear order; row ``lin.slot_of[u]``
            is the LLM's next-token logits after the sequence ``S_u``.
        prefix_len: KV-cache length before the tree tokens were appended.
    """

    lin: LinearizedTree
    logits: np.ndarray
    prefix_len: int

    def logits_for_node(self, node_idx: int) -> np.ndarray:
        """Next-token logits for tree node ``node_idx``."""
        return self.logits[self.lin.slot_of[node_idx]]

    def distribution_for_node(
        self, node_idx: int, config: SamplingConfig
    ) -> np.ndarray:
        """Next-token distribution at ``node_idx`` under ``config``."""
        return distribution_from_logits(self.logits_for_node(node_idx), config)

    def greedy_token_for_node(self, node_idx: int) -> int:
        """Argmax token at ``node_idx`` (greedy 𝒪(u))."""
        return int(np.argmax(self.logits_for_node(node_idx)))


def tree_parallel_decode(
    model: TransformerLM, cache: KVCache, tree: TokenTree,
    mask_out: np.ndarray = None, scratch=None,
) -> TreeDecodeOutput:
    """Score all tree tokens against ``model`` in one fused pass.

    The tree tokens (root included — the root is the last generated token
    whose KV is not yet cached) are appended to ``cache`` in DFS order.  The
    caller is responsible for compacting the cache to the accepted path
    afterwards (see :class:`repro.engine.batched.BatchedTreeVerifier`).

    Args:
        mask_out: Optional ``(n, prefix + n)`` buffer for the topology mask
            (persistent callers pass a reused scratch so the steady-state
            loop allocates no masks).
        scratch: Optional :class:`~repro.model.scratch.ScratchArena` for the
            model's staging buffers (QKV, attention output, logits).  The
            returned logits then alias arena memory and are only valid until
            the next decode with the same arena.
    """
    lin = linearize(tree)
    prefix_len = cache.length
    mask = topology_causal_mask(lin, prefix_len, dtype=model.config.dtype,
                                out=mask_out)
    positions = tree_positions(lin, prefix_len)
    logits = model.forward_masked(lin.tokens, positions, mask, cache,
                                  scratch=scratch)
    return TreeDecodeOutput(lin=lin, logits=logits, prefix_len=prefix_len)


@dataclass
class SequenceDecodeStats:
    """Cost accounting for sequence-based decoding of a tree (Figure 11).

    Attributes:
        num_kernels: One per root-to-leaf sequence (kernel launches).
        tokens_computed: Total token positions processed across kernels —
            shared prefixes are recomputed per sequence, so this exceeds the
            tree's node count whenever the tree branches.
        unique_tokens: Number of distinct tree nodes (what tree-based
            decoding computes exactly once).
    """

    num_kernels: int
    tokens_computed: int
    unique_tokens: int

    @property
    def redundancy_factor(self) -> float:
        """How much extra work sequence decoding does vs tree decoding."""
        return self.tokens_computed / max(self.unique_tokens, 1)


def sequence_parallel_decode(
    model: TransformerLM, cache: KVCache, tree: TokenTree
) -> tuple:
    """Reference decoding: one kernel per root-to-leaf sequence.

    Returns ``(outputs, stats)`` where ``outputs`` maps node index -> logits
    (same semantics as :class:`TreeDecodeOutput`) and ``stats`` is a
    :class:`SequenceDecodeStats`.  The cache is restored to its entry state;
    this path exists for equivalence testing and cost comparison, not for
    production use.
    """
    prefix_len = cache.length
    outputs: Dict[int, np.ndarray] = {}
    tokens_computed = 0
    num_kernels = 0
    leaf_nodes = [i for i in range(len(tree)) if tree.is_leaf(i)]
    for leaf in leaf_nodes:
        path = tree.path_to(leaf)
        seq = np.array([tree.nodes[i].token for i in path], dtype=np.intp)
        n = len(seq)
        positions = np.arange(prefix_len, prefix_len + n)
        mask = cross_mask(n, prefix_len + n, prefix_len, dtype=model.config.dtype)
        logits = model.forward_masked(seq, positions, mask, cache)
        cache.truncate(prefix_len)
        num_kernels += 1
        tokens_computed += n
        for row, node_idx in enumerate(path):
            # Shared prefixes produce identical logits in every kernel; keep
            # the first computation.
            if node_idx not in outputs:
                outputs[node_idx] = logits[row]
    stats = SequenceDecodeStats(
        num_kernels=num_kernels,
        tokens_computed=tokens_computed,
        unique_tokens=len(tree),
    )
    return outputs, stats
