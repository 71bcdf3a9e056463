"""Tree linearization, topology-aware causal masks, and tree positions.

This module implements the machinery of paper section 4.2 (tree-based
parallel decoding):

* tokens of a token tree are laid out in the KV cache in **DFS order**;
* a **topology-aware causal mask** lets a single fused attention pass compute,
  for every node ``u``, exactly the attention it would receive if its
  root-to-``u`` sequence were decoded alone (Definition 4.1, tree attention);
* positions are **depth-based** (``prefix_len + depth``), so shared prefixes
  share position embeddings across branches, exactly as in sequence decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.model.attention import NEG_INF, _mask_buffer
from repro.tree.token_tree import TokenTree


@dataclass(frozen=True)
class LinearizedTree:
    """A token tree flattened to DFS order for tree-parallel decoding.

    Attributes:
        order: ``order[i]`` is the tree-node index occupying linear slot ``i``.
        slot_of: ``slot_of[node_index] = linear slot`` (``-1``: left out).
        tokens: ``(n,)`` token ids in linear order.
        parents: ``(n,)`` linear slot of each slot's parent (-1 for the root).
        depths: ``(n,)`` node depths in linear order.
    """

    order: np.ndarray
    slot_of: np.ndarray
    tokens: np.ndarray
    parents: np.ndarray
    depths: np.ndarray

    @property
    def num_tokens(self) -> int:
        return len(self.order)


def linearize(tree: TokenTree,
              nodes: Optional[Sequence[int]] = None) -> LinearizedTree:
    """Flatten ``tree`` to DFS order (the KV-cache layout of Figure 4).

    ``nodes`` lays out part of the tree instead: DFS-ordered node indices
    whose first node is an ancestor of every other (a node's subtree, or
    the root's trunk).  Depths then count from that first node, which
    becomes a root (parent slot ``-1``).
    """
    order = np.asarray(tree.dfs_order() if nodes is None else nodes,
                       dtype=np.intp)
    slot_of = np.empty(len(tree), dtype=np.intp)
    slot_of.fill(-1)
    slot_of[order] = np.arange(len(order))
    parents = slot_of[tree.parents[order]]
    parents[0] = -1
    depths = tree.depths[order]
    return LinearizedTree(order=order, slot_of=slot_of,
                          tokens=tree.tokens[order], parents=parents,
                          depths=depths - depths[0])


def topology_causal_mask(
    lin: LinearizedTree, prefix_len: int, dtype: str = "float64",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The topology-aware causal mask of section 4.2.

    Returns an additive mask of shape ``(n, prefix_len + n)`` where ``n`` is
    the number of tree tokens.  Tree token ``j`` may attend to:

    * every position of the already-verified prefix (columns ``< prefix_len``),
    * itself and its tree ancestors (columns ``prefix_len + k`` where slot
      ``k`` is on the root-to-``j`` path).

    Everything else is ``-inf`` — in particular *siblings and their subtrees*,
    which is what repairs the causality violations that naive batching of
    tree tokens would introduce (the paper's ``t7`` vs ``t5`` example).

    A parent's slot precedes its children's, so one pass over the slots
    builds the ancestors: a slot's row is its parent's row plus itself.

    Pass ``out`` (an ``(n, prefix_len + n)`` buffer) to fill in place — the
    steady-state decode loop reuses one scratch buffer across iterations
    instead of allocating a fresh mask every step.
    """
    n = lin.num_tokens
    mask = _mask_buffer((n, prefix_len + n), dtype, out)
    mask[:, :prefix_len] = 0.0
    ancestors = np.zeros((n, n), dtype=bool)
    ancestors[0, 0] = True
    for slot, parent in enumerate(lin.parents[1:].tolist(), 1):
        ancestors[slot] = ancestors[parent]
        ancestors[slot, slot] = True
    mask[:, prefix_len:] = NEG_INF
    np.copyto(mask[:, prefix_len:], 0.0, where=ancestors)
    return mask


def tree_positions(lin: LinearizedTree, prefix_len: int) -> np.ndarray:
    """Depth-based absolute positions: ``prefix_len + depth`` per tree token.

    Two tokens at the same depth on different branches occupy the same
    *position* (they are alternative candidates for the same sequence slot)
    even though they occupy different KV-cache rows.
    """
    return prefix_len + lin.depths
