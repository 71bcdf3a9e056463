"""Token trees: the data structure at the heart of SpecInfer.

* :mod:`repro.tree.token_tree` -- :class:`TokenTree` (paper Definition 3.1)
  as token / parent / depth arrays, sequence sets, and tree merge
  (Definition 3.2).
* :mod:`repro.tree.masks` -- DFS linearization, the topology-aware causal
  mask, and depth-based positions for tree-parallel decoding (section 4.2).
"""

from repro.tree.token_tree import TokenTree, merge_trees
from repro.tree.masks import (
    LinearizedTree,
    linearize,
    topology_causal_mask,
    tree_positions,
)

__all__ = [
    "TokenTree",
    "merge_trees",
    "LinearizedTree",
    "linearize",
    "topology_causal_mask",
    "tree_positions",
]
