"""Token tree data structure (paper Definitions 3.1 and 3.2).

A token tree's nodes each carry a token; the sequence ``S_u`` identified by a
node ``u`` is the concatenation of the tokens on the root-to-``u`` path.  The
root holds the last generated (but not yet verified-against) token, so a
tree with only a root represents pure incremental decoding.

Nodes additionally record, per small speculative model (SSM), the *full
next-token distribution that SSM assigned at this node* when it proposed
children.  Multi-step speculative sampling (Algorithm 2, ``VerifyStochastic``)
needs these distributions to compute the acceptance ratio
``P(x | u, LLM) / P(x | u, SSM_s)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class TreeNode:
    """One node of a :class:`TokenTree`.

    Attributes:
        token: The token this node is labeled with (``t_u``).
        parent: Index of the parent node, or ``-1`` for the root.
        depth: Distance from the root (root has depth 0).
        children: Indices of child nodes, in insertion order.
        ssm_ids: Which SSMs proposed this node (empty for the root).
        proposals: Per-SSM next-token distributions *at* this node,
            ``ssm_id -> (vocab,) probability vector``; populated when an SSM
            expands this node's children.
    """

    token: int
    parent: int
    depth: int
    children: List[int] = field(default_factory=list)
    ssm_ids: Set[int] = field(default_factory=set)
    proposals: Dict[int, np.ndarray] = field(default_factory=dict)


class TokenTree:
    """A speculated token tree (Definition 3.1).

    Node 0 is always the root.  Children of a node are deduplicated by token:
    adding an already-present child merges SSM attribution instead of
    creating a duplicate, which is exactly the tree-merge semantics of
    Definition 3.2 applied incrementally.
    """

    def __init__(self, root_token: int):
        self.nodes: List[TreeNode] = [TreeNode(token=int(root_token), parent=-1,
                                               depth=0)]

    # -- construction ------------------------------------------------------------

    def add_child(self, parent: int, token: int,
                  ssm_id: Optional[int] = 0) -> int:
        """Add (or merge) a child of ``parent`` labeled ``token``.

        Returns the index of the (possibly pre-existing) child node.
        ``ssm_id=None`` adds the node without attributing it to any SSM
        (used when grafting during merge, where attribution is copied
        separately).
        """
        self._check_index(parent)
        token = int(token)
        for child_idx in self.nodes[parent].children:
            if self.nodes[child_idx].token == token:
                if ssm_id is not None:
                    self.nodes[child_idx].ssm_ids.add(ssm_id)
                return child_idx
        idx = len(self.nodes)
        self.nodes.append(
            TreeNode(
                token=token,
                parent=parent,
                depth=self.nodes[parent].depth + 1,
                ssm_ids=set() if ssm_id is None else {ssm_id},
            )
        )
        self.nodes[parent].children.append(idx)
        return idx

    def add_path(self, tokens: Sequence[int], ssm_id: int = 0) -> int:
        """Add a root-anchored path of tokens below the root; returns leaf index."""
        node = 0
        for token in tokens:
            node = self.add_child(node, int(token), ssm_id=ssm_id)
        return node

    def set_proposal(self, node: int, ssm_id: int, probs: np.ndarray) -> None:
        """Record SSM ``ssm_id``'s next-token distribution at ``node``."""
        self._check_index(node)
        self.nodes[node].proposals[ssm_id] = np.asarray(probs, dtype=np.float64)

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def node(self, idx: int) -> TreeNode:
        self._check_index(idx)
        return self.nodes[idx]

    def children(self, idx: int) -> List[int]:
        self._check_index(idx)
        return list(self.nodes[idx].children)

    def is_leaf(self, idx: int) -> bool:
        self._check_index(idx)
        return not self.nodes[idx].children

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max(node.depth for node in self.nodes)

    def num_speculated(self) -> int:
        """Number of speculated tokens (all nodes except the root)."""
        return len(self.nodes) - 1

    def path_to(self, idx: int) -> List[int]:
        """Node indices on the root-to-``idx`` path, root first."""
        self._check_index(idx)
        path = []
        while idx != -1:
            path.append(idx)
            idx = self.nodes[idx].parent
        return path[::-1]

    def sequence_of(self, idx: int) -> Tuple[int, ...]:
        """``S_u``: the token sequence identified by node ``idx`` (Def. 3.1)."""
        return tuple(self.nodes[i].token for i in self.path_to(idx))

    def sequences(self) -> FrozenSet[Tuple[int, ...]]:
        """The set of all ``S_u`` — the tree's semantic content (Def. 3.2)."""
        return frozenset(self.sequence_of(i) for i in range(len(self.nodes)))

    def leaf_sequences(self) -> FrozenSet[Tuple[int, ...]]:
        """Root-to-leaf token sequences only."""
        return frozenset(
            self.sequence_of(i) for i in range(len(self.nodes)) if self.is_leaf(i)
        )

    def dfs_order(self, root: int = 0) -> List[int]:
        """Node indices of ``root``'s subtree in depth-first order (``root``
        first, children in insertion order) — the KV-cache layout order of
        section 4.2."""
        order: List[int] = []
        stack = [root]
        while stack:
            idx = stack.pop()
            order.append(idx)
            stack.extend(reversed(self.nodes[idx].children))
        return order

    def trunk(self) -> List[int]:
        """The root's single-child chain: node indices from the root down to
        the first node without exactly one child — the first fan-out, or
        the leaf when the tree is a chain."""
        path = [0]
        while len(self.nodes[path[-1]].children) == 1:
            path.append(self.nodes[path[-1]].children[0])
        return path

    def ancestor_matrix(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: entry ``[u, v]`` is True iff ``v`` is an
        ancestor of ``u`` or ``v == u`` (node indices, not DFS positions)."""
        n = len(self.nodes)
        anc = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for v in self.path_to(u):
                anc[u, v] = True
        return anc

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.nodes[0].parent != -1:
            raise ValueError("root must have parent -1")
        for idx, node in enumerate(self.nodes):
            if idx == 0:
                continue
            if not 0 <= node.parent < len(self.nodes):
                raise ValueError(f"node {idx} has invalid parent {node.parent}")
            parent = self.nodes[node.parent]
            if idx not in parent.children:
                raise ValueError(f"node {idx} missing from parent's child list")
            if node.depth != parent.depth + 1:
                raise ValueError(f"node {idx} has inconsistent depth")
        seen = [0] * len(self.nodes)
        for idx in self.dfs_order():
            seen[idx] += 1
        if any(count != 1 for count in seen):
            raise ValueError("tree is not connected or has duplicate reachability")

    def _check_index(self, idx: int) -> None:
        if not 0 <= idx < len(self.nodes):
            raise IndexError(f"node index {idx} out of range [0, {len(self.nodes)})")


def merge_trees(trees: Iterable[TokenTree]) -> TokenTree:
    """Merge token trees per Definition 3.2.

    All input trees must share the same root token.  The result contains a
    node for every distinct ``S_u`` across the inputs (and nothing else);
    per-SSM proposals and attributions are unioned.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("cannot merge an empty collection of trees")
    root_tokens = {tree.root.token for tree in trees}
    if len(root_tokens) != 1:
        raise ValueError(
            f"all trees must share a root token; got {sorted(root_tokens)}"
        )
    merged = TokenTree(trees[0].root.token)
    for tree in trees:
        _graft(tree, 0, merged, 0)
    return merged


def _graft(src: TokenTree, src_idx: int, dst: TokenTree, dst_idx: int) -> None:
    """Recursively copy ``src``'s subtree at ``src_idx`` into ``dst``."""
    src_node = src.nodes[src_idx]
    dst_node = dst.nodes[dst_idx]
    for ssm_id, probs in src_node.proposals.items():
        dst_node.proposals.setdefault(ssm_id, probs)
    dst_node.ssm_ids.update(src_node.ssm_ids)
    for child_idx in src_node.children:
        child = src.nodes[child_idx]
        # add_child merges by token; attribution is unioned in the recursion.
        new_idx = dst.add_child(dst_idx, child.token, ssm_id=None)
        _graft(src, child_idx, dst, new_idx)
