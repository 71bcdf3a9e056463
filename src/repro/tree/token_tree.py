"""Token tree data structure (paper Definitions 3.1 and 3.2).

A token tree's nodes each carry a token; the sequence ``S_u`` identified by a
node ``u`` is the concatenation of the tokens on the root-to-``u`` path.  The
root holds the last generated (but not yet verified-against) token, so a
tree with only a root represents pure incremental decoding.

The tree is node-indexed arrays: ``tokens``, ``parents`` (``-1`` for the
root, else ``parents[i] < i``) and ``depths``; children, subtrees and
ancestor sets derive from ``parents``.  A sampled tree also keeps one
``(rows, vocab)`` block of SSM next-token ``proposals`` and ``rows[i]``, the
row node ``i`` was drawn from (``-1``: none), which multi-step speculative
sampling (Algorithm 2) needs for ``P(x | u, LLM) / P(x | u, SSM_s)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class TokenTree:
    """A speculated token tree (Definition 3.1).

    Node 0 is always the root.  Children of a node are deduplicated by token:
    adding an already-present child returns the existing node instead of
    creating a duplicate, which is exactly the tree-merge semantics of
    Definition 3.2 applied incrementally.  A node's children are the nodes
    naming it as parent, in index order.
    """

    __slots__ = ("tokens", "parents", "depths", "proposals", "rows", "_index")

    # Every bare root's parent / proposal-row and depth columns (a tree
    # replaces its arrays when it grows, never writes them in place).
    _ROOT_PARENTS = np.array([-1], dtype=np.intp)
    _ROOT_DEPTHS = np.array([0], dtype=np.intp)
    _ROOT_PARENTS.flags.writeable = _ROOT_DEPTHS.flags.writeable = False

    def __init__(self, root_token: int):
        self.tokens = np.array([root_token], dtype=np.intp)
        self.parents = self.rows = self._ROOT_PARENTS
        self.depths = self._ROOT_DEPTHS
        self.proposals: Optional[np.ndarray] = None
        #: ``(parent, token) -> child``, built from the arrays on first use.
        self._index: Optional[Dict[Tuple[int, int], int]] = None

    @classmethod
    def from_arrays(cls, tokens, parents, depths, rows,
                    proposals=None) -> "TokenTree":
        """A tree over node arrays that satisfy :meth:`validate`."""
        tree = cls.__new__(cls)
        tree.tokens, tree.parents, tree.depths = tokens, parents, depths
        tree.proposals, tree.rows, tree._index = proposals, rows, None
        return tree

    # -- construction ------------------------------------------------------------

    def extend(self, parents: Sequence[int], tokens: Sequence[int],
               rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """Append children ``(parents[j], tokens[j])`` of existing nodes,
        each with proposal row ``rows[j]`` (default none).  A pair already
        in the tree, or earlier in the call, is not added again.  Returns
        each pair's node index."""
        parents = np.asarray(parents, dtype=np.intp).reshape(-1)
        tokens = np.asarray(tokens, dtype=np.intp).reshape(-1)
        n = len(self.tokens)
        if parents.size and (parents.min() < 0 or parents.max() >= n):
            raise IndexError(f"parent index out of range [0, {n})")
        index = self._child_index()
        nodes = np.empty(len(parents), dtype=np.intp)
        fresh: List[int] = []
        for j, key in enumerate(zip(parents.tolist(), tokens.tolist())):
            if key not in index:
                index[key] = n + len(fresh)
                fresh.append(j)
            nodes[j] = index[key]
        if fresh:
            self.tokens = np.concatenate([self.tokens, tokens[fresh]])
            self.depths = np.concatenate(
                [self.depths, self.depths[parents[fresh]] + 1])
            self.parents = np.concatenate([self.parents, parents[fresh]])
            new = (np.full(len(fresh), -1) if rows is None
                   else np.asarray(rows).reshape(-1)[fresh])
            self.rows = np.concatenate([self.rows, new])
        return nodes

    def add_child(self, parent: int, token: int, row: int = -1) -> int:
        """Add (or find) the child of ``parent`` labeled ``token``, drawn
        from proposal row ``row``; returns its index."""
        return int(self.extend([parent], [token],
                               None if row < 0 else [row])[0])

    def add_path(self, tokens: Sequence[int]) -> int:
        """Add a root-anchored path of tokens below the root; returns leaf index."""
        node = 0
        for token in tokens:
            node = self.add_child(node, int(token))
        return node

    def add_proposal(self, probs: np.ndarray) -> int:
        """Append a next-token distribution to the proposal block; returns
        its row."""
        probs = np.asarray(probs, dtype=np.float64)[None, :]
        self.proposals = (probs if self.proposals is None
                          else np.concatenate([self.proposals, probs]))
        return len(self.proposals) - 1

    def select(self, keep: np.ndarray) -> "TokenTree":
        """The tree of the nodes ``keep`` marks, renumbered in index order.

        The first kept node becomes the root, and every other kept node's
        parent must be kept.  Nodes keep their proposal rows (and the
        proposal block is shared).
        """
        root = int(np.argmax(keep))
        renumber = np.cumsum(keep) - 1
        parents = self.parents[keep]
        parents = np.where(parents >= 0, renumber[parents], -1)
        parents[0] = -1
        return TokenTree.from_arrays(
            self.tokens[keep], parents, self.depths[keep] - self.depths[root],
            self.rows[keep], self.proposals)

    def subtree(self, node: int) -> "TokenTree":
        """``node``'s subtree as a tree of its own, rooted at ``node``."""
        return self.select(self._descendants(node))

    def graft(self, node: int, subtree: "TokenTree") -> "TokenTree":
        """This tree with ``node``'s descendants replaced by the nodes of
        ``subtree`` below its root, which stands for ``node``.

        Descendants come after their ancestors, so every node up to
        ``node`` keeps its index; the grafted nodes come last, in
        ``subtree``'s order, with their proposal rows (two trees over the
        same proposal block keep sharing it).
        """
        inside = self._descendants(node)
        inside[node] = False
        base = self.select(~inside) if inside.any() else self
        rows = subtree.rows[1:]
        proposals = base.proposals
        if proposals is None or subtree.proposals is None:
            proposals = subtree.proposals if proposals is None else proposals
        elif subtree.proposals is not proposals:
            rows = np.where(rows >= 0, rows + len(proposals), -1)
            proposals = np.concatenate([proposals, subtree.proposals])
        n = len(base)
        parents = subtree.parents[1:]
        return TokenTree.from_arrays(
            np.concatenate([base.tokens, subtree.tokens[1:]]),
            np.concatenate([base.parents,
                            np.where(parents == 0, node, parents - 1 + n)]),
            np.concatenate([base.depths,
                            subtree.depths[1:] + base.depths[node]]),
            np.concatenate([base.rows, rows]), proposals)

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tokens)

    def proposal_for(self, node: int) -> Optional[np.ndarray]:
        """The distribution ``node``'s token was drawn from, if recorded."""
        row = self.rows[node]
        return None if row < 0 else self.proposals[row]

    def children(self, idx: int) -> np.ndarray:
        """Indices of ``idx``'s children, in insertion order."""
        return np.flatnonzero(self.parents == idx)

    def child_with_token(self, idx: int, token: int) -> int:
        """The child of ``idx`` labeled ``token``, or ``-1``."""
        return self._child_index().get((idx, token), -1)

    def is_leaf(self, idx: int) -> bool:
        return not (self.parents == idx).any()

    def leaves(self) -> np.ndarray:
        """Indices of the nodes without children."""
        return (np.bincount(self.parents[1:], minlength=len(self.tokens))
                == 0).nonzero()[0]

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return int(self.depths.max()) if len(self.depths) > 1 else 0

    def num_speculated(self) -> int:
        """Number of speculated tokens (all nodes except the root)."""
        return len(self.tokens) - 1

    def path_to(self, idx: int) -> List[int]:
        """Node indices on the root-to-``idx`` path, root first."""
        self._check_index(idx)
        path = [idx]
        while self.parents[path[-1]] >= 0:
            path.append(int(self.parents[path[-1]]))
        return path[::-1]

    def sequence_of(self, idx: int) -> Tuple[int, ...]:
        """``S_u``: the token sequence identified by node ``idx`` (Def. 3.1)."""
        return tuple(self.tokens[self.path_to(idx)].tolist())

    def find(self, sequence: Sequence[int]) -> int:
        """The node ``u`` with ``S_u == sequence``, or ``-1``."""
        if not len(sequence) or sequence[0] != self.tokens[0]:
            return -1
        node = 0
        for token in sequence[1:]:
            node = self.child_with_token(node, int(token))
            if node < 0:
                break
        return node

    def sequences(self) -> FrozenSet[Tuple[int, ...]]:
        """The set of all ``S_u`` — the tree's semantic content (Def. 3.2)."""
        return frozenset(self.sequence_of(i) for i in range(len(self)))

    def leaf_sequences(self) -> FrozenSet[Tuple[int, ...]]:
        """Root-to-leaf token sequences only."""
        return frozenset(self.sequence_of(i) for i in self.leaves().tolist())

    def dfs_order(self, root: int = 0) -> List[int]:
        """Node indices of ``root``'s subtree in depth-first order (``root``
        first, children in insertion order) — the KV-cache layout order of
        section 4.2."""
        self._check_index(root)
        kids: Dict[int, List[int]] = {}
        # Descendants of a node come after it.
        for child, parent in enumerate(self.parents[root + 1:].tolist(),
                                       root + 1):
            kids.setdefault(parent, []).append(child)
        order: List[int] = []
        stack = [root]
        while stack:
            order.append(stack.pop())
            stack.extend(reversed(kids.get(order[-1], ())))
        return order

    def trunk(self) -> np.ndarray:
        """The root's single-child chain: node indices from the root down to
        the first node without exactly one child — the first fan-out, or
        the leaf when the tree is a chain.

        Down to it every depth holds one node, and every other node
        descends from it and so comes after it: the trunk is the first
        ``d + 1`` nodes, ``d`` the first depth whose next holds not one.
        """
        per_depth = np.bincount(self.depths).tolist() + [0]
        depth = 0
        while per_depth[depth + 1] == 1:
            depth += 1
        return np.arange(depth + 1)

    def ancestor_matrix(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: entry ``[u, v]`` is True iff ``v`` is an
        ancestor of ``u`` or ``v == u`` (node indices, not DFS positions).

        Parent-pointer doubling: after round ``k`` row ``u`` holds the
        ancestors less than ``2**k`` levels up and ``jump[u]`` is the one
        ``2**k`` levels up, so ``log2(depth)`` rounds of row unions.
        """
        anc = np.eye(len(self.tokens), dtype=bool)
        jump = self.parents.copy()
        up = np.flatnonzero(jump >= 0)
        while up.size:
            anc[up] |= anc[jump[up]]
            jump[up] = jump[jump[up]]
            up = np.flatnonzero(jump >= 0)
        return anc

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation:
        the root's parent is -1, every other node's parent comes before it
        and its depth is one more than its parent's, siblings carry
        distinct tokens, and every proposal row index is in range."""
        parents, depths, n = self.parents, self.depths, len(self.tokens)
        if parents[0] != -1 or depths[0] != 0:
            raise ValueError("root must have parent -1 and depth 0")
        if ((parents[1:] < 0) | (parents[1:] >= np.arange(1, n))).any():
            raise ValueError("a node's parent is not an earlier node")
        if (depths[1:] != depths[parents[1:]] + 1).any():
            raise ValueError("a node has an inconsistent depth")
        if len(set(zip(parents[1:].tolist(), self.tokens[1:].tolist()))) < n - 1:
            raise ValueError("two siblings carry the same token")
        held = 0 if self.proposals is None else len(self.proposals)
        if len(self.rows) != n or ((self.rows < -1)
                                   | (self.rows >= held)).any():
            raise ValueError(f"proposal row index out of range [-1, {held})")

    # -- internals -------------------------------------------------------------------

    def _check_index(self, idx: int) -> None:
        if not 0 <= idx < len(self.tokens):
            raise IndexError(
                f"node index {idx} out of range [0, {len(self.tokens)})")

    def _descendants(self, node: int) -> np.ndarray:
        """Boolean mask of ``node`` and its descendants."""
        self._check_index(node)
        inside = np.zeros(len(self.tokens), dtype=bool)
        inside[node] = True
        # One level further down per round.
        for _ in range(self.max_depth() - int(self.depths[node])):
            inside[node + 1:] |= inside[self.parents[node + 1:]]
        return inside

    def _child_index(self) -> Dict[Tuple[int, int], int]:
        if self._index is None:
            self._index = dict(zip(
                zip(self.parents[1:].tolist(), self.tokens[1:].tolist()),
                range(1, len(self.tokens))))
        return self._index


def merge_trees(trees: Iterable[TokenTree]) -> TokenTree:
    """Merge token trees per Definition 3.2.

    All input trees must share the same root token.  Each input's nodes are
    appended depth by depth, deduplicated by (parent, token), so the result
    holds one node per distinct ``S_u``; proposal blocks are concatenated,
    and a node several inputs hold keeps the first one's proposal row.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("cannot merge an empty collection of trees")
    root_tokens = {int(tree.tokens[0]) for tree in trees}
    if len(root_tokens) != 1:
        raise ValueError(
            f"all trees must share a root token; got {sorted(root_tokens)}"
        )
    merged = TokenTree(root_tokens.pop())
    for tree in trees:
        rows = tree.rows
        if merged.proposals is None:
            merged.proposals = tree.proposals
        elif tree.proposals is not None:
            rows = np.where(rows >= 0, rows + len(merged.proposals), -1)
            merged.proposals = np.concatenate([merged.proposals,
                                               tree.proposals])
        # Where each of this tree's nodes lands in the merge.
        where = np.zeros(len(tree), dtype=np.intp)
        for depth in range(1, tree.max_depth() + 1):
            level = np.flatnonzero(tree.depths == depth)
            where[level] = merged.extend(
                where[tree.parents[level]], tree.tokens[level], rows[level])
    return merged
