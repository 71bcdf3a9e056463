"""Tests for the token tree data structure and merge (Defs. 3.1 / 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.token_tree import TokenTree, merge_trees


def build_sample_tree():
    """Root 5 with branches [10,[12->15,13]] and [11,[14]]."""
    tree = TokenTree(5)
    a = tree.add_child(0, 10)
    b = tree.add_child(0, 11)
    c = tree.add_child(a, 12)
    tree.add_child(a, 13)
    tree.add_child(b, 14)
    tree.add_child(c, 15)
    return tree


class TestConstruction:
    def test_root_properties(self):
        tree = TokenTree(9)
        assert len(tree) == 1
        assert tree.tokens.tolist() == [9]
        assert tree.parents.tolist() == [-1]
        assert tree.depths.tolist() == [0]
        assert tree.num_speculated() == 0

    def test_add_child_sets_depth_and_parent(self):
        tree = TokenTree(1)
        a = tree.add_child(0, 2)
        b = tree.add_child(a, 3)
        assert tree.depths[b] == 2
        assert tree.parents[b] == a

    def test_duplicate_child_merges(self):
        tree = TokenTree(1)
        first = tree.add_proposal(np.full(4, 0.25))
        a = tree.add_child(0, 2, first)
        b = tree.add_child(0, 2, tree.add_proposal(np.full(4, 0.25)))
        assert a == b
        assert tree.rows[a] == first  # the first draw keeps its row
        assert len(tree) == 2

    def test_add_path(self):
        tree = TokenTree(1)
        leaf = tree.add_path([2, 3, 4])
        assert tree.sequence_of(leaf) == (1, 2, 3, 4)
        assert len(tree) == 4

    def test_add_path_shares_prefix(self):
        tree = TokenTree(1)
        tree.add_path([2, 3])
        tree.add_path([2, 4])
        assert len(tree) == 4  # root, 2, 3, 4

    def test_invalid_parent_raises(self):
        tree = TokenTree(1)
        with pytest.raises(IndexError):
            tree.add_child(5, 2)

    def test_set_proposal(self):
        tree = TokenTree(1)
        probs = np.full(8, 1 / 8)
        child = tree.add_child(0, 3, tree.add_proposal(probs))
        np.testing.assert_array_equal(tree.proposal_for(child), probs)
        assert tree.proposal_for(0) is None
        assert tree.proposals.shape == (1, 8)


class TestQueries:
    def test_sequences(self):
        tree = build_sample_tree()
        assert tree.sequences() == frozenset(
            {
                (5,),
                (5, 10),
                (5, 11),
                (5, 10, 12),
                (5, 10, 13),
                (5, 11, 14),
                (5, 10, 12, 15),
            }
        )

    def test_leaf_sequences(self):
        tree = build_sample_tree()
        assert tree.leaf_sequences() == frozenset(
            {(5, 10, 13), (5, 11, 14), (5, 10, 12, 15)}
        )

    def test_max_depth(self):
        assert build_sample_tree().max_depth() == 3
        assert TokenTree(1).max_depth() == 0

    def test_path_to(self):
        tree = build_sample_tree()
        leaf = len(tree) - 1  # token 15
        path = tree.path_to(leaf)
        assert tree.tokens[path].tolist() == [5, 10, 12, 15]

    def test_dfs_order_parents_before_children(self):
        tree = build_sample_tree()
        order = tree.dfs_order()
        position = {node: i for i, node in enumerate(order)}
        for idx, parent in enumerate(tree.parents.tolist()):
            if parent != -1:
                assert position[parent] < position[idx]

    def test_dfs_order_visits_all_once(self):
        tree = build_sample_tree()
        order = tree.dfs_order()
        assert sorted(order) == list(range(len(tree)))

    def test_ancestor_matrix(self):
        tree = build_sample_tree()
        anc = tree.ancestor_matrix()
        assert anc[0, 0]
        leaf = len(tree) - 1
        for v in tree.path_to(leaf):
            assert anc[leaf, v]
        # token 11's node is not an ancestor of token 15's leaf
        assert not anc[leaf, 2]

    def test_validate_accepts_good_tree(self):
        build_sample_tree().validate()

    def test_validate_rejects_corruption(self):
        tree = build_sample_tree()
        tree.depths = tree.depths.copy()
        tree.depths[3] = 7
        with pytest.raises(ValueError, match="depth"):
            tree.validate()


class TestMerge:
    def test_merge_unions_sequences(self):
        t1 = TokenTree(1)
        t1.add_path([2, 3])
        t2 = TokenTree(1)
        t2.add_path([2, 4])
        t2.add_path([5])
        merged = merge_trees([t1, t2])
        assert merged.sequences() == t1.sequences() | t2.sequences()

    def test_merge_definition_3_2(self):
        """Every S_u of each input exists in the merge, and vice versa."""
        t1 = TokenTree(1)
        t1.add_path([2, 3, 4])
        t2 = TokenTree(1)
        t2.add_path([2, 3, 5])
        merged = merge_trees([t1, t2])
        for tree in (t1, t2):
            assert tree.sequences() <= merged.sequences()
        assert merged.sequences() <= t1.sequences() | t2.sequences()

    def test_merge_requires_same_root(self):
        with pytest.raises(ValueError, match="root token"):
            merge_trees([TokenTree(1), TokenTree(2)])

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_trees([])

    def test_merge_preserves_attribution(self):
        """A node several inputs proposed keeps the first input's proposal
        row: the distribution its token was drawn from."""
        q1, q2 = np.full(4, 0.25), np.array([0.7, 0.1, 0.1, 0.1])
        t1 = TokenTree(1)
        t1.add_child(0, 2, t1.add_proposal(q1))
        t2 = TokenTree(1)
        row = t2.add_proposal(q2)
        t2.add_child(0, 2, row)
        t2.add_child(0, 3, row)
        merged = merge_trees([t1, t2])
        two, three = (merged.child_with_token(0, t) for t in (2, 3))
        np.testing.assert_array_equal(merged.proposal_for(two), q1)
        np.testing.assert_array_equal(merged.proposal_for(three), q2)

    def test_merge_preserves_proposals(self):
        t1 = TokenTree(1)
        t1.add_child(0, 2, t1.add_proposal(np.full(4, 0.25)))
        t2 = TokenTree(1)
        t2.add_child(0, 3, t2.add_proposal(np.array([0.7, 0.1, 0.1, 0.1])))
        merged = merge_trees([t1, t2])
        assert merged.proposals.shape == (2, 4)
        merged.validate()

    def test_merge_idempotent(self):
        tree = build_sample_tree()
        merged = merge_trees([tree, tree])
        assert merged.sequences() == tree.sequences()
        assert len(merged) == len(tree)


# -- property-based: merge laws over random trees ------------------------------

@st.composite
def random_tree(draw):
    tree = TokenTree(draw(st.integers(0, 7)))
    n_ops = draw(st.integers(0, 12))
    for _ in range(n_ops):
        parent = draw(st.integers(0, len(tree) - 1))
        token = draw(st.integers(0, 7))
        tree.add_child(parent, token)
    return tree


@st.composite
def random_tree_pair(draw):
    root = draw(st.integers(0, 7))
    trees = []
    for _ in range(2):
        tree = TokenTree(root)
        for _ in range(draw(st.integers(0, 10))):
            parent = draw(st.integers(0, len(tree) - 1))
            tree.add_child(parent, draw(st.integers(0, 7)))
        trees.append(tree)
    return trees


class TestMergeProperties:
    @given(random_tree_pair())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_sequence_union(self, pair):
        merged = merge_trees(pair)
        merged.validate()
        assert merged.sequences() == pair[0].sequences() | pair[1].sequences()

    @given(random_tree_pair())
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative_on_sequences(self, pair):
        ab = merge_trees(pair)
        ba = merge_trees(pair[::-1])
        assert ab.sequences() == ba.sequences()

    @given(random_tree())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_validate_and_dedup(self, tree):
        tree.validate()
        # No parent has two children with the same token.
        for node in range(len(tree)):
            tokens = tree.tokens[tree.children(node)].tolist()
            assert len(tokens) == len(set(tokens))

    @given(random_tree())
    @settings(max_examples=60, deadline=None)
    def test_sequences_count_equals_nodes(self, tree):
        """Distinct nodes identify distinct sequences (Def. 3.1)."""
        assert len(tree.sequences()) == len(tree)


# -- property-based: the arrays against a plain parent-list model ---------------


class ParentList:
    """The reference model: a parent list and a token list, one node
    appended at a time, siblings deduplicated by a linear scan, every query
    answered by walking parent pointers."""

    def __init__(self, root):
        self.parent = [-1]
        self.token = [root]

    def add(self, parent, token):
        for node in range(1, len(self.parent)):
            if self.parent[node] == parent and self.token[node] == token:
                return node
        self.parent.append(parent)
        self.token.append(token)
        return len(self.parent) - 1

    def children(self, node):
        return [c for c in range(1, len(self.parent)) if self.parent[c] == node]

    def path(self, node):
        path = [node]
        while self.parent[path[-1]] != -1:
            path.append(self.parent[path[-1]])
        return path[::-1]

    def depth(self, node):
        return len(self.path(node)) - 1

    def dfs(self, node=0):
        order = [node]
        for child in self.children(node):
            order += self.dfs(child)
        return order

    def bfs(self):
        order = [0]
        for node in order:
            order += self.children(node)
        return order

    def trunk(self):
        trunk = [0]
        while len(self.children(trunk[-1])) == 1:
            trunk.append(self.children(trunk[-1])[0])
        return trunk

    def sequence(self, node):
        return tuple(self.token[i] for i in self.path(node))


@st.composite
def level_built(draw, root=None):
    """A tree and its reference, grown by level appends: each level draws
    candidates below the previous level's new nodes (or any node), from a
    four-token alphabet, so repeated draws of one token are common."""
    root = draw(st.integers(0, 3)) if root is None else root
    tree, ref = TokenTree(root), ParentList(root)
    frontier = [0]
    for _ in range(draw(st.integers(0, 4))):
        anywhere = draw(st.booleans())
        pool = list(range(len(ref.parent))) if anywhere else frontier
        draws = draw(st.lists(
            st.tuples(st.sampled_from(pool), st.integers(0, 3)),
            min_size=1, max_size=8))
        parents, tokens = zip(*draws)
        known = len(tree)
        nodes = tree.extend(parents, tokens).tolist()
        assert nodes == [ref.add(p, t) for p, t in draws]
        frontier = [n for n in dict.fromkeys(nodes) if n >= known] or [0]
    return tree, ref


class TestAgainstParentList:
    @given(level_built())
    @settings(max_examples=80, deadline=None)
    def test_arrays_and_child_order(self, built):
        tree, ref = built
        tree.validate()
        assert tree.tokens.tolist() == ref.token
        assert tree.parents.tolist() == ref.parent
        assert tree.depths.tolist() == [ref.depth(n) for n in range(len(ref.parent))]
        for node in range(len(tree)):
            assert tree.children(node).tolist() == ref.children(node)
            assert tree.is_leaf(node) == (not ref.children(node))
        assert tree.leaves().tolist() == [
            n for n in range(len(ref.parent)) if not ref.children(n)]

    @given(level_built())
    @settings(max_examples=80, deadline=None)
    def test_orders_and_paths(self, built):
        tree, ref = built
        assert tree.dfs_order() == ref.dfs()
        assert tree.trunk().tolist() == ref.trunk()
        for node in range(len(tree)):
            assert tree.dfs_order(node) == ref.dfs(node)
            assert tree.path_to(node) == ref.path(node)
            assert tree.sequence_of(node) == ref.sequence(node)

    @given(level_built())
    @settings(max_examples=80, deadline=None)
    def test_ancestor_matrix_by_doubling_is_the_path_walk(self, built):
        tree, ref = built
        n = len(ref.parent)
        walked = np.zeros((n, n), dtype=bool)
        for node in range(n):
            walked[node, ref.path(node)] = True
        np.testing.assert_array_equal(tree.ancestor_matrix(), walked)

    @given(level_built(), st.integers(1, 12), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_prune_to_size_keeps_a_bfs_prefix(self, built, limit, max_depth):
        from repro.engine.pipeline import prune_to_size

        tree, ref = built
        kept = [n for n in ref.bfs() if ref.depth(n) <= max_depth][:limit]
        pruned = prune_to_size(tree, limit, max_depth=max_depth)
        pruned.validate()
        assert len(pruned) == len(kept)
        assert pruned.sequences() == {ref.sequence(n) for n in kept}
        # Survivors keep their relative order.
        assert pruned.tokens.tolist() == [ref.token[n] for n in sorted(kept)]

    @given(st.integers(0, 3).flatmap(
        lambda root: st.tuples(level_built(root), level_built(root))))
    @settings(max_examples=80, deadline=None)
    def test_merge_is_the_union_of_sequences(self, pair):
        (a, _), (b, _) = pair
        merged = merge_trees([a, b])
        merged.validate()
        assert merged.sequences() == a.sequences() | b.sequences()
