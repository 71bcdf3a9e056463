"""Tests for ASCII tree rendering."""

from repro.tree.render import render_tree, tree_stats_line
from repro.tree.token_tree import TokenTree


def sample_tree():
    tree = TokenTree(1)
    a = tree.add_child(0, 2)
    tree.add_child(0, 3)
    tree.add_child(a, 4)
    return tree, a


class TestRenderTree:
    def test_one_line_per_node(self):
        tree, _ = sample_tree()
        out = render_tree(tree)
        assert len(out.splitlines()) == len(tree)

    def test_root_first_unindented(self):
        tree, _ = sample_tree()
        first = render_tree(tree).splitlines()[0]
        assert first == "1"

    def test_accepted_marked(self):
        tree, a = sample_tree()
        out = render_tree(tree, accepted_nodes=[0, a])
        lines = out.splitlines()
        assert lines[0].endswith("*")
        assert any("2" in l and l.endswith("*") for l in lines)
        assert not any("3" in l and l.endswith("*") for l in lines)

    def test_custom_labels(self):
        tree, _ = sample_tree()
        words = {1: "the", 2: "cat", 3: "dog", 4: "sat"}
        out = render_tree(tree, label=lambda t: words[t])
        assert "cat" in out and "dog" in out

    def test_branch_connectors(self):
        tree, _ = sample_tree()
        out = render_tree(tree)
        assert "|--" in out  # non-last sibling
        assert "`--" in out  # last sibling

    def test_single_node_tree(self):
        out = render_tree(TokenTree(7))
        assert out == "7"


class TestStatsLine:
    def test_contents(self):
        tree, _ = sample_tree()
        line = tree_stats_line(tree)
        assert "4 nodes" in line
        assert "3 speculated" in line
        assert "depth 2" in line
        assert "2 leaves" in line
