"""ASCII rendering of token trees (debugging / example output).

Renders a :class:`~repro.tree.token_tree.TokenTree` as an indented tree,
optionally marking the verifier-accepted path and labeling tokens through a
tokenizer — the textual analogue of the paper's Figure 2/3 diagrams.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from repro.tree.token_tree import TokenTree


def render_tree(
    tree: TokenTree,
    accepted_nodes: Optional[Iterable[int]] = None,
    label: Optional[Callable[[int], str]] = None,
) -> str:
    """Render ``tree`` as indented ASCII.

    Args:
        tree: The token tree.
        accepted_nodes: Node indices on the verified path; marked ``*``.
        label: Maps a token id to a display string (default: the id).

    Returns:
        A multi-line string, one node per line, root first.
    """
    accepted: Set[int] = set(accepted_nodes or ())
    label = label or str
    lines: List[str] = []

    def describe(idx: int) -> str:
        mark = " *" if idx in accepted else ""
        return f"{label(int(tree.tokens[idx]))}{mark}"

    def walk(idx: int, prefix: str, is_last: bool) -> None:
        if idx == 0:
            lines.append(describe(idx))
        else:
            connector = "`-- " if is_last else "|-- "
            lines.append(prefix + connector + describe(idx))
        children = tree.children(idx).tolist()
        for i, child in enumerate(children):
            if idx == 0:
                child_prefix = ""
            else:
                child_prefix = prefix + ("    " if is_last else "|   ")
            walk(child, child_prefix, i == len(children) - 1)

    walk(0, "", True)
    return "\n".join(lines)


def tree_stats_line(tree: TokenTree) -> str:
    """One-line summary: nodes, depth, leaves (log-friendly)."""
    leaves = len(tree.leaves())
    return (
        f"tree: {len(tree)} nodes ({tree.num_speculated()} speculated), "
        f"depth {tree.max_depth()}, {leaves} leaves"
    )
