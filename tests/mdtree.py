"""Readers of modular decomposition trees for the tests.

They read only a node's ``kind``, ``vertex``, ``children``, ``mask`` and
``pattern.has_edge``, so they import nothing from the package under test.
"""

from __future__ import annotations

from itertools import combinations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nodes(root):
    """Every node of the tree, each parent before its children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def mdtree_to_sexpr(node) -> str:
    """The tree as an s-expression, children in order, with no recursion."""
    out = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.kind == "leaf":
            out.append(f"(leaf {item.vertex})")
        else:
            out.append(f"({item.kind} ")
            # pushed in reverse, so the children pop in order before the ")"
            stack.append(")")
            for i, ch in enumerate(reversed(item.children)):
                if i:
                    stack.append(" ")
                stack.append(ch)
    return "".join(out)


def expand_mdtree(node) -> set[tuple[int, int]]:
    """Edge set the tree describes, for checking it reproduces the graph."""
    edges: set[tuple[int, int]] = set()
    for nd in _nodes(node):
        for i, j in combinations(range(len(nd.children)), 2):
            joined = nd.kind == "join" or (
                nd.kind == "prime" and nd.pattern.has_edge(i, j)
            )
            if joined:
                for u in _bits(nd.children[i].mask):
                    for v in _bits(nd.children[j].mask):
                        edges.add((min(u, v), max(u, v)))
    return edges
