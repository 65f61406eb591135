"""The vertex walk of the tree formula, kept as the oracle.

The engine evaluates the tree formula children first
(`forest.add_tree_formula`): each child's memoized image is spliced into
its slot.  Before that, the formula walked every vertex of the tree and
rebuilt the whole tree for each term.  The walk's helpers, `vertices`,
`subtree_at`, `replace_at_path`, `delete_at_path` and `contract_vertex`,
and the former `substitute_at_path` that read them, are kept here, as they
were, for the tests to compare the engine with (`test_vertex_walk.py`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ktforest.forest import (AlgebraElement, Node, TreeError, accumulate, canonicalize_node,
                             is_leaf, node, tree_degree)


def subtree_at(tree: Node, path: tuple) -> Node:
    for i in path:
        tree = tree[1][i]
    return tree


def vertices(tree: Node) -> List[Tuple[tuple, Node, int]]:
    """Every vertex as (path, subtree, weight), in planar DFS preorder.

    The weight gives the sign of a substitution at the vertex: zero at the
    root; at a child, its parent's weight minus one plus the degrees of the
    subtrees to its left.
    """
    out: List[Tuple[tuple, Node, int]] = []

    def walk(n, path, weight):
        out.append((path, n, weight))
        if n[0] == "N":
            weight -= 1
            for i, c in enumerate(n[1]):
                walk(c, path + (i,), weight)
                weight += tree_degree(c)

    walk(tree, (), 0)
    return out


def replace_at_path(tree: Node, path: tuple, replacement: Node) -> Node:
    if not path:
        return replacement
    i = path[0]
    kids = list(tree[1])
    kids[i] = replace_at_path(kids[i], path[1:], replacement)
    return node(kids)


def delete_at_path(tree: Node, path: tuple) -> Optional[Node]:
    """Remove the subtree at path; None when the shape becomes inadmissible.

    A parent left with fewer than two children is inadmissible and kills the
    term, including a root left with a single child.
    """
    if not path:
        raise TreeError("cannot delete the whole tree here")
    parent_path, i = path[:-1], path[-1]
    parent = subtree_at(tree, parent_path)
    kids = parent[1][:i] + parent[1][i + 1:]
    if len(kids) < 2:
        return None
    return replace_at_path(tree, parent_path, node(kids))


def contract_vertex(tree: Node, path: tuple) -> Tuple[Optional[Node], int]:
    """Remove an inner vertex, splicing its children into its parent."""
    if not path:
        raise TreeError("cannot contract the root")
    target = subtree_at(tree, path)
    if is_leaf(target):
        raise TreeError("cannot contract a leaf")
    parent_path, i = path[:-1], path[-1]
    parent = subtree_at(tree, parent_path)
    kids = parent[1][:i] + target[1] + parent[1][i + 1:]
    raw = replace_at_path(tree, parent_path, node(kids))
    return canonicalize_node(raw)


def former_substitute_at_path(acc: dict, tree: Node, path: tuple, value: AlgebraElement,
                              sign: int, weight: int):
    """The former `substitute_at_path`: each term rebuilds the whole tree.

    The value must live in (module + scalar) tensor positives.
    """
    for (trees, pos), c in value.terms.items():
        odd = 0
        for g in pos:
            odd ^= g[0]
        term_sign = -sign if odd & weight & 1 else sign
        if trees:
            if len(trees) != 1 or not is_leaf(trees[0]):
                raise TreeError("substitution value must be module + scalar valued")
            raw = replace_at_path(tree, path, trees[0])
        elif path:
            raw = delete_at_path(tree, path)
            if raw is None:
                continue
        else:  # a scalar in place of the whole tree
            accumulate(acc, ((), pos), c.terms, term_sign)
            continue
        cnode, s = canonicalize_node(raw)
        if cnode is not None:
            accumulate(acc, ((cnode,), pos), c.terms, term_sign * s)

