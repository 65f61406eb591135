"""One vertex walk for the tree formula, against the former walkers.

`forest.vertices` returns every vertex of a tree as (path, subtree, weight)
in planar DFS preorder, each weight built from its parent's.  It replaced
three walkers: `inner_vertex_paths` and `leaf_paths` listed the paths, and
`vertex_weight` recomputed each weight from the root.  Those bodies, and the
former `TreeDifferential._image` that read them, are kept below as oracles
on every basis tree of the bundled specs through K = 6.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.forest import (AlgebraElement, accumulate, collect, contract_vertex,
                             enumerate_tree_basis, is_leaf, parity_sign, root_split,
                             subtree_at, substitute_at_path, tree_degree, vertices)
from ktforest.kt import solve_hook
from ktforest.poly import Poly

SPECS = ["koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt", "quadratic.kt",
         "regular_sequence.kt", "taylor_shear.kt"]
K = 6


def former_inner_vertex_paths(node):
    """Paths of non-root, non-leaf vertices, in planar DFS order."""
    out = []

    def walk(n, path):
        if n[0] == "L":
            return
        if path:
            out.append(path)
        for i, c in enumerate(n[1]):
            walk(c, path + (i,))

    walk(node, ())
    return out


def former_leaf_paths(node):
    out = []

    def walk(n, path):
        if n[0] == "L":
            out.append((path, n[1]))
            return
        for i, c in enumerate(n[1]):
            walk(c, path + (i,))

    walk(node, ())
    return out


def former_vertex_weight(node, path):
    """Minus the path length, plus the degrees of all subtrees hanging to the
    left of the path at each ancestor; zero for the root."""
    if not path:
        return 0
    total = -len(path)
    current = node
    for step in path:
        for child in current[1][:step]:
            total += tree_degree(child)
        current = current[1][step]
    return total


def former_add_tree_formula(acc, node, leaf_value, hook_value):
    for path, gen in former_leaf_paths(node):
        value = leaf_value(gen)
        if value.is_zero():
            continue
        w = former_vertex_weight(node, path)
        substitute_at_path(acc, node, path, value, parity_sign(w), w)
    for path in former_inner_vertex_paths(node) + [()]:
        value = hook_value(subtree_at(node, path))
        if value.is_zero():
            continue
        w = former_vertex_weight(node, path)
        substitute_at_path(acc, node, path, value, -parity_sign(w), w)


def former_image(differential, node):
    """The former `TreeDifferential._image`."""
    if is_leaf(node):
        return differential.leaf_value(node[1])
    ring = differential.res.ring
    acc: dict = {}
    for mono, c in root_split(AlgebraElement.from_tree(ring, node)).terms.items():
        accumulate(acc, mono, c.terms)
    one = Poly.const(ring, 1).terms
    for path in former_inner_vertex_paths(node):
        w = former_vertex_weight(node, path)
        cnode, sign = contract_vertex(node, path)
        if cnode is not None:
            accumulate(acc, ((cnode,), ()), one, sign * parity_sign(w))
    former_add_tree_formula(acc, node, differential.leaf_value, differential.hook.element)
    return collect(ring, acc)


@lru_cache(maxsize=None)
def setup(name):
    res = parse_spec(ktforest.example_path(name)).resolution
    trees = [t for d in range(1, K + 1) for t in enumerate_tree_basis(res, d)]
    return res, trees, solve_hook(res, K)


@pytest.mark.parametrize("name", SPECS)
def test_vertices_match_the_former_walkers(name):
    _, trees, _ = setup(name)
    assert trees
    for node in trees:
        walk = vertices(node)
        paths = [p for p, _, _ in walk]
        # preorder is the lexicographic order of the paths, root first; the
        # root of a trivial tree is its leaf
        assert paths == sorted({()}.union(former_inner_vertex_paths(node),
                                          (p for p, _ in former_leaf_paths(node))))
        assert [(p, sub[1]) for p, sub, _ in walk if is_leaf(sub)] == former_leaf_paths(node)
        assert [p for p, sub, _ in walk[1:] if not is_leaf(sub)] \
            == former_inner_vertex_paths(node)
        for path, sub, w in walk:
            assert sub == subtree_at(node, path)
            assert w == former_vertex_weight(node, path)


@pytest.mark.parametrize("name", SPECS)
def test_on_tree_matches_the_former_image(name):
    _, trees, hook = setup(name)
    differential = hook.differential()
    for node in trees:
        assert differential.on_tree(node) == former_image(differential, node)
