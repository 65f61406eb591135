"""The tree formula against the vertex walks it replaced.

`forest.add_tree_formula` evaluates the formula children first: each
child's memoized image is spliced into its slot.  Before that, the formula
walked every vertex of the tree (`vertex_walk.vertices`, each weight built
from its parent's), and before that, three walkers listed the paths and
recomputed each weight from the root: `inner_vertex_paths`, `leaf_paths`
and `vertex_weight`.  Those bodies, and the former
`TreeDifferential._image` that read them, are kept below as oracles on
every basis tree of the bundled specs through K = 6, on the degree-K+1
joins that `verify_retract` builds, in every mode each spec runs, at level
-1 and at every range of correction levels.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import (koszul_hook, koszul_mode, solve_general_extension,
                                solve_residues_explicit)
from ktforest.forest import (AlgebraElement, accumulate, canonicalize_node, collect,
                             enumerate_monomial_basis, enumerate_tree_basis, is_leaf, leaf, node,
                             parity_sign, root_split, tree_degree)
from ktforest.kt import solve_hook
from ktforest.poly import Poly
from vertex_walk import (contract_vertex, former_substitute_at_path, subtree_at,
                         vertices)

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
        former_substitute_at_path(acc, node, path, value, parity_sign(w), w)
    for path in former_inner_vertex_paths(node) + [()]:
        value = hook_value(subtree_at(node, path))
        if value.is_zero():
            continue
        w = former_vertex_weight(node, path)
        former_substitute_at_path(acc, node, path, value, -parity_sign(w), w)


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


def joins(res):
    """The trees of degree K + 1 that `verify_retract` joins and evaluates."""
    out = []
    for trees, _ in enumerate_monomial_basis(res, K):
        if len(trees) >= 2:
            tree = canonicalize_node(node(trees))[0]
            if tree is not None:
                out.append(tree)
    return out


MODES = [(name, mode) for name in SPECS for mode in ("explicit", "general")] \
    + [("koszul_compare.kt", "koszul-compare")]


def extension(name, mode):
    spec = parse_spec(ktforest.example_path(name))
    res, _, hook = setup(name)
    if mode == "koszul-compare":
        return koszul_mode(spec.resolution, spec.positive, koszul_hook(spec.resolution, K),
                           spec.koszul_tables)[0]
    solve = solve_general_extension if mode == "general" else solve_residues_explicit
    return solve(res, spec.positive, hook, K)


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


@pytest.mark.parametrize("name, mode", MODES)
def test_images_match_the_vertex_walk_in_every_mode(name, mode):
    """Level -1 and every range of correction levels, on the basis trees
    and on the joins of degree K + 1."""
    ext = extension(name, mode)
    res, trees, _ = setup(name)
    inner = [t for t in trees if not is_leaf(t)] + joins(res)
    assert not ext.by_step
    differential = ext.hook.differential()
    for tree in inner:
        assert differential._image(tree) == former_image(differential, tree)
    ranges = [range(k, k + 1) for k in range(ext.level_max + 1)]
    ranges.append(range(0, ext.level_max + 1))
    for levels in ranges:
        for tree in inner:
            acc: dict = {}
            former_add_tree_formula(acc, tree,
                                    lambda g: ext.q_level_on_tree(levels, leaf(g)),
                                    lambda t: ext.chi_levels(levels, t))
            assert ext._tree_formula(levels, tree) == collect(res.ring, acc)
