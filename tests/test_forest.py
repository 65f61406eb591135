"""Tree canonicalization, root maps, contraction, weights, enumeration."""

from __future__ import annotations

import random

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.forest import (AlgebraElement, TreeError, _mono_sort_key, _trees_through,
                             canonicalize_node,
                             enumerate_monomial_basis, enumerate_tree_basis,
                             is_leaf, leaf,
                             make_monomial, root_join, root_split,
                             tree_degree, tree_key, tree_str)
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId
from conftest import mono_degree
from sign_oracle import koszul_sign
from test_cli import BUNDLED_SPECS
from vertex_walk import contract_vertex, vertices


def gens_of(res, depth):
    return res.generators(depth)


# -- recursive walks: the oracles for tree_key and the basis listing order -----

def leaf_count(tree) -> int:
    return 1 if tree[0] == "L" else sum(leaf_count(c) for c in tree[1])


def inner_vertex_count(tree) -> int:
    """Inner vertices below the root."""
    if tree[0] == "L":
        return 0
    return sum(inner_vertex_count(c) + (0 if is_leaf(c) else 1) for c in tree[1])


def shape_str(tree) -> str:
    return "*" if tree[0] == "L" else "(" + "".join(shape_str(c) for c in tree[1]) + ")"


def decorations(tree) -> tuple:
    return (tree[1],) if tree[0] == "L" else sum((decorations(c) for c in tree[1]), ())


def walked_key(tree) -> tuple:
    return leaf_count(tree), shape_str(tree), tuple(g.key for g in decorations(tree))


@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_tree_key_and_listing_order_match_the_walks(name):
    res = parse_spec(ktforest.example_path(name)).resolution
    for degree in range(1, 9):
        basis = enumerate_tree_basis(res, degree)
        for t in basis:
            assert tree_key(t) == walked_key(t), tree_str(t)
            if not is_leaf(t):
                assert tree_key(t)[1].count("(") - 1 == inner_vertex_count(t), tree_str(t)
        assert list(basis) == sorted(basis, key=lambda t: (leaf_count(t), inner_vertex_count(t),
                                                           shape_str(t)) + walked_key(t)[2:])


def test_koszul_sign_odd_odd_swap():
    assert koszul_sign([-1, -1], [1, 0]) == -1


def test_koszul_sign_odd_even_swap():
    assert koszul_sign([-1, -2], [1, 0]) == 1


def test_koszul_sign_subtree_blocks():
    # swapping blocks of degrees |a1|+|a2|+1 and |a3|+|a4|+1
    for d1 in (-3, -4, -5):
        for d2 in (-3, -4, -5):
            assert koszul_sign([d1, d2], [1, 0]) == (-1) ** (d1 * d2)


def test_canonicalize_swaps_odd_pair(quadratic_resolution):
    pi1, pi2, _ = gens_of(quadratic_resolution, 1)
    node, sign = canonicalize_node(("N", (leaf(pi2), leaf(pi1))))
    assert node == ("N", (leaf(pi1), leaf(pi2)))
    assert sign == -1


def test_canonicalize_kills_odd_square(quadratic_resolution):
    pi1 = gens_of(quadratic_resolution, 1)[0]
    node, sign = canonicalize_node(("N", (leaf(pi1), leaf(pi1))))
    assert node is None and sign == 0


def test_canonicalize_idempotent(quadratic_resolution):
    pi1, pi2, pi3 = gens_of(quadratic_resolution, 1)
    node, sign = canonicalize_node(("N", (("N", (leaf(pi1), leaf(pi2))), leaf(pi3))))
    again, sign2 = canonicalize_node(node)
    assert again == node and sign2 == 1


def test_even_square_survives(quadratic_resolution):
    pi = gens_of(quadratic_resolution, 2)[0]
    node, sign = canonicalize_node(("N", (leaf(pi), leaf(pi))))
    assert node is not None and sign == 1


def test_one_child_vertex_is_a_tree_error(quadratic_resolution):
    pi1, pi2, pi3 = gens_of(quadratic_resolution, 1)
    node, sign = canonicalize_node(("N", (("N", (leaf(pi1), leaf(pi2))), leaf(pi3))))
    assert sign in (1, -1) and leaf_count(node) == 3
    # the spec grammar rejects V(pi1) before it reaches a tree
    with pytest.raises(TreeError):
        canonicalize_node(("N", (("N", (leaf(pi1),)), leaf(pi2))))


def test_degree_bookkeeping(quadratic_resolution):
    pi1, pi2, _ = gens_of(quadratic_resolution, 1)
    pi = gens_of(quadratic_resolution, 2)[0]
    corolla = ("N", (leaf(pi1), leaf(pi2)))
    assert tree_degree(corolla) == -3
    nested = ("N", (corolla, leaf(pi)))
    assert tree_degree(nested) == -6
    assert inner_vertex_count(nested) == 1
    assert tree_degree(leaf(pi)) == -2


def test_root_join_two_trivial(quadratic_resolution):
    ring = quadratic_resolution.ring
    pi1, pi2, _ = gens_of(quadratic_resolution, 1)
    prod, _ = make_monomial([("t", leaf(pi1)), ("t", leaf(pi2))])
    joined = root_join(AlgebraElement(ring, {prod: Poly.const(ring, 1)}))
    [(mono, coeff)] = list(joined.terms.items())
    assert mono[0][0] == ("N", (leaf(pi1), leaf(pi2)))
    assert coeff == Poly.const(ring, 1)


def test_root_split_inverts_join(quadratic_resolution):
    ring = quadratic_resolution.ring
    rng = random.Random(7)
    trees = []
    for d in range(1, 6):
        trees.extend(enumerate_tree_basis(quadratic_resolution, d))
    for _ in range(200):
        picks = [rng.choice(trees) for _ in range(rng.randint(2, 3))]
        mono, sign = make_monomial([("t", t) for t in picks])
        if mono is None:
            continue
        x = AlgebraElement(ring, {mono: Poly.const(ring, sign)})
        assert root_split(root_join(x)) == x


def test_join_split_on_trees(quadratic_resolution):
    ring = quadratic_resolution.ring
    for d in range(3, 7):
        for node in enumerate_tree_basis(quadratic_resolution, d):
            if node[0] == "L":
                continue
            x = AlgebraElement.from_tree(ring, node)
            assert root_join(root_split(x)) == x


def test_contract_decreases_inner_count(quadratic_resolution):
    pi1, pi2, pi3 = gens_of(quadratic_resolution, 1)
    nested = ("N", (("N", (leaf(pi1), leaf(pi2))), leaf(pi3)))
    node, _sign = canonicalize_node(nested)
    paths = [p for p, sub, _ in vertices(node)[1:] if not is_leaf(sub)]
    assert len(paths) == 1
    contracted, sign = contract_vertex(node, paths[0])
    assert inner_vertex_count(contracted) == 0
    assert leaf_count(contracted) == 3
    assert sign in (1, -1)


def test_weights_on_displayed_tree(monomial3_resolution):
    # corolla with children a1, a2 and an inner vertex carrying a3, a4, a5
    e1, e2, e3, e4 = gens_of(monomial3_resolution, 1)
    e13 = gens_of(monomial3_resolution, 2)[0]
    inner = ("N", (leaf(e3), leaf(e4), leaf(e13)))
    tree = ("N", (leaf(e1), leaf(e2), inner))
    weight = {path: w for path, _, w in vertices(tree)}
    assert weight[()] == 0
    assert weight[(0,)] == -1  # first leaf
    assert weight[(2,)] == -1 + (-1) + (-1)  # the inner vertex
    # a leaf inside the inner vertex, with one left sibling there
    assert weight[(2, 1)] == -2 + (-1) + (-1) + (-1)


def test_enumerate_basis_low_degrees(quadratic_resolution):
    basis1 = enumerate_tree_basis(quadratic_resolution, 1)
    assert [tree_str(t) for t in basis1] == ["pi1", "pi2", "pi3"]
    basis2 = enumerate_tree_basis(quadratic_resolution, 2)
    assert [tree_str(t) for t in basis2] == ["pi", "pib"]
    basis3 = enumerate_tree_basis(quadratic_resolution, 3)
    assert sorted(tree_str(t) for t in basis3) == [
        "V(pi1,pi2)", "V(pi1,pi3)", "V(pi2,pi3)"]


def test_enumerate_basis_distinct_and_stable(quadratic_resolution):
    for d in range(1, 7):
        basis = enumerate_tree_basis(quadratic_resolution, d)
        assert len(set(basis)) == len(basis)
        for t in basis:
            assert tree_degree(t) == -d
            node, sign = canonicalize_node(t)
            assert node == t and sign == 1
    # second run returns the identical tuple
    assert enumerate_tree_basis(quadratic_resolution, 5) is enumerate_tree_basis(
        quadratic_resolution, 5)


def test_rank_one_module_has_no_corollas(ring_xy):
    from conftest import make_resolution

    res = make_resolution(ring_xy, [["e"]], {}, {"e": "x^2 + y^2"})
    assert enumerate_tree_basis(res, 3) == ()
    assert enumerate_tree_basis(res, 4) == ()


def test_join_degree_identity(quadratic_resolution):
    ring = quadratic_resolution.ring
    rng = random.Random(11)
    trees = []
    for d in range(1, 5):
        trees.extend(enumerate_tree_basis(quadratic_resolution, d))
    for _ in range(100):
        picks = [rng.choice(trees) for _ in range(rng.randint(2, 4))]
        mono, sign = make_monomial([("t", t) for t in picks])
        if mono is None:
            continue
        x = AlgebraElement(ring, {mono: Poly.const(ring, sign)})
        joined = root_join(x)
        if joined.is_zero():
            continue
        [(jmono, _)] = list(joined.terms.items())
        assert mono_degree(jmono) == sum(tree_degree(t) for t in picks) - 1


def test_sign_coherence_under_child_permutations(quadratic_resolution):
    rng = random.Random(23)
    trees = []
    for d in range(3, 7):
        trees.extend(t for t in enumerate_tree_basis(quadratic_resolution, d)
                     if t[0] == "N")
    for _ in range(400):
        node = rng.choice(trees)
        kids = list(node[1])
        perm = list(range(len(kids)))
        rng.shuffle(perm)
        shuffled = ("N", tuple(kids[i] for i in perm))
        expected_sign = koszul_sign([tree_degree(k) for k in kids], perm)
        out, sign = canonicalize_node(shuffled)
        assert out == node
        assert sign == expected_sign


def test_root_join_five_leaf_display(monomial3_resolution):
    # joining a 2-leaf and a 3-leaf tree grafts both under a fresh root
    res = monomial3_resolution
    ring = res.ring
    e1, e2, e3, e4 = gens_of(res, 1)
    t2, _ = canonicalize_node(("N", (leaf(e1), leaf(e2))))
    t3, _ = canonicalize_node(("N", (leaf(e2), leaf(e3), leaf(e4))))
    mono, sign = make_monomial([("t", t2), ("t", t3)])
    joined = root_join(AlgebraElement(ring, {mono: Poly.const(ring, sign)}))
    [(jmono, coeff)] = list(joined.terms.items())
    [jtree] = jmono[0]
    assert leaf_count(jtree) == 5
    assert inner_vertex_count(jtree) == 2
    assert set(jtree[1]) == {t2, t3}


# -- basis enumeration against the former recursion ------------------------------

def former_multisets_with_degree(candidates, total, min_count):
    """The recursion before the shared candidate lists: it read each degree
    through the cache at every step and copied `chosen` on every call."""
    results = []

    def recurse(start, remaining, chosen):
        if remaining == 0:
            if len(chosen) >= min_count:
                results.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            node = candidates[i]
            d = -tree_degree(node)
            if d > remaining:
                continue
            limit = 1 if tree_degree(node) % 2 != 0 else remaining // d
            taken = []
            for _ in range(limit):
                taken.append(node)
                if d * len(taken) > remaining:
                    break
                recurse(i + 1, remaining - d * len(taken), chosen + taken)

    recurse(0, total, [])
    return results


def key_order_multisets(candidates, total, min_count):
    """The recursion before it took the candidates by depth: every call
    visits every candidate after `start`, in key order, and skips those
    deeper than what remains."""
    depths = [-tree_degree(node) for node in candidates]
    results = []
    chosen = []

    def recurse(start, remaining):
        if remaining == 0:
            if len(chosen) >= min_count:
                results.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            d = depths[i]
            if d > remaining:
                continue
            limit = 1 if d % 2 else remaining // d
            for taken in range(1, limit + 1):
                chosen.append(candidates[i])
                recurse(i + 1, remaining - d * taken)
            del chosen[-limit:]

    recurse(0, total)
    return results


def former_tree_basis(res, neg_degree):
    out = [leaf(g) for g in res.generators(neg_degree)]
    if neg_degree >= 3:
        candidates = []
        for d in range(1, neg_degree - 1):
            candidates.extend(former_tree_basis(res, d))
        candidates.sort(key=tree_key)
        for combo in former_multisets_with_degree(candidates, neg_degree - 1, 2):
            out.append(("N", combo))
    out.sort(key=lambda t: (leaf_count(t), inner_vertex_count(t)) + tree_key(t)[1:])
    return tuple(out)


def former_monomial_basis(res, neg_degree):
    candidates = []
    for d in range(1, neg_degree + 1):
        candidates.extend(former_tree_basis(res, d))
    candidates.sort(key=tree_key)
    combos = former_multisets_with_degree(candidates, neg_degree, 1)
    return tuple(sorted(((tuple(c), ()) for c in combos), key=_mono_sort_key))


@pytest.mark.parametrize("name", ["quadratic.kt", "regular_sequence.kt", "monomial_ideal.kt",
                                  "koszul_compare.kt", "koszul_function.kt"])
def test_basis_enumeration_matches_the_former_recursion(name):
    res = parse_spec(ktforest.example_path(name)).resolution
    top = 8 if name == "monomial_ideal.kt" else 6  # 3,444 candidate trees at 8
    for degree in range(1, top + 1):
        assert enumerate_tree_basis(res, degree) == former_tree_basis(res, degree)
        if degree <= 7:
            assert enumerate_monomial_basis(res, degree) == former_monomial_basis(res, degree)
        else:  # the first former recursion takes seconds here
            combos = key_order_multisets(_trees_through(res, degree), degree, 1)
            assert enumerate_monomial_basis(res, degree) \
                == tuple(sorted(((c, ()) for c in combos), key=_mono_sort_key))
