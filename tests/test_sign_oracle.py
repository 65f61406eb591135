"""Every reordering sign of the engine against the bubble-sort oracle.

`signed_sort`, `koszul_sign`, `canonicalize_node`, `make_monomial` and the
exterior product of a Koszul complex all take their signs from the signed
merge.  Each is compared here with `sign_oracle.bubble_sort_with_sign` on
every permutation of up to five factors of mixed parity, with a repeated
odd and a repeated even factor among them.
"""

from __future__ import annotations

from itertools import permutations, product

import pytest

from ktforest.forest import (canonicalize_node, leaf, make_monomial, node, tree_degree,
                             tree_key)
from ktforest.poly import Poly, RingSpec
from ktforest.resolution import GeneratorId, build_koszul_complex, signed_sort

from sign_oracle import bubble_sort_with_sign, koszul_sign, reference_koszul_sign


def expected_sort(factors, order):
    """The oracle's (sorted tuple, sign) of `factors`, or (None, 0)."""
    items, sign = bubble_sort_with_sign([(*order(f), f) for f in factors])
    return (None, 0) if items is None else (tuple(f for _, _, f in items), sign)


def arrangements(pool):
    """Every ordering of every prefix of `pool` (positions, so a repeated
    factor appears in each of its places)."""
    for n in range(len(pool) + 1):
        for perm in permutations(range(n)):
            yield [pool[i] for i in perm]


# factor keys, a repeated key standing for one factor met twice
KEY_SETS = [(0, 1, 2, 3, 4), (0, 1, 1, 2, 3), (0, 0, 1, 2, 2)]


@pytest.mark.parametrize("keys", KEY_SETS, ids=["distinct", "one-repeated", "two-repeated"])
def test_signed_sort_matches_the_oracle(keys):
    distinct = sorted(set(keys))
    for parities in product((-1, -2), repeat=len(distinct)):
        degree = dict(zip(distinct, parities))
        for factors in arrangements([(k, degree[k]) for k in keys]):
            assert signed_sort(factors, lambda f: f) == expected_sort(factors, lambda f: f)


def test_koszul_sign_matches_the_oracle():
    for n in range(6):
        for degrees in product((-1, 2), repeat=n):
            for perm in permutations(range(n)):
                assert koszul_sign(degrees, perm) == reference_koszul_sign(degrees, perm)


def _tree_order(tree):
    return tree_key(tree), tree_degree(tree)


def _tree_pools(res):
    pi1, pi2, _pi3 = res.generators(1)
    pi, pib = res.generators(2)
    odd_tree = node([leaf(pi1), leaf(pi2)])  # degree -3
    return {
        "mixed": [leaf(pi1), leaf(pi), odd_tree, leaf(pib), leaf(pi2)],
        "repeated-odd": [leaf(pi1), leaf(pi), leaf(pi1), odd_tree, leaf(pib)],
        "repeated-even": [leaf(pi), leaf(pi1), odd_tree, leaf(pi), leaf(pi2)],
    }


@pytest.mark.parametrize("pool", ["mixed", "repeated-odd", "repeated-even"])
def test_canonicalize_node_matches_the_oracle(quadratic_resolution, pool):
    kids = _tree_pools(quadratic_resolution)[pool]
    # every child is canonical, so the sort at the root alone gives the sign
    assert all(canonicalize_node(k) == (k, 1) for k in kids)
    for children in arrangements(kids):
        if len(children) < 2:
            continue
        merged, sign = expected_sort(children, _tree_order)
        expected = (None, 0) if merged is None else (node(merged), sign)
        assert canonicalize_node(node(children)) == expected


def _factor_order(factor):
    kind, obj = factor
    if kind == "p":
        return (0, obj.key), obj.module_degree
    return (1, tree_key(obj)), tree_degree(obj)


@pytest.mark.parametrize("last", ["even-tree", "repeated-odd", "repeated-even"])
def test_make_monomial_matches_the_oracle(quadratic_resolution, last):
    pi1, pi2, _pi3 = quadratic_resolution.generators(1)
    pi, _pib = quadratic_resolution.generators(2)
    xi, eta = GeneratorId(1, 0, "xi"), GeneratorId(2, 0, "eta")
    factors = [("t", leaf(pi1)), ("p", eta), ("t", node([leaf(pi1), leaf(pi2)])), ("p", xi)]
    factors.append({"even-tree": ("t", leaf(pi)), "repeated-odd": ("p", xi),
                    "repeated-even": ("p", eta)}[last])
    for arranged in arrangements(factors):
        ordered, sign = expected_sort(arranged, _factor_order)
        if ordered is None:
            assert make_monomial(arranged) == (None, 0)
            continue
        trees = tuple(obj for kind, obj in ordered if kind == "t")
        pos = tuple(obj for kind, obj in ordered if kind == "p")
        assert make_monomial(arranged) == ((trees, pos), sign)


def _koszul_complex():
    ring = RingSpec(["x", "y", "z"])
    return build_koszul_complex([Poly.parse(v, ring) for v in ("x", "y", "z", "x*y")])


def _oracle_wedge(kres, gens):
    indices = [i for g in gens for i in kres.subset_of_gen[g]]
    ordered, sign = expected_sort(indices, lambda i: (i, 1))
    return None if ordered is None else (sign, kres.gen_of_subset[ordered])


def test_wedge_gens_matches_the_oracle_on_every_generator_pair():
    kres = _koszul_complex()
    gens = kres.module_generators()
    assert len(gens) == 15
    for a in gens:
        for b in gens:
            assert kres.wedge_gens(a, b) == _oracle_wedge(kres, (a, b))


def test_wedge_gens_matches_the_oracle_on_every_sequence_of_depth_one_generators():
    kres = _koszul_complex()
    for n in range(1, 6):
        for gens in product(kres.generators(1), repeat=n):
            assert kres.wedge_gens(*gens) == _oracle_wedge(kres, gens)
