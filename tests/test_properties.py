"""Randomized property suites, one thousand cases per invariant."""

from __future__ import annotations

import random

import pytest

from ktforest.forest import (AlgebraElement, canonicalize_node, enumerate_tree_basis,
                             leaf, make_monomial, parity_sign, root_join, root_split,
                             tree_degree)
from ktforest.kt import TreeDifferential, hook_product, solve_hook
from ktforest.poly import Poly
from ktforest.resolution import ModuleElement
from conftest import mono_degree
from sign_oracle import koszul_sign

CASES = 1000


@pytest.fixture(scope="module")
def quadratic_hook(quadratic_resolution):
    return solve_hook(quadratic_resolution, 6)


@pytest.fixture(scope="module")
def tree_pool(quadratic_resolution):
    pool = []
    for d in range(1, 6):
        pool.extend(enumerate_tree_basis(quadratic_resolution, d))
    return pool


def random_poly(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in ring.names)
        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
    from fractions import Fraction

    return Poly(ring, {e: Fraction(c) for e, c in terms.items() if c})


def random_monomial(rng, pool, max_factors=3):
    picks = [rng.choice(pool) for _ in range(rng.randint(1, max_factors))]
    return make_monomial([("t", t) for t in picks])


def test_koszul_sign_coherence(quadratic_resolution, tree_pool):
    """Canonicalizing a permuted tree recovers the permutation's sign."""
    rng = random.Random(101)
    nodes = [t for t in tree_pool if t[0] == "N"]
    checked = 0
    while checked < CASES:
        node = rng.choice(nodes)
        kids = list(node[1])
        perm = list(range(len(kids)))
        rng.shuffle(perm)
        shuffled = ("N", tuple(kids[i] for i in perm))
        expected = koszul_sign([tree_degree(k) for k in kids], perm)
        out, sign = canonicalize_node(shuffled)
        assert out == node and sign == expected
        # idempotence on the canonical representative
        again, s2 = canonicalize_node(out)
        assert again == out and s2 == 1
        checked += 1


def test_root_join_split_inverse(quadratic_resolution, tree_pool):
    """Splitting a joined product recovers it, and joining a split tree."""
    ring = quadratic_resolution.ring
    rng = random.Random(102)
    nontrivial = [t for t in tree_pool if t[0] == "N"]
    checked = 0
    while checked < CASES:
        if checked % 2 == 0:
            mono = random_monomial(rng, tree_pool)
            mono, sign = mono
            if mono is None or len(mono[0]) < 2:
                continue
            x = AlgebraElement(ring, {mono: random_poly(rng, ring).scale(sign)})
            if x.is_zero():
                continue
            assert root_split(root_join(x)) == x
        else:
            node = rng.choice(nontrivial)
            x = AlgebraElement.from_tree(ring, node, random_poly(rng, ring))
            if x.is_zero():
                continue
            assert root_join(root_split(x)) == x
        checked += 1


def test_tree_differential_leibniz(quadratic_resolution, quadratic_hook, tree_pool):
    """The differential satisfies the graded Leibniz rule on random products."""
    ring = quadratic_resolution.ring
    differential = TreeDifferential(quadratic_resolution, quadratic_hook)
    rng = random.Random(103)
    checked = 0
    while checked < CASES:
        ma = random_monomial(rng, tree_pool, max_factors=2)
        mb = random_monomial(rng, tree_pool, max_factors=2)
        (mono_a, sa), (mono_b, sb) = ma, mb
        if mono_a is None or mono_b is None:
            continue
        a = AlgebraElement(ring, {mono_a: random_poly(rng, ring).scale(sa)})
        b = AlgebraElement(ring, {mono_b: random_poly(rng, ring).scale(sb)})
        if a.is_zero() or b.is_zero():
            continue
        sign = parity_sign(mono_degree(mono_a))
        lhs = differential.apply(a * b)
        rhs = differential.apply(a) * b + a.scale(sign) * differential.apply(b)
        assert lhs == rhs
        checked += 1


def test_hook_product_compatible_with_differential(quadratic_resolution, quadratic_hook):
    """d(a * b) = d(a) * b + (-1)^|a| a * d(b) on random module elements,
    taken on trivial trees, where the tree differential is d."""
    res = quadratic_resolution
    ring = res.ring
    differential = quadratic_hook.differential()
    rng = random.Random(104)
    by_depth = {d: list(res.generators(d)) for d in (1, 2)}
    checked = 0
    while checked < CASES:
        da_, db_ = rng.choice((1, 2)), rng.choice((1, 2))
        a = AlgebraElement.from_module_element(
            ModuleElement(ring, {g: random_poly(rng, ring) for g in by_depth[da_]}))
        b = AlgebraElement.from_module_element(
            ModuleElement(ring, {g: random_poly(rng, ring) for g in by_depth[db_]}))
        if a.is_zero() or b.is_zero():
            continue
        prod = hook_product(quadratic_hook, a, b)
        lhs = differential.apply(prod)
        da, db = differential.apply(a), differential.apply(b)
        rhs = hook_product(quadratic_hook, da, b) \
            + hook_product(quadratic_hook, a, db).scale(parity_sign(-da_))
        assert lhs.project_scalar().is_zero() and lhs == rhs
        checked += 1


def test_evaluation_determinism(quadratic_resolution, quadratic_hook, tree_pool):
    """Evaluation is independent of memo warm-up order and element order."""
    ring = quadratic_resolution.ring
    rng = random.Random(105)
    fresh = TreeDifferential(quadratic_resolution, quadratic_hook)
    warmed = TreeDifferential(quadratic_resolution, quadratic_hook)
    shuffled_pool = list(tree_pool)
    rng.shuffle(shuffled_pool)
    for node in shuffled_pool:
        warmed.on_tree(node)
    checked = 0
    while checked < CASES:
        mono, sign = random_monomial(rng, tree_pool)
        if mono is None:
            continue
        x = AlgebraElement(ring, {mono: Poly.const(ring, sign)})
        left = fresh.apply(x)
        right = warmed.apply(x)
        assert left == right
        assert str(left) == str(right)
        checked += 1

