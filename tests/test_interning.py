"""Interned trees: one `Node` object per tree structure, hashed by identity.

Every tree the engine builds comes from `leaf` or `node`, so a dict or
cache keyed by trees finds it by its identity hash.  A tree that slipped
past the constructors would still compare equal but would miss every
lookup, so the engine's outputs are checked to hold only interned trees.
Identity hashes follow allocation addresses, so no report may depend on
the iteration order of a set of trees: the reports under different hash
seeds must be byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import solve_residues_explicit
from ktforest.forest import (AlgebraElement, Node, as_node, canonicalize_node,
                             enumerate_monomial_basis, enumerate_tree_basis, leaf, make_monomial,
                             node)
from ktforest.grammar import parse_tree
from ktforest.kt import solve_hook
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId

K = 5


def interned(tree) -> bool:
    """Whether `tree` and each of its subtrees is the one object of its structure."""
    if type(tree) is not Node or as_node(tuple(tree)) is not tree:
        return False
    return tree[0] == "L" or all(interned(c) for c in tree[1])


def tree_factors(elem: AlgebraElement):
    for trees, _pos in elem.terms:
        yield from trees


def test_a_leaf_is_built_once(quadratic_resolution):
    g = quadratic_resolution.gen_by_label("pi1")
    assert leaf(g) is leaf(g)
    assert interned(leaf(g))


def test_a_join_is_built_once_from_plain_or_interned_children(quadratic_resolution):
    pi1, pi2 = (quadratic_resolution.gen_by_label(label) for label in ("pi1", "pi2"))
    joined = node((leaf(pi1), leaf(pi2)))
    assert node([leaf(pi1), leaf(pi2)]) is joined
    assert node((("L", pi1), ("L", pi2))) is joined
    assert as_node(("N", (("L", pi1), ("L", pi2)))) is joined
    assert node((leaf(pi2), leaf(pi1))) is not joined  # children keep the order given


def test_canonicalize_returns_the_basis_tree(quadratic_resolution):
    res = quadratic_resolution
    pi1, pi2, pi3 = (res.gen_by_label(label) for label in ("pi1", "pi2", "pi3"))
    basis = enumerate_tree_basis(res, 3)
    assert all(interned(t) for t in basis)
    plain = ("N", (("L", pi3), ("L", pi1)))
    cnode, sign = canonicalize_node(plain)
    assert any(cnode is t for t in basis)
    assert sign == -1  # two leaves of odd degree -1 swap
    assert canonicalize_node(("L", pi2))[0] is leaf(pi2)


def test_parsed_trees_are_the_basis_trees():
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    basis = enumerate_tree_basis(spec.resolution, 3)
    for text in ("V(pi2,pi1)", "V(pi1,pi3)", "V(pi3,pi2)"):
        assert any(parse_tree(text, spec.symbols) is t for t in basis), text


def test_make_monomial_interns_its_tree_factors(quadratic_resolution):
    pi1, pi2 = (quadratic_resolution.gen_by_label(label) for label in ("pi1", "pi2"))
    mono, sign = make_monomial([("t", ("L", pi2)), ("t", ("L", pi1))])
    assert sign == -1
    assert all(interned(t) for t in mono[0])
    assert mono == ((leaf(pi1), leaf(pi2)), ())


def test_interned_trees_equal_their_plain_tuples(quadratic_resolution):
    pi1, pi2 = (quadratic_resolution.gen_by_label(label) for label in ("pi1", "pi2"))
    joined = node((leaf(pi1), leaf(pi2)))
    plain = ("N", (("L", pi1), ("L", pi2)))
    assert joined == plain and plain == joined
    assert hash(joined) == object.__hash__(joined)
    assert leaf(pi1) == ("L", pi1)
    assert joined[0] == "N" and joined[1][0] is leaf(pi1)
    assert (leaf(pi1) < leaf(pi2)) == (("L", pi1) < ("L", pi2))
    assert sorted([joined, leaf(pi2), leaf(pi1)]) == sorted([plain, ("L", pi2), ("L", pi1)])


def test_every_tree_the_engine_builds_is_interned():
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    res = spec.resolution
    hook = solve_hook(res, K)
    ext = solve_residues_explicit(res, spec.positive, hook, K)
    assert all(interned(t) for t in hook.table)
    one = Poly.const(res.ring, 1)
    checked = 0
    for degree in range(1, K + 1):
        for mono in enumerate_monomial_basis(res, degree):
            image = ext.apply(AlgebraElement(res.ring, {mono: one}))
            assert all(interned(t) for t in tree_factors(image))
            checked += 1
    evaluator = hook.differential()._memo
    assert checked and evaluator and ext._tree_memo
    for tree, image in evaluator.items():
        assert interned(tree)
        assert all(interned(t) for t in tree_factors(image))
    for source, images in ext._tree_memo.items():
        assert interned(source) or isinstance(source, GeneratorId)
        for image in images.values():
            assert all(interned(t) for t in tree_factors(image))


@pytest.mark.parametrize("name", ["quadratic.kt", "taylor_shear.kt"])
def test_reports_do_not_depend_on_the_hash_seed(name):
    reports = set()
    for seed in ("0", "1", None):
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if seed is not None:
            env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, "-m", "ktforest", "run",
                               ktforest.example_path(name), "--neg-degree-max", str(K)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1
