"""The printed expansion of the total differential on a nested tree.

This pins the complete term-by-term action on V(V(pi1,pi3),pi) over the
quadratic example: the split and contraction, the module-valued leaf
differentials, the hook substitution at the inner vertex, and the level-0
and level-1 corrections acting on the leaves.
"""

from __future__ import annotations

import pytest

from ktforest.cli import parse_spec
from ktforest.extension import solve_residues_explicit
from ktforest.forest import AlgebraElement, canonicalize_node, leaf, make_monomial
from ktforest.grammar import parse_element, parse_tree
from ktforest.kt import homotopy, project_to_resolution, solve_hook
from ktforest.poly import Poly

import ktforest


@pytest.fixture(scope="module")
def quadratic_setup():
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    hook = solve_hook(spec.resolution, 6)
    ext = solve_residues_explicit(spec.resolution, spec.positive, hook, 6)
    return spec, hook, ext


def build_tree(res, inner_labels, outer_label, coeff=None):
    inner = ("N", tuple(leaf(res.gen_by_label(l)) for l in inner_labels))
    raw = ("N", (inner, leaf(res.gen_by_label(outer_label))))
    return AlgebraElement.from_tree(res.ring, raw, coeff)


def test_total_differential_term_by_term(quadratic_setup):
    spec, hook, ext = quadratic_setup
    res, symbols = spec.resolution, spec.symbols
    ring = res.ring

    target = build_tree(res, ("pi1", "pi3"), "pi")
    [(target_mono, sign)] = list(target.terms.items())
    result = ext.apply(target)

    one = Poly.const(ring, 1)

    def tree(inner_labels, outer_label, coeff="1", dressing=""):
        t = build_tree(res, inner_labels, outer_label, Poly.parse(coeff, ring))
        if dressing:
            t = parse_element(dressing, symbols) * t
        return t

    # split and contraction
    inner = parse_tree("V(pi1,pi3)", symbols)
    split_mono, s = make_monomial([("t", inner), ("t", leaf(res.gen_by_label("pi")))])
    expected = AlgebraElement(ring, {split_mono: one.scale(s)})
    flat, s2 = canonicalize_node(tuple(["N", tuple(
        leaf(res.gen_by_label(l)) for l in ("pi1", "pi3", "pi"))]))
    expected = expected - AlgebraElement.from_tree(ring, flat, one.scale(s2))
    # module-valued leaf differential on the deep leaf
    expected = expected + tree(("pi1", "pi3"), "pi2", "x")
    expected = expected - tree(("pi1", "pi3"), "pi1", "y")
    # hook substitution at the inner vertex: the hook of V(pi1,pi3)
    hook_val = hook.element(inner)  # y*pi + x*pib
    for ((hook_leaf,), _pos), p in hook_val.terms.items():
        raw = ("N", (hook_leaf, leaf(res.gen_by_label("pi"))))
        expected = expected + AlgebraElement.from_tree(ring, raw, p)
    # level-0 corrections on the three leaves
    expected = expected + tree(("pi1", "pi3"), "pi", "2", "xi1")
    expected = expected + tree(("pi2", "pi3"), "pi", "2", "xi2")
    expected = expected + tree(("pi1", "pi2"), "pi", "2", "xi3")
    expected = expected + tree(("pi1", "pi3"), "pi", "2", "xi4")
    expected = expected + tree(("pi1", "pi3"), "pi", "2", "xi1")
    expected = expected + tree(("pi1", "pi3"), "pi", "1", "xi4")
    expected = expected + tree(("pi1", "pi3"), "pib", "1", "xi2")
    # level-1 corrections on the two shallow leaves
    expected = expected - tree(("pi", "pi3"), "pi", "2", "eta1")
    expected = expected + tree(("pi1", "pib"), "pi", "2", "eta2")

    assert result.scale(sign) == expected.scale(sign) and result == expected


def test_restriction_to_positive_part(quadratic_setup):
    spec, _hook, ext = quadratic_setup
    for g in spec.positive.gens:
        x = AlgebraElement.from_positive(spec.ring, g)
        assert ext.apply(x) == spec.positive.q_on_gens[g]
    for j in range(spec.ring.num_vars):
        x = AlgebraElement.scalar(Poly.variable(spec.ring, j))
        assert ext.apply(x) == spec.positive.q_on_vars[j]


def test_retract_projection_and_homotopy(quadratic_setup):
    spec, hook, _ext = quadratic_setup
    res = spec.resolution
    ring = res.ring
    a = AlgebraElement.from_tree(ring, leaf(res.gen_by_label("pi1")))
    b = AlgebraElement.from_tree(ring, leaf(res.gen_by_label("pi2")))
    # p restricted to the module is the identity
    assert project_to_resolution(hook.element, a) == a
    # h joins a two-factor product into the two-leaf tree
    prod = a * b
    joined = homotopy(prod)
    node = parse_tree("V(pi1,pi2)", spec.symbols)
    assert joined == AlgebraElement.from_tree(ring, node)
    # h kills single trees
    assert homotopy(a).is_zero()


def test_regular_sequence_residues_pinned():
    """Level tables of the regular-sequence example match the worked values."""
    spec = parse_spec(ktforest.example_path("regular_sequence.kt"))
    res, symbols = spec.resolution, spec.symbols
    hook = solve_hook(res, 6)
    ext = solve_residues_explicit(res, spec.positive, hook, 6)
    expected = {
        (0, "pi1"): "2*x*xi11*pi1 + 2*x*xi12*pi2",
        (0, "pi2"): "2*y*xi21*pi1 + 2*y*xi22*pi2",
        (0, "pi"): "2*x*xi11*pi + 2*y*xi22*pi",
        (1, "pi1"): "-2*x*eta1*pi - 2*xi11*xi12*pi",
        (1, "pi2"): "-2*y*eta2*pi - 2*xi21*xi22*pi",
    }
    for (k, label), text in expected.items():
        value = ext.q_level_on_gen(k, res.gen_by_label(label))
        assert value == parse_element(text, symbols), (k, label, str(value))
