"""The tree differential, hook solving, square-zero and retract checks."""

from __future__ import annotations

import random

import pytest

import ktforest
from ktforest import kt
from ktforest.cli import parse_spec
from ktforest.forest import (AlgebraElement, canonicalize_node, enumerate_monomial_basis,
                             enumerate_tree_basis, is_leaf, leaf, make_monomial, parity_sign,
                             tree_degree, tree_str)
from ktforest.kt import (HookMap, SolveError, TreeDifferential, homotopy, hook_equation_rhs,
                         hook_product, hook_window, project_to_resolution, solve_hook,
                         verify_hook, verify_hook_product_leibniz, verify_retract,
                         verify_square_zero)
from ktforest.poly import Poly
from ktforest.resolution import FreeResolution, ModuleElement


def elem(res, node, coeff=None):
    return AlgebraElement.from_tree(res.ring, node, coeff)


def module(res, text_terms):
    ring = res.ring
    return ModuleElement(ring, {
        res.gen_by_label(label): Poly.parse(text, ring) for label, text in text_terms.items()})


@pytest.fixture(scope="module")
def regular_hook(regular_resolution):
    return solve_hook(regular_resolution, 6)


@pytest.fixture(scope="module")
def quadratic_hook(quadratic_resolution):
    return solve_hook(quadratic_resolution, 6)


def corolla(res, *labels):
    node, sign = canonicalize_node(
        ("N", tuple(leaf(res.gen_by_label(l)) for l in labels)))
    assert sign == 1
    return node


# -- solving ------------------------------------------------------------------

def test_regular_hook_is_unique_value(regular_resolution, regular_hook):
    res = regular_resolution
    t = corolla(res, "pi1", "pi2")
    assert regular_hook.value(t) == module(res, {"pi": "1"})
    # and nothing else anywhere in the truncation
    assert list(regular_hook.table) == [t]


def test_quadratic_solver_hook_verifies(quadratic_resolution, quadratic_hook):
    report = verify_hook(quadratic_resolution, quadratic_hook, 6)
    assert report.passed, report.summary()


def test_quadratic_worked_hook_table_verifies(quadratic_resolution):
    res = quadratic_resolution
    table = {
        corolla(res, "pi1", "pi2"): module(res, {"pi": "x"}),
        corolla(res, "pi2", "pi3"): module(res, {"pib": "y"}),
        corolla(res, "pi1", "pi3"): module(res, {"pi": "y", "pib": "x"}),
    }
    hook = HookMap(res, table)
    report = verify_hook(res, hook, 6)
    assert report.passed, report.summary()


def test_hook_element_follows_every_set_value(quadratic_resolution):
    res = quadratic_resolution
    t, other = corolla(res, "pi1", "pi2"), corolla(res, "pi2", "pi3")
    hook = HookMap(res, {t: module(res, {"pi": "x"})})
    for value in (module(res, {"pi": "y"}), module(res, {"pi": "-2*x"})):
        hook.set_value(t, value)
        assert hook.element(t) == AlgebraElement.from_module_element(value)
    # the tree written with its two odd leaves swapped stores the negated value
    swapped = ("N", (leaf(res.gen_by_label("pi2")), leaf(res.gen_by_label("pi1"))))
    hook.set_value(swapped, module(res, {"pi": "x"}))
    assert hook.value(t) == module(res, {"pi": "-x"})
    assert hook.element(t) == AlgebraElement.from_module_element(hook.value(t))
    hook.set_value(t, ModuleElement.zero(res.ring))
    assert hook.element(t).is_zero() and hook.value(t).is_zero()
    assert hook.element(other).is_zero() and hook.value(other).is_zero()
    assert not hook.table


def test_quadratic_corrupted_hook_fails(quadratic_resolution):
    res = quadratic_resolution
    table = {
        corolla(res, "pi2", "pi3"): module(res, {"pib": "y"}),
        corolla(res, "pi1", "pi3"): module(res, {"pi": "y", "pib": "x"}),
    }
    hook = HookMap(res, table)  # the x*pi entry is dropped
    report = verify_hook(res, hook, 6)
    assert not report.passed
    assert any("V(pi1,pi2)" in item for item, _ in report.failures)


def test_rank_one_module_empty_hook(ring_xy):
    from conftest import make_resolution

    res = make_resolution(ring_xy, [["e"]], {}, {"e": "x^2 + y^2"})
    hook = solve_hook(res, 6)
    assert not hook.table
    differential = TreeDifferential(res, hook)
    assert verify_square_zero(differential, 6).passed


# -- the differential on fixtures ------------------------------------------------

def test_initial_condition_is_resolution_differential(quadratic_resolution, quadratic_hook):
    res = quadratic_resolution
    differential = TreeDifferential(res, quadratic_hook)
    pi = res.gen_by_label("pi")
    out = differential.apply(elem(res, leaf(pi)))
    assert out == AlgebraElement.from_module_element(module(res, {"pi2": "x", "pi1": "-y"}))


def test_two_leaf_expansion(quadratic_resolution, quadratic_hook):
    # corolla on two degree -1 decorations: the product minus the hook value
    res = quadratic_resolution
    differential = TreeDifferential(res, quadratic_hook)
    t = corolla(res, "pi1", "pi2")
    prod, _ = make_monomial([("t", leaf(res.gen_by_label("pi1"))),
                             ("t", leaf(res.gen_by_label("pi2")))])
    expected = AlgebraElement(res.ring, {prod: Poly.const(res.ring, 1)}) \
        - AlgebraElement.from_module_element(quadratic_hook.value(t))
    assert differential.on_tree(t) == expected


def test_three_leaf_expansion_regular(regular_resolution, regular_hook):
    # the nested three-leaf tree over the regular-sequence resolution:
    # split + contraction + the module-valued leaf term + the hooked sibling
    res = regular_resolution
    ring = res.ring
    differential = TreeDifferential(res, regular_hook)
    pi1, pi2, pi = (res.gen_by_label(l) for l in ("pi1", "pi2", "pi"))
    inner = corolla(res, "pi1", "pi2")
    t, sign = canonicalize_node(("N", (inner, leaf(pi))))
    out = differential.on_tree(t).scale(sign)

    split, _ = make_monomial([("t", inner), ("t", leaf(pi))])
    expected = AlgebraElement(ring, {split: Poly.const(ring, 1)})
    expected = expected - elem(res, corolla(res, "pi1", "pi2", "pi"))
    # d(pi) = x^2*pi2 - y^2*pi1 substituted at the third leaf, weight sign +1
    n1, s1 = canonicalize_node(("N", (inner, leaf(pi2))))
    n2, s2 = canonicalize_node(("N", (inner, leaf(pi1))))
    expected = expected + elem(res, n1, Poly.parse("x^2", ring).scale(s1))
    expected = expected - elem(res, n2, Poly.parse("y^2", ring).scale(s2))
    # hook substitution at the inner vertex: V(pi, pi) survives (even degree)
    expected = expected + elem(res, corolla(res, "pi", "pi"))
    assert out == expected


def test_normative_sign_template(quadratic_resolution, quadratic_hook):
    """Template expansion of the nested 3-leaf tree, built from primitives.

    delta(V(V(a,b),c)) = V(a,b) . c - V(a,b,c) + V(V(da,b),c)
      + (-1)^|a| V(V(a,db),c) + (-1)^(|a|+|b|) V(V(a,b),dc)
      + V(hook(V(a,b)), c) - hook(V(V(a,b),c)),
    with scalar-valued d-terms deleted by the decoration convention.
    """
    res = quadratic_resolution
    ring = res.ring
    differential = TreeDifferential(res, quadratic_hook)
    a, b, c = (res.gen_by_label(l) for l in ("pi", "pib", "pi3"))

    inner = ("N", (leaf(a), leaf(b)))
    raw = ("N", (inner, leaf(c)))
    node, sign = canonicalize_node(raw)
    engine = differential.on_tree(node).scale(sign)

    def sub_tree(outer_children, position, value):
        # rebuild with the decoration at `position` replaced by each module term
        out = AlgebraElement.zero(ring)
        for g, p in value.terms.items():
            kids = list(outer_children)
            kids[position] = leaf(g)
            rebuilt = ("N", (("N", tuple(kids[:2])), kids[2]))
            nn, s = canonicalize_node(rebuilt)
            if nn is not None:
                out = out + elem(res, nn, p.scale(s))
        return out

    da = res.diff[a]
    db = res.diff[b]
    dc_scalar = res.augment[c]

    split, s_split = make_monomial([("t", inner), ("t", leaf(c))])
    template = AlgebraElement(ring, {split: Poly.const(ring, s_split)})
    flat, s_flat = canonicalize_node(("N", (leaf(a), leaf(b), leaf(c))))
    template = template - elem(res, flat, Poly.const(ring, s_flat))
    template = template + sub_tree([leaf(a), leaf(b), leaf(c)], 0, da)
    template = template + sub_tree([leaf(a), leaf(b), leaf(c)], 1, db).scale(
        parity_sign(a.module_degree))
    # dc lands in the base ring: the term dies with the two-child root rule
    hook_ab = quadratic_hook.value(canonicalize_node(inner)[0])
    out_hook = AlgebraElement.zero(ring)
    for g, p in hook_ab.terms.items():
        nn, s = canonicalize_node(("N", (leaf(g), leaf(c))))
        if nn is not None:
            out_hook = out_hook + elem(res, nn, p.scale(s))
    template = template + out_hook
    template = template - AlgebraElement.from_module_element(
        quadratic_hook.value(node)).scale(sign)

    assert engine == template


# -- global identities -------------------------------------------------------------

def test_square_zero_quadratic_through_degree6(quadratic_resolution, quadratic_hook):
    differential = TreeDifferential(quadratic_resolution, quadratic_hook)
    report = verify_square_zero(differential, 6)
    assert report.passed, report.summary()


def test_square_zero_regular_through_degree6(regular_resolution, regular_hook):
    differential = TreeDifferential(regular_resolution, regular_hook)
    report = verify_square_zero(differential, 6)
    assert report.passed, report.summary()


def test_square_zero_monomial3(monomial3_resolution):
    hook = solve_hook(monomial3_resolution, 5)
    differential = TreeDifferential(monomial3_resolution, hook)
    report = verify_square_zero(differential, 5)
    assert report.passed, report.summary()


def test_retract_identity_quadratic(quadratic_resolution, quadratic_hook):
    report = verify_retract(quadratic_resolution, quadratic_hook, 6)
    assert report.passed, report.summary()


def test_retract_identity_regular(regular_resolution, regular_hook):
    report = verify_retract(regular_resolution, regular_hook, 6)
    assert report.passed, report.summary()


def test_leibniz_rule_randomized(quadratic_resolution, quadratic_hook):
    res = quadratic_resolution
    ring = res.ring
    differential = TreeDifferential(res, quadratic_hook)
    rng = random.Random(31)
    trees = []
    for d in range(1, 5):
        trees.extend(enumerate_tree_basis(res, d))

    def random_element():
        out = AlgebraElement.zero(ring)
        for _ in range(rng.randint(1, 3)):
            picks = [rng.choice(trees) for _ in range(rng.randint(1, 2))]
            mono, sign = make_monomial([("t", t) for t in picks])
            if mono is None:
                continue
            coeff = Poly.monomial(ring, (rng.randint(0, 2), rng.randint(0, 2)),
                                  rng.randint(-3, 3))
            out = out + AlgebraElement(ring, {mono: coeff.scale(sign)})
        return out

    from conftest import mono_degree

    for _ in range(150):
        a, b = random_element(), random_element()
        if not a.terms or not b.terms:
            continue
        # restrict a to one monomial so its homogeneous degree fixes the sign
        mono_a = next(iter(sorted(a.terms, key=str)))
        a = AlgebraElement(ring, {mono_a: a.terms[mono_a]})
        sign = parity_sign(mono_degree(mono_a))
        lhs = differential.apply(a * b)
        rhs = differential.apply(a) * b + a.scale(sign) * differential.apply(b)
        assert lhs == rhs


def test_hook_product_values(quadratic_resolution, quadratic_hook):
    res = quadratic_resolution
    a = module(res, {"pi1": "1"})
    b = module(res, {"pi2": "1"})
    assert hook_product(quadratic_hook, a, b) == module(res, {"pi": "x"})


def test_hook_product_leibniz(quadratic_resolution, quadratic_hook):
    report = verify_hook_product_leibniz(quadratic_resolution, quadratic_hook)
    assert report.passed, report.summary()


def test_hook_product_leibniz_monomial3(monomial3_resolution):
    hook = solve_hook(monomial3_resolution, 5)
    report = verify_hook_product_leibniz(monomial3_resolution, hook)
    assert report.passed, report.summary()
    assert report.checked == "81 generator pairs"


def test_corrupted_hook_breaks_square_zero(quadratic_resolution):
    # dropping the x*pi value leaves a nonzero square residue
    res = quadratic_resolution
    table = {
        corolla(res, "pi2", "pi3"): module(res, {"pib": "y"}),
        corolla(res, "pi1", "pi3"): module(res, {"pi": "y", "pib": "x"}),
    }
    hook = HookMap(res, table)
    differential = TreeDifferential(res, hook)
    report = verify_square_zero(differential, 4)
    assert not report.passed
    assert any("V(pi1,pi2)" in item for item, _ in report.failures)
    # the failures of the former store, which kept a None for each of the
    # 10 other trees, and of delta applied twice on a fresh evaluator
    oracle = TreeDifferential(res, hook)
    assert report.failures == [
        (tree_str(t), f"residue {r}") for degree in range(1, 5)
        for t in enumerate_tree_basis(res, degree)
        for r in (oracle.apply(oracle.on_tree(t)),) if not r.is_zero()]
    assert len(report.failures) == 5
    # only the failing trees' residues are kept, and a second walk reads them
    assert differential.squares_through == 4
    assert [tree_str(t) for t in differential._squares] == [t for t, _ in report.failures]
    again = verify_square_zero(differential, 4)
    assert (again.passed, again.checked, again.failures) == \
        (report.passed, report.checked, report.failures)


def former_solve_hook(res, neg_degree_max):
    """`solve_hook` before it stopped at degree length + 2: it evaluated the
    recursion on every inner basis tree through `hook_window` and checked
    each one past length + 1 to be zero.  Kept as the oracle; returns the
    table and the number of trees it evaluated past length + 2."""
    hook = HookMap(res, {})
    differential = hook.differential()
    past = 0
    for degree in range(3, hook_window(res, neg_degree_max) + 1):
        for node in enumerate_tree_basis(res, degree):
            if is_leaf(node):
                continue
            rhs = hook_equation_rhs(differential, node)
            if degree > res.length + 1:
                assert rhs.is_zero(), tree_str(node)
                past += degree > res.length + 2
                continue
            lifted = res.lift(rhs, degree - 1)
            assert lifted is not None, tree_str(node)
            hook.set_value(node, lifted)
    return hook, past


# spec: (trees the former loop evaluated past length + 2, trees solve_hook
# evaluates), at K = 8
HOOK_STOP = {"koszul_compare.kt": (62, 3), "koszul_function.kt": (0, 0),
             "monomial_ideal.kt": (3346, 89), "quadratic.kt": (543, 10),
             "regular_sequence.kt": (62, 3), "taylor_shear.kt": (931, 40)}


@pytest.mark.parametrize("name", sorted(HOOK_STOP))
def test_the_hook_solve_stops_at_length_plus_two(monkeypatch, name):
    res = parse_spec(ktforest.example_path(name)).resolution
    former, past = former_solve_hook(res, 8)
    evaluated = []
    rhs = kt.hook_equation_rhs

    def counting(differential, node):
        evaluated.append(node)
        return rhs(differential, node)

    monkeypatch.setattr(kt, "hook_equation_rhs", counting)
    hook = solve_hook(res, 8)
    assert (past, len(evaluated)) == HOOK_STOP[name]
    assert hook.table == former.table
    assert all(-tree_degree(t) <= res.length + 2 for t in evaluated)


@pytest.mark.parametrize("name, length, tree", [("quadratic.kt", 1, "V(pi1,pi2)"),
                                                ("monomial_ideal.kt", 2, "V(e1,e24)")])
def test_the_forced_zero_check_fails_at_length_plus_two(name, length, tree):
    # cut below its last module, the resolution is not exact at its new
    # length, where the recursion of a tree of degree length + 2 lands
    res = parse_spec(ktforest.example_path(name)).resolution
    gens = {-depth: res.generators(depth) for depth in range(1, length + 1)}
    kept = {g for depth_gens in gens.values() for g in depth_gens}
    cut = FreeResolution(res.ring, gens, {g: d for g, d in res.diff.items() if g in kept},
                         res.augment)
    with pytest.raises(SolveError) as err:
        solve_hook(cut, 6)
    assert (err.value.stage, err.value.item) == ("hook", tree)
    assert err.value.detail.startswith("forced-zero value but the recursion is nonzero")


def test_differential_raises_degree_by_one(quadratic_resolution, quadratic_hook):
    from conftest import mono_degree

    res = quadratic_resolution
    differential = TreeDifferential(res, quadratic_hook)
    for x in (AlgebraElement.from_tree(res.ring, t)
              for degree in range(1, 6) for t in enumerate_tree_basis(res, degree)):
        [(mono, _)] = list(x.terms.items())
        image = differential.apply(x)
        degrees = {mono_degree(m) for m in image.terms}
        assert degrees <= {mono_degree(mono) + 1}


@pytest.mark.parametrize("name", ["koszul_compare.kt", "koszul_function.kt",
                                  "monomial_ideal.kt", "quadratic.kt", "regular_sequence.kt"])
def test_homotopy_joins_to_single_trees(name):
    """h h = 0 and Proj h = 0 on every basis monomial through K = 6.

    h of a basis monomial is a sum of single joined trees, so h kills it
    again, and Proj sees no module, scalar or product part in it whatever
    the table: `verify_incl_proj` relies on this instead of checking it.
    """
    res = parse_spec(ktforest.example_path(name)).resolution
    ring = res.ring

    def no_table(node):
        pytest.fail(f"Proj h read the table on {tree_str(node)}")

    for degree in range(1, 7):
        for mono in enumerate_monomial_basis(res, degree):
            hx = homotopy(AlgebraElement(ring, {mono: Poly.const(ring, 1)}))
            assert (len(mono[0]) >= 2) == (not hx.is_zero())
            assert all(len(trees) == 1 and not is_leaf(trees[0]) for trees, _ in hx.terms)
            assert homotopy(hx).is_zero()
            assert project_to_resolution(no_table, hx).is_zero()
