"""The one-pass Leibniz evaluator against the formulas it replaced.

`mono_mul` is compared with `make_monomial` on the concatenated factors,
`apply_derivation` with the former left * image * right evaluation (kept
below as the oracle, multiplying through `make_monomial`), on drawn
elements and on one element for each shape of the rest a factor's image
meets, and the one-pass `ExtensionData.apply` with the sum of its levels,
on trees and on coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ktforest
from ktforest.cli import main, parse_spec
from ktforest.extension import solve_general_extension, solve_residues_explicit
from ktforest.forest import (AlgebraElement, apply_derivation, collect, enumerate_tree_basis,
                             is_leaf, make_monomial, mono_mul, parity_sign, sum_elements,
                             tree_degree)
from ktforest.kt import SolveError, TreeDifferential, solve_hook
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId
from conftest import entries

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
K = 5

# positive generators of odd and of even degree
POSITIVES = (GeneratorId(1, 0, "xi1"), GeneratorId(1, 1, "xi2"), GeneratorId(2, 0, "eta"))


# ---------------------------------------------------------------------------
# the oracle: the evaluator before the merged products
# ---------------------------------------------------------------------------

def factors_of(mono):
    trees, pos = mono
    return [("p", g) for g in pos] + [("t", t) for t in trees]


def product_by_sorting(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    out = AlgebraElement.zero(a.ring)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono, sign = make_monomial(factors_of(m1) + factors_of(m2))
            if mono is not None:
                out = out + AlgebraElement(a.ring, {mono: (c1 * c2).scale(sign)})
    return out


def leibniz_oracle(elem, on_tree, on_positive=None, on_coeff=None):
    ring = elem.ring
    one = Poly.const(ring, 1)
    out = AlgebraElement.zero(ring)
    for (trees, pos), c in elem.terms.items():
        rest = AlgebraElement(ring, {(trees, pos): one})
        if on_coeff is not None:
            dc = on_coeff(c)
            if dc is not None and not dc.is_zero():
                out = out + product_by_sorting(dc, rest)
        passed = 0
        for i, g in enumerate(pos):
            if on_positive is not None:
                img = on_positive(g)
                if img is not None and not img.is_zero():
                    left = AlgebraElement(ring, {((), pos[:i]): c.scale(parity_sign(passed))})
                    right = AlgebraElement(ring, {(trees, pos[i + 1:]): one})
                    out = out + product_by_sorting(product_by_sorting(left, img), right)
            passed += g.module_degree
        for i, t in enumerate(trees):
            img = on_tree(t)
            if img is not None and not img.is_zero():
                left = AlgebraElement(ring, {(trees[:i], pos): c.scale(parity_sign(passed))})
                right = AlgebraElement(ring, {(trees[i + 1:], ()): one})
                out = out + product_by_sorting(product_by_sorting(left, img), right)
            passed += tree_degree(t)
    return out


# ---------------------------------------------------------------------------
# data: monomial_ideal.kt solved at K = 5
# ---------------------------------------------------------------------------

SPEC = parse_spec(ktforest.example_path("monomial_ideal.kt"))
RES = SPEC.resolution
RING = RES.ring
TREES = tuple(t for d in range(1, K + 1) for t in enumerate_tree_basis(RES, d))
FACTORS = tuple([("p", g) for g in POSITIVES + SPEC.positive.gens]
                + [("t", t) for t in TREES])


@pytest.fixture(scope="module")
def ext():
    hook = solve_hook(RES, K)
    return solve_residues_explicit(RES, SPEC.positive, hook, K)


polys = st.builds(
    lambda terms: Poly(RING, {e: Fraction(c) for e, c in terms}),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * RING.num_vars),
                       st.integers(-3, 3)), min_size=1, max_size=2))
factor_lists = st.lists(st.sampled_from(FACTORS), max_size=4)


def element_from(draws) -> AlgebraElement:
    out = AlgebraElement.zero(RING)
    for factors, coeff in draws:
        mono, sign = make_monomial(factors)
        if mono is not None:
            out = out + AlgebraElement(RING, {mono: coeff.scale(sign)})
    return out


elements = st.builds(element_from, st.lists(st.tuples(factor_lists, polys), max_size=3))


# ---------------------------------------------------------------------------
# merged products
# ---------------------------------------------------------------------------

XI1, XI2, ETA = (("p", g) for g in POSITIVES)
LEAF = ("t", TREES[0])  # a trivial tree of odd degree


@SETTINGS
@given(factor_lists, factor_lists)
@example([XI1, LEAF], [XI2, LEAF])  # an odd tree in both: zero
@example([LEAF, ETA], [XI1, XI2])  # positives of b pass the tree of a
def test_mono_mul_matches_make_monomial(fa, fb):
    a, _ = make_monomial(fa)
    b, _ = make_monomial(fb)
    if a is None or b is None:
        return
    assert mono_mul(a, b) == make_monomial(factors_of(a) + factors_of(b))


def test_mono_mul_zero_case():
    a, _ = make_monomial([XI1, LEAF])
    assert mono_mul(a, a) == (None, 0)
    assert make_monomial(factors_of(a) * 2) == (None, 0)


@SETTINGS
@given(elements, elements)
def test_algebra_product_matches_sorting(x, y):
    assert x * y == product_by_sorting(x, y)


# ---------------------------------------------------------------------------
# the Leibniz rule
# ---------------------------------------------------------------------------

@SETTINGS
@given(elements, st.integers(-1, 1))
def test_apply_derivation_matches_oracle_per_level(ext, x, k):
    k = min(k, ext.level_max)
    if k == -1:
        images = dict(on_tree=ext.hook.differential().on_tree)
    else:
        level = range(k, k + 1)
        images = dict(on_tree=lambda t: ext.q_level_on_tree(level, t),
                      on_positive=lambda g: ext.q_level_on_tree(level, g)
                      if g in SPEC.positive.gens else None,
                      on_coeff=lambda c: ext.q_level_on_coeff(level, c))
    assert apply_derivation(x, **images) == leibniz_oracle(x, **images)


@SETTINGS
@given(elements, st.lists(elements, min_size=1, max_size=4))
def test_apply_derivation_matches_oracle_on_any_images(x, table):
    """Images of mixed degree: the sign follows each image term's degree.

    The coefficient image is a derivation of O (d/dx times a drawn element),
    as `apply_derivation` requires.
    """
    images = dict(on_tree=lambda t: table[TREES.index(t) % len(table)],
                  on_positive=lambda g: table[g.index % len(table)],
                  on_coeff=lambda c: table[-1].scale(c.partial(0)))
    assert apply_derivation(x, **images) == leibniz_oracle(x, **images)


@SETTINGS
@given(elements)
def test_tree_differential_matches_oracle(ext, x):
    delta = TreeDifferential(RES, ext.hook)
    x = AlgebraElement(RING, {m: c for m, c in x.terms.items() if not m[1]})
    assert delta.apply(x) == leibniz_oracle(x, delta.on_tree)


@SETTINGS
@given(elements)
def test_extension_apply_is_the_sum_of_its_levels(ext, x):
    x = AlgebraElement(RING, {m: c for m, c in x.terms.items()
                              if set(m[1]) <= set(SPEC.positive.gens)})
    total = AlgebraElement.zero(RING)
    for k in range(-1, ext.level_max + 1):
        total = total + ext.apply_level(k, x)
    assert ext.apply(x) == total


def test_a_tree_whose_projection_has_no_lift_is_a_solve_error(monkeypatch, capsys):
    """The tree step lifts the projection of a tree's closed element into
    module x positives; when that has no preimage, the level and the tree
    are named, and a general-mode run ends in a no-solution stage, exit 3."""
    import ktforest.extension as extension

    lift = extension.lift_delta_preimage

    def no_lift_from_depth_2(res, target):
        # on taylor_shear.kt only the level-0 tree steps lift from depth 2
        if any(trees and trees[0][1].module_degree == -2 for trees, _pos in target.terms):
            return None
        return lift(res, target)

    monkeypatch.setattr(extension, "lift_delta_preimage", no_lift_from_depth_2)
    path = ktforest.example_path("taylor_shear.kt")
    spec = parse_spec(path)
    res = spec.resolution
    with pytest.raises(SolveError) as err:
        solve_general_extension(res, spec.positive, solve_hook(res, K), K)
    assert (err.value.stage, err.value.item) == ("residue level 0", "V(e1,e2)")
    assert str(err.value) == ("[residue level 0] no solution for V(e1,e2): "
                              "no preimage under the resolution differential")

    capsys.readouterr()
    code = main(["run", path, "--mode", "general", "--neg-degree-max", "4"])
    out = capsys.readouterr().out
    assert code == 3
    assert ("residue level 0: no-solution (V(e1,e2): "
            "no preimage under the resolution differential)") in out
    assert "result: FAIL" in out


# ---------------------------------------------------------------------------
# every branch of the kernel
# ---------------------------------------------------------------------------

def tree_of(degree, joined=False):
    return next(t for t in TREES if tree_degree(t) == degree and is_leaf(t) != joined)


ODD, EVEN, JOIN = ("t", tree_of(-1)), ("t", tree_of(-2)), ("t", tree_of(-3, joined=True))
ODD2 = ("t", TREES[1])  # a second leaf of degree -1
X, Y = (Poly.variable(RING, j) for j in range(2))
ONE = Poly.const(RING, 1)

# images of mixed degree whose terms meet every merge outcome: an odd
# factor of the rest repeated (zero), keys before and after the rest's
IMAGE = element_from([([ODD], ONE), ([ODD2], X), ([XI1, EVEN], X), ([XI2], Y),
                      ([ETA, XI2], ONE.scale(2)),
                      ([ODD2, JOIN, XI1, ETA], Y - ONE.scale(3)), ([], X * Y)])
IMAGES = dict(on_tree=lambda t: IMAGE if tree_degree(t) % 2 else -IMAGE,
              on_positive=lambda g: IMAGE.scale(X) if g[0] % 2 else IMAGE,
              on_coeff=lambda c: IMAGE.scale(c.partial(0)))

# the rest that each factor's image meets
RESTS = {
    "no factor left, a tree": [([ODD], ONE)],
    "no factor left, a positive": [([XI2], ONE)],
    "one odd positive": [([EVEN, XI1], ONE), ([EVEN, XI2], ONE)],
    "one even positive": [([ODD, ETA], ONE)],
    "two positives, odd and even": [([ODD, XI1, ETA], ONE)],
    "two odd positives": [([JOIN, XI1, XI2], ONE)],
    "only trees": [([ODD, EVEN, JOIN], ONE)],
    "trees and positives": [([ODD2, EVEN, XI1, ETA], ONE)],
    "multi-term, non-unit coefficients": [([ODD, XI1], X.scale(2) - Y), ([EVEN, ETA], X * Y),
                                          ([ODD2, JOIN, XI2], ONE.scale(-3))],
}


@pytest.mark.parametrize("rest", RESTS)
def test_kernel_branch_matches_oracle(rest):
    x = element_from(RESTS[rest])
    expected = leibniz_oracle(x, **IMAGES)
    assert apply_derivation(x, **IMAGES) == expected
    # into a given accumulator, with sign -1
    start = element_from([([ODD, XI1], X), ([EVEN], ONE)])
    acc = {mono: dict(c.terms) for mono, c in start.terms.items()}
    assert apply_derivation(x, **IMAGES, acc=acc, sign=-1) is acc
    assert collect(RING, acc) == start - expected
    # a second image of each tree, inserted in the same place
    extra = dict(IMAGES, on_tree_extra=lambda t: IMAGE.scale(Y))
    assert apply_derivation(x, **extra) == leibniz_oracle(
        x, **dict(IMAGES, on_tree=lambda t: IMAGES["on_tree"](t) + IMAGE.scale(Y)))


def coefficient_oracle(ext, k, c):
    """Q_k on a coefficient by the formula the in-place sum replaced."""
    if k == 0:
        images = ext.pos.q_on_vars.items()
    else:
        images = [(j, val) for (kk, j), val in entries(ext, "variable").items() if kk == k]
    out = AlgebraElement.zero(ext.res.ring)
    for j, image in images:
        out = out + image.scale(c.partial(j))
    return out


@pytest.mark.parametrize("name, solve", [
    ("quadratic.kt", solve_residues_explicit), ("quadratic.kt", solve_general_extension),
    ("ideal-only quadratic", solve_general_extension)])
def test_coefficient_image_is_the_sum_of_its_levels(monkeypatch, name, solve):
    """After each level is solved, over every level range: the evaluator's
    image of a coefficient is the sum of its per-level images, and those
    are the variables' images times the partial derivatives."""
    import ktforest.extension as extension
    from test_homotopy_corrections import inputs

    res, positive, hook = inputs(name)
    ring = res.ring
    coeffs = [Poly.parse(text, ring) for text in ("x", "x^2*y - 3*y", "x*y^2 + 2")]
    solve_finite_tables = extension._solve_finite_tables
    solved = []

    def check(ext):  # levels 0..level_max are solved
        k = ext.level_max
        for c in coeffs:
            scalar = AlgebraElement.scalar(c)
            per_level = [ext.q_level_on_coeff(range(m, m + 1), c) for m in range(k + 1)]
            for m in range(k + 1):
                assert per_level[m] == coefficient_oracle(ext, m, c)
                assert ext.apply_level(m, scalar) == per_level[m]
            for lo in range(k + 1):
                for hi in range(lo, k + 1):
                    total = sum_elements(ring, per_level[lo:hi + 1])
                    assert ext.q_level_on_coeff(range(lo, hi + 1), c) == total
            assert ext.apply(scalar) == sum_elements(ring, per_level)
        solved.append(k)

    def check_then_solve(ext, k):  # level k - 1 is solved when level k starts
        if k:
            check(ext)
        solve_finite_tables(ext, k)

    monkeypatch.setattr(extension, "_solve_finite_tables", check_then_solve)
    ext = solve(res, positive, hook, K)
    check(ext)
    assert solved == list(range(ext.level_max + 1))
    if name == "ideal-only quadratic":
        assert any(k > 0 for k, _j in entries(ext, "variable"))  # levels above 0 are read


@pytest.mark.parametrize("solve", [solve_residues_explicit, solve_general_extension])
def test_the_explicit_guard_fires_on_a_perturbed_tree_table(monkeypatch, solve):
    """On input that squares to zero on O, both solvers evaluate a tree by
    the tree formula over the stored table, which must reproduce the tree
    step's value; a perturbed entry is a SolveError naming the level and the
    tree."""
    import ktforest.extension as extension

    solve_tree = extension._solve_tree

    def doubled(ext, k, node):
        value = solve_tree(ext, k, node)
        if (k, node) in ext.tables:
            ext.tables[(k, node)] = ext.tables[(k, node)].scale(2)
        return value

    spec = parse_spec(ktforest.example_path("taylor_shear.kt"))
    res = spec.resolution
    hook = solve_hook(res, K)
    assert entries(solve(res, spec.positive, hook, K), "tree")  # unperturbed: solved
    monkeypatch.setattr(extension, "_solve_tree", doubled)
    with pytest.raises(SolveError) as err:
        solve(res, spec.positive, hook, K)
    assert (err.value.stage, err.value.item) == ("residue level 0", "V(e1,e2)")
    assert "the tree formula gives" in err.value.detail


# ---------------------------------------------------------------------------
# generator hashes
# ---------------------------------------------------------------------------

def test_equal_generators_hash_equal():
    a, b = GeneratorId(-2, 3, "e13"), GeneratorId(-2, 3, "e13")
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert GeneratorId(2, 3, "e13") != a
    assert a.key == (2, 3, "e13")
