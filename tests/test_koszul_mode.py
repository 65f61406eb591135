"""The Koszul-complex comparison: wedge hook, ingested tables, square zero."""

from __future__ import annotations

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import (PositivePart, koszul_hook, koszul_mode,
                                solve_residues_explicit, verify_extension)
from ktforest.forest import AlgebraElement, enumerate_tree_basis, is_leaf, tree_degree
from ktforest.grammar import SymbolTable, parse_element, parse_tree
from ktforest.kt import solve_hook, verify_hook
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId, ModuleElement, build_koszul_complex
from conftest import entries


REGULAR_GENS = {1: ["xi11", "xi12", "xi21", "xi22"], 2: ["eta1", "eta2"]}

REGULAR_Q_VARS = {
    "x": "x^2*xi11 + y^2*xi12",
    "y": "x^2*xi21 + y^2*xi22",
}

# The eta1 image carries a corrected sign on its first term: the printed
# general formula breaks the x <-> y mirror symmetry of this example there,
# and the corrected sign is the unique square-zero completion.
REGULAR_Q_GENS = {
    "xi11": "-y^2*eta1 + 2*y*xi12*xi21",
    "xi12": "x^2*eta1 + 2*x*xi11*xi12 + 2*y*xi12*xi22",
    "xi21": "-y^2*eta2 - 2*x*xi11*xi21 - 2*y*xi21*xi22",
    "xi22": "x^2*eta2 - 2*x*xi12*xi21",
    "eta1": "-2*y*xi22*eta1 + 2*y*xi12*eta2 + 2*xi12*xi21*xi22",
    "eta2": "-2*x*xi11*eta2 + 2*x*xi21*eta1 + 2*xi11*xi12*xi21",
}

# ingested level tables on the rank-1 exterior generators
REGULAR_QK_LEVEL0 = {
    "e1": "-2*x*e1*xi11 - 2*x*e2*xi12",
    "e2": "-2*y*e1*xi21 - 2*y*e2*xi22",
}
REGULAR_QK_LEVEL1 = {
    "e1": "-2*x*e12*eta1 - 2*e12*xi11*xi12",
    "e2": "-2*y*e12*eta2 - 2*e12*xi21*xi22",
}


@pytest.fixture(scope="module")
def regular_koszul(ring_xy):
    return build_koszul_complex(
        [Poly.parse("x^2", ring_xy), Poly.parse("y^2", ring_xy)])


@pytest.fixture(scope="module")
def regular_pos_symbols(ring_xy, regular_koszul):
    gens = []
    for degree, labels in REGULAR_GENS.items():
        for i, label in enumerate(labels):
            gens.append(GeneratorId(degree, i, label))
    table = {g.label: g for g in gens}
    for depth in range(1, regular_koszul.length + 1):
        for g in regular_koszul.generators(depth):
            table[g.label] = g
    symbols = SymbolTable(ring_xy, table)
    q_on_vars = {ring_xy.var_index(v): parse_element(t, symbols)
                 for v, t in REGULAR_Q_VARS.items()}
    q_on_gens = {symbols.generators[l]: parse_element(t, symbols)
                 for l, t in REGULAR_Q_GENS.items()}
    pos = PositivePart(ring_xy, gens, q_on_vars, q_on_gens)
    return pos, symbols


def test_regular_positive_square_zero(regular_pos_symbols):
    pos, _ = regular_pos_symbols
    assert pos.square_issues() == []


def test_koszul_hook_is_wedge(regular_koszul, regular_pos_symbols):
    pos, symbols = regular_pos_symbols
    hook = koszul_hook(regular_koszul)
    node = parse_tree("V(e1,e2)", symbols)
    assert hook.element(node) == AlgebraElement.from_module_element(ModuleElement.of_gen(
        regular_koszul.ring, regular_koszul.gen_by_label("e12")))
    report = verify_hook(regular_koszul, hook, 6)
    assert report.passed, report.summary()
    # nonzero entries only on trees without inner vertices
    from ktforest.forest import is_leaf

    for tnode in hook.table:
        assert all(is_leaf(c) for c in tnode[1])


def test_koszul_hook_three_leaf_associativity(ring_xyz):
    # on a longer complex the three-leaf value is the iterated product
    kres = build_koszul_complex([Poly.parse(t, ring_xyz) for t in ("x", "y", "z")])
    hook = koszul_hook(kres)
    report = verify_hook(kres, hook, 6)
    assert report.passed, report.summary()
    gens = {g.label: g for depth in range(1, 4) for g in kres.generators(depth)}
    table = {g.label: g for g in gens.values()}
    symbols = SymbolTable(ring_xyz, table)
    node = parse_tree("V(e1,e2,e3)", symbols)
    sign, e123 = kres.wedge_gens(gens["e1"], gens["e2"], gens["e3"])
    assert hook.element(node) == AlgebraElement.from_module_element(
        ModuleElement.of_gen(ring_xyz, e123, Poly.const(ring_xyz, sign)))


def former_koszul_hook_table(kres, neg_degree_max):
    """`koszul_hook`'s table as walked before it stopped at length + 1: every
    corolla through max(K, length + 1), valued in its exterior product."""
    table = {}
    for degree in range(3, max(neg_degree_max, kres.length + 1) + 1):
        for tree in enumerate_tree_basis(kres, degree):
            if is_leaf(tree) or not all(is_leaf(c) for c in tree[1]):
                continue
            product = kres.wedge_gens(*(c[1] for c in tree[1]))
            if product is not None:
                table[tree] = AlgebraElement.from_module_element(ModuleElement.of_gen(
                    kres.ring, product[1], Poly.const(kres.ring, product[0])))
    return table


@pytest.mark.parametrize("name", ["koszul_compare.kt", "xyz"])
def test_koszul_hook_stops_at_length_plus_one(ring_xyz, name):
    # an exterior product on a corolla of depths d_i lands at depth sum d_i,
    # at most the length, so the walk through K = 8 finds no further entry
    kres = (parse_spec(ktforest.example_path(name)).resolution if name.endswith(".kt")
            else build_koszul_complex([Poly.parse(t, ring_xyz) for t in ("x", "y", "z")]))
    hook = koszul_hook(kres)
    assert hook.table == former_koszul_hook_table(kres, 8)
    assert max(-tree_degree(t) for t in hook.table) == kres.length + 1


def test_koszul_comparison_mode(regular_koszul, regular_pos_symbols):
    pos, symbols = regular_pos_symbols
    kres = regular_koszul
    tables = {
        0: {kres.gen_by_label(l): parse_element(t, symbols)
            for l, t in REGULAR_QK_LEVEL0.items()},
        1: {kres.gen_by_label(l): parse_element(t, symbols)
            for l, t in REGULAR_QK_LEVEL1.items()},
    }
    hook = koszul_hook(kres)
    assert verify_hook(kres, hook, 6).passed
    ext, report = koszul_mode(kres, pos, hook, tables)
    assert report.passed, report.summary()
    assert report.checked == "9 generator pairs"
    # no corrections of nonnegative level on trees
    assert not entries(ext, "tree")
    # restriction to the core equals the ingested tables
    for label, text in REGULAR_QK_LEVEL0.items():
        g = kres.gen_by_label(label)
        assert ext.q_level_on_gen(0, g) == parse_element(text, symbols)
    for label, text in REGULAR_QK_LEVEL1.items():
        g = kres.gen_by_label(label)
        assert ext.q_level_on_gen(1, g) == parse_element(text, symbols)
    # the assembled differential squares to zero on the whole window
    square = verify_extension(ext, 6)
    assert square.passed, square.summary()


def test_koszul_mode_rejects_invalid_tables(regular_koszul, regular_pos_symbols):
    pos, symbols = regular_pos_symbols
    kres = regular_koszul
    tables = {
        0: {kres.gen_by_label("e1"): parse_element("-2*x*e1*xi11", symbols),
            kres.gen_by_label("e2"): parse_element(
                REGULAR_QK_LEVEL0["e2"], symbols)},
    }
    ext, report = koszul_mode(kres, pos, koszul_hook(kres), tables)
    square = verify_extension(ext, 5)
    assert not square.passed


@pytest.mark.parametrize("text", ["x*xi11", "e1*e2"], ids=["scalar", "tree-product"])
def test_koszul_mode_rejects_a_value_off_the_generators(regular_koszul, regular_pos_symbols,
                                                        text):
    pos, symbols = regular_pos_symbols
    kres = regular_koszul
    tables = {0: {kres.gen_by_label("e2"): parse_element(text, symbols)}}
    with pytest.raises(ValueError, match="Q0 e2 is not one generator times positives"):
        koszul_mode(kres, pos, koszul_hook(kres), tables)


def test_regular_sequence_general_mode_agrees(ring_xy, regular_pos_symbols):
    """General mode on the regular-sequence data matches the explicit mode
    on every generator image, up to exact terms."""
    from ktforest.extension import solve_general_extension, solve_residues_explicit
    from ktforest.kt import solve_hook

    from conftest import boundary_equivalent, make_resolution

    res = make_resolution(
        ring_xy,
        layers=[["pi1", "pi2"], ["pi"]],
        diff_lines={"pi": {"pi2": "x^2", "pi1": "-y^2"}},
        augment_lines={"pi1": "x^2", "pi2": "y^2"},
    )
    pos, _symbols = regular_pos_symbols
    hook = solve_hook(res, 5)
    explicit = solve_residues_explicit(res, pos, hook, 5)
    general = solve_general_extension(res, pos, hook, 5)
    assert not entries(general, "variable") and not entries(general, "positive")
    for depth in (1, 2):
        for g in res.generators(depth):
            for k in range(0, 2):
                assert boundary_equivalent(res, general.q_level_on_gen(k, g),
                                           explicit.q_level_on_gen(k, g))
