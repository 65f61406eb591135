"""Extension solving against the worked examples, both modes, and products."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import (ExtensionData, PositivePart, check_ideal_preserved, higher_product, koszul_hook, koszul_mode,
                                solve_general_extension, solve_residues_explicit,
                                verify_extension, verify_incl_proj, verify_product_defect)
from ktforest.forest import AlgebraElement, leaf
from ktforest.grammar import SymbolTable, parse_element, parse_tree
from ktforest.kt import SolveError, solve_hook
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId, build_koszul_complex
from conftest import boundary_equivalent, entries, source_kind
from test_cli import BUNDLED_SPECS


def make_positive(ring, degree_labels, q_vars, q_gens, symbols_extra=None):
    """Build a positive part from label lists per degree and image texts."""
    gens = []
    for degree, labels in degree_labels.items():
        for i, label in enumerate(labels):
            gens.append(GeneratorId(degree, i, label))
    table = {g.label: g for g in gens}
    table.update(symbols_extra or {})
    symbols = SymbolTable(ring, table)
    q_on_vars = {ring.var_index(v): parse_element(text, symbols)
                 for v, text in q_vars.items()}
    q_on_gens = {table[label]: parse_element(text, symbols)
                 for label, text in q_gens.items()}
    return PositivePart(ring, gens, q_on_vars, q_on_gens), symbols


def res_symbols(res, pos=None):
    table = {}
    for depth in range(1, res.length + 1):
        for g in res.generators(depth):
            table[g.label] = g
    if pos is not None:
        for g in pos.gens:
            table[g.label] = g
    return SymbolTable(res.ring, table)


@pytest.fixture(scope="module")
def quadratic_positive(ring_xy):
    pos, _ = make_positive(
        ring_xy,
        {1: ["xi1", "xi2", "xi3", "xi4"], 2: ["eta1", "eta2"]},
        q_vars={"x": "x*xi1 + y*xi2", "y": "x*xi3 + y*xi4"},
        q_gens={
            "xi1": "-y*eta1 + xi2*xi3",
            "xi2": "x*eta1 + xi1*xi2 + xi2*xi4",
            "xi3": "-y*eta2 - xi1*xi3 - xi3*xi4",
            "xi4": "x*eta2 - xi2*xi3",
            "eta1": "xi2*eta2 - xi4*eta1",
            "eta2": "-xi1*eta2 + xi3*eta1",
        },
    )
    return pos


@pytest.fixture(scope="module")
def quadratic_ext(quadratic_resolution, quadratic_positive):
    hook = solve_hook(quadratic_resolution, 6)
    return solve_residues_explicit(quadratic_resolution, quadratic_positive, hook, 6)


@pytest.fixture(scope="module")
def monomial3_positive(ring_xyz):
    pos, _ = make_positive(
        ring_xyz,
        {1: ["xi"]},
        q_vars={"y": "x*xi"},
        q_gens={"xi": "0*xi"},
    )
    return pos


MONOMIAL3_HOOK_LINES = [
    "V(e1,e2) -> -x*e24 + z*e14",
    "V(e1,e3) -> x*e13",
    "V(e1,e4) -> x*e14",
    "V(e2,e3) -> z*e24 - z*e34",
    "V(e2,e4) -> y*e24",
    "V(e3,e4) -> x*e34",
    "V(e1,e34) -> x*e134",
    "V(e2,e13) -> z*e134",
    "V(e3,e14) -> -x*e134",
    "V(e4,e13) -> x*e134",
    "V(e1,e2,e3) -> -x*z*e134",
    "V(e1,e3,e4) -> x^2*e134",
]


@pytest.fixture(scope="module")
def monomial3_hook(monomial3_resolution, monomial3_positive):
    """The printed hook table for the length-3 monomial example."""
    from ktforest.grammar import parse_hook_table
    from ktforest.kt import HookMap, verify_hook

    res = monomial3_resolution
    symbols = res_symbols(res, monomial3_positive)
    table = parse_hook_table(MONOMIAL3_HOOK_LINES, symbols)
    hook = HookMap(res, table)
    report = verify_hook(res, hook, 5)
    assert report.passed, report.summary()
    return hook


@pytest.fixture(scope="module")
def monomial3_ext(monomial3_resolution, monomial3_positive, monomial3_hook):
    return solve_residues_explicit(monomial3_resolution, monomial3_positive,
                                   monomial3_hook, 5)


def test_monomial3_solver_hook_extension(monomial3_resolution, monomial3_positive):
    # the solver's own hook also supports a square-zero extension
    hook = solve_hook(monomial3_resolution, 5)
    ext = solve_residues_explicit(monomial3_resolution, monomial3_positive, hook, 5)
    report = verify_extension(ext, 4)
    assert report.passed, report.summary()


def expect(ext, symbols, text):
    return parse_element(text, symbols)


# -- input gates -----------------------------------------------------------------

def test_positive_square_zero(quadratic_positive):
    assert quadratic_positive.square_issues() == []


def test_ideal_preserved_quadratic(quadratic_resolution, quadratic_positive):
    report = check_ideal_preserved(quadratic_positive,
                                   quadratic_resolution.ideal_generators())
    assert report.passed, report.summary()


def test_ideal_preserved_monomial3(monomial3_resolution, monomial3_positive):
    # the single derivation sends y*z to x*z, inside the ideal
    report = check_ideal_preserved(monomial3_positive,
                                   monomial3_resolution.ideal_generators())
    assert report.passed, report.summary()


def test_non_preserving_derivation_fails(ring_xy, quadratic_resolution):
    pos, _ = make_positive(ring_xy, {1: ["xi"]},
                           q_vars={"y": "xi"}, q_gens={"xi": "0*xi"})
    report = check_ideal_preserved(pos, quadratic_resolution.ideal_generators())
    assert not report.passed  # derivative of y^2 is 2*y*xi, and y is not in the ideal


@pytest.mark.parametrize("degrees", [(), (1,), (2,), (1, 1, 2), (3, 5), (2, 3), (4, 6, 7)])
def test_slice_nonempty_matches_brute_force(ring_xy, degrees):
    """Degrees of positive monomials, enumerated exponent by exponent; odd
    generators square to zero.  Degrees reach past 64."""
    gens = [GeneratorId(d, i, f"p{i}") for i, d in enumerate(degrees)]
    pos = PositivePart(ring_xy, gens, {}, {g: AlgebraElement.zero(ring_xy) for g in gens})
    top = 70
    exponents = [range(2) if d % 2 else range(top // d + 1) for d in degrees]
    reached = {sum(e * d for e, d in zip(exps, degrees)) for exps in product(*exponents)}
    for degree in range(-2, top + 1):
        assert pos.slice_nonempty(degree) == (degree in reached), degree


# -- the worked quadratic example ---------------------------------------------------

def test_quadratic_level0_values(quadratic_resolution, quadratic_positive, quadratic_ext):
    res, ext = quadratic_resolution, quadratic_ext
    symbols = res_symbols(res, quadratic_positive)
    expected = {
        "pi1": "2*xi1*pi1 + 2*xi2*pi2",
        "pi2": "xi1*pi2 + xi2*pi3 + xi3*pi1 + xi4*pi2",
        "pi3": "2*xi3*pi2 + 2*xi4*pi3",
        "pi": "2*xi1*pi + xi2*pib + xi4*pi",
        "pib": "xi1*pib + xi3*pi + 2*xi4*pib",
    }
    for label, text in expected.items():
        g = res.gen_by_label(label)
        value = ext.q_level_on_gen(0, g)
        want = expect(ext, symbols, text)
        assert boundary_equivalent(res, value, want), (label, str(value))
        assert value == want, (label, str(value))


def test_quadratic_level1_values(quadratic_resolution, quadratic_positive, quadratic_ext):
    res, ext = quadratic_resolution, quadratic_ext
    symbols = res_symbols(res, quadratic_positive)
    expected = {
        "pi1": "-2*eta1*pi",
        "pi2": "-eta1*pib - eta2*pi",
        "pi3": "-2*eta2*pib",
    }
    for label, text in expected.items():
        g = res.gen_by_label(label)
        value = ext.q_level_on_gen(1, g)
        want = expect(ext, symbols, text)
        assert boundary_equivalent(res, value, want), (label, str(value))
        assert value == want, (label, str(value))
    for label in ("pi", "pib"):
        assert ext.q_level_on_gen(1, res.gen_by_label(label)).is_zero()


def test_quadratic_tree_corrections_vanish(quadratic_ext):
    # with a length-2 resolution there is no room for corrections on trees
    assert not entries(quadratic_ext, "tree")


def test_quadratic_square_zero(quadratic_ext):
    report = verify_extension(quadratic_ext, 6)
    assert report.passed, report.summary()


def test_quadratic_incl_proj(quadratic_ext):
    report = verify_incl_proj(quadratic_ext, 5)
    assert report.passed, report.summary()


def test_quadratic_worked_table_verbatim(quadratic_resolution, quadratic_positive):
    """The printed correction table, with the solver's value for the one
    entry whose printed form names a generator that does not exist."""
    res = quadratic_resolution
    hook = solve_hook(res, 6)
    ext = solve_residues_explicit(res, quadratic_positive, hook, 6)
    symbols = res_symbols(res, quadratic_positive)
    worked = ExtensionData(res, quadratic_positive, hook)
    table = {
        (0, "pi1"): "2*xi1*pi1 + 2*xi2*pi2",
        (0, "pi3"): "2*xi3*pi2 + 2*xi4*pi3",
        (0, "pi"): "2*xi1*pi + xi2*pib + xi4*pi",
        (0, "pib"): "xi1*pib + xi3*pi + 2*xi4*pib",
        (1, "pi1"): "-2*eta1*pi",
        (1, "pi2"): "-eta1*pib - eta2*pi",
        (1, "pi3"): "-2*eta2*pib",
    }
    for (k, label), text in table.items():
        worked.tables[(k, res.gen_by_label(label))] = expect(worked, symbols, text)
    worked.tables[(0, res.gen_by_label("pi2"))] = ext.q_level_on_gen(
        0, res.gen_by_label("pi2"))
    worked.level_max = 1
    report = verify_extension(worked, 6)
    assert report.passed, report.summary()


def test_corrupted_table_detected(quadratic_resolution, quadratic_positive, quadratic_ext):
    res = quadratic_resolution
    broken = ExtensionData(res, quadratic_positive, quadratic_ext.hook)
    broken.tables = entries(quadratic_ext, "module")
    broken.level_max = quadratic_ext.level_max
    g = res.gen_by_label("pi1")
    symbols = res_symbols(res, quadratic_positive)
    broken.tables[(0, g)] = expect(broken, symbols, "2*xi1*pi1")  # drop one term
    report = verify_extension(broken, 4)
    assert not report.passed
    assert any("pi1" in item for item, _ in report.failures)


# -- general mode ----------------------------------------------------------------

def test_general_mode_matches_explicit(quadratic_resolution, quadratic_positive,
                                       quadratic_ext):
    res = quadratic_resolution
    hook = quadratic_ext.hook
    gen = solve_general_extension(res, quadratic_positive, hook, 5)
    assert not entries(gen, "variable"), \
        "variable corrections should vanish for a preserved ideal"
    assert not entries(gen, "positive")
    for depth in range(1, res.length + 1):
        for g in res.generators(depth):
            for k in range(0, 2):
                assert boundary_equivalent(res, gen.q_level_on_gen(k, g),
                                           quadratic_ext.q_level_on_gen(k, g)), \
                    (k, g.label)
    report = verify_extension(gen, 5)
    assert report.passed, report.summary()


# -- the length-3 monomial example -------------------------------------------------

def test_monomial3_level0_values(monomial3_resolution, monomial3_positive, monomial3_ext):
    res, ext = monomial3_resolution, monomial3_ext
    symbols = res_symbols(res, monomial3_positive)
    expected = {
        "e2": "xi*e3",
        "e4": "xi*e1",
        "e24": "-xi*e13",
        "e34": "-xi*e13",
    }
    for label, text in expected.items():
        value = ext.q_level_on_gen(0, res.gen_by_label(label))
        assert value == expect(ext, symbols, text), (label, str(value))
    for label in ("e1", "e3", "e13", "e14", "e134"):
        assert ext.q_level_on_gen(0, res.gen_by_label(label)).is_zero(), label


def test_monomial3_tree_correction(monomial3_resolution, monomial3_positive, monomial3_ext):
    res, ext = monomial3_resolution, monomial3_ext
    symbols = res_symbols(res, monomial3_positive)
    node = parse_tree("V(e2,e4)", symbols)
    value = ext.chi_level(0, node)
    assert value == expect(ext, symbols, "-xi*e134"), str(value)
    # and that is the only nonzero tree correction
    nonzero = {k: v for k, v in entries(ext, "tree").items() if not v.is_zero()}
    assert list(nonzero) == [(0, node)]


def test_monomial3_star_product(monomial3_resolution, monomial3_positive, monomial3_ext):
    res, ext = monomial3_resolution, monomial3_ext
    symbols = res_symbols(res, monomial3_positive)
    e2 = AlgebraElement.from_tree(res.ring, leaf(res.gen_by_label("e2")))
    e4 = AlgebraElement.from_tree(res.ring, leaf(res.gen_by_label("e4")))
    assert higher_product(ext, e2, e4, 1) == expect(ext, symbols, "-xi*e134")


def test_monomial3_star_defect(monomial3_ext):
    report = verify_product_defect(monomial3_ext, 1)
    assert report.passed, report.summary()


def test_monomial3_square_zero(monomial3_ext):
    report = verify_extension(monomial3_ext, 5)
    assert report.passed, report.summary()


def test_star_symmetry(monomial3_resolution, monomial3_ext):
    # swapping the two leaves costs exactly the Koszul sign of the swap
    res = monomial3_resolution
    gens = [g for depth in range(1, 4) for g in res.generators(depth)]
    for a in gens:
        for b in gens:
            ea = AlgebraElement.from_tree(res.ring, leaf(a))
            eb = AlgebraElement.from_tree(res.ring, leaf(b))
            left = higher_product(monomial3_ext, ea, eb, 1)
            right = higher_product(monomial3_ext, eb, ea, 1)
            from ktforest.forest import parity_sign

            assert left == right.scale(parity_sign(a.module_degree * b.module_degree))


# -- rank-1 structural check ---------------------------------------------------------

def test_rank_one_koszul_function(ring_xy):
    from conftest import make_resolution

    res = make_resolution(ring_xy, [["e"]], {}, {"e": "x^2 + y^2"})
    pos, _ = make_positive(ring_xy, {1: ["xi"]},
                           q_vars={"x": "2*y*xi", "y": "-2*x*xi"},
                           q_gens={"xi": "0*xi"})
    assert pos.square_issues() == []
    report = check_ideal_preserved(pos, res.ideal_generators())
    assert report.passed
    hook = solve_hook(res, 6)
    ext = solve_residues_explicit(res, pos, hook, 6)
    # every correction vanishes: the total differential is the plain sum
    assert not entries(ext, "module") and not entries(ext, "tree")
    assert verify_extension(ext, 6).passed


def test_general_mode_nonzero_variable_corrections(ring_xy, quadratic_resolution):
    """A lift that squares to zero only modulo the ideal forces corrections
    on the ring variables; the explicit solver must refuse such input."""
    res = quadratic_resolution
    pos, symbols = make_positive(
        ring_xy, {1: ["z1", "z2"]},
        q_vars={"x": "y^2*z1", "y": "x^2*z2"},
        q_gens={"z1": "0*z1", "z2": "0*z2"})
    # squares land inside the ideal but not at zero
    assert pos.square_issues() != []
    assert pos.square_in_ideal(res.ideal_generators()) == []
    assert check_ideal_preserved(pos, res.ideal_generators()).passed
    hook = solve_hook(res, 5)
    with pytest.raises(SolveError):
        solve_residues_explicit(res, pos, hook, 5)
    ext = solve_general_extension(res, pos, hook, 5)
    x_index = ring_xy.var_index("x")
    correction = ext.tables.get((1, x_index))
    assert correction is not None and not correction.is_zero()
    # the defining equation: the correction's boundary cancels the square
    x_elem = AlgebraElement.scalar(Poly.variable(ring_xy, x_index))
    delta_of = ext.apply_level(-1, correction)
    square = ext.apply_level(0, ext.apply_level(0, x_elem))
    assert (delta_of + square).is_zero()
    # total square-zero on the variables and generators
    for j in range(ring_xy.num_vars):
        v = AlgebraElement.scalar(Poly.variable(ring_xy, j))
        assert ext.apply(ext.apply(v)).is_zero(), ring_xy.names[j]
    for depth in range(1, res.length + 1):
        for g in res.generators(depth):
            cell = AlgebraElement.from_tree(ring_xy, leaf(g))
            assert ext.apply(ext.apply(cell)).is_zero(), g.label


def test_solved_tables_hold_exact_coefficients():
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    hook = solve_hook(spec.resolution, 5)
    ext = solve_residues_explicit(spec.resolution, spec.positive, hook, 5)
    assert hook.table and entries(ext, "module")  # no tree entry on this spec
    polys = [p for value in hook.table.values() for p in value.terms.values()]
    polys += [p for value in ext.tables.values() for p in value.terms.values()]
    coefficients = [c for p in polys for c in p.terms.values()]
    assert all(type(c) in (int, Fraction) for c in coefficients)


# -- one record per table entry ------------------------------------------------------

def general_only_spec():
    """`quadratic.kt` with a derivation that squares to zero only modulo the
    ideal: general mode fills the variable and positive-generator entries."""
    from test_report_digests_general_only import GENERAL_ONLY, GIVEN

    with open(ktforest.example_path("quadratic.kt"), encoding="utf-8") as handle:
        return parse_spec("general_only.kt", handle.read().replace(GIVEN, GENERAL_ONLY))


def solved_extension(spec, mode, depth):
    """The extension `run` solves in a mode, without its verdicts."""
    res, pos = spec.resolution, spec.positive
    if mode == "koszul-compare":
        return koszul_mode(res, pos, koszul_hook(res), spec.koszul_tables)[0]
    solve = solve_general_extension if mode == "general" else solve_residues_explicit
    return solve(res, pos, solve_hook(res, depth), depth)


@pytest.mark.parametrize("name", BUNDLED_SPECS + ["general-only quadratic"])
def test_source_labels_are_unique_within_a_level(name):
    """`residue_records` sorts by (level, label): two sources with one label
    would be ordered by insertion.  Every mode at K = 1 to 6 gives one
    record per table entry, and no (level, label) twice."""
    if name == "general-only quadratic":
        spec, modes = general_only_spec(), ["general"]
    else:
        spec = parse_spec(ktforest.example_path(name))
        modes = ["explicit", "general"] + (["koszul-compare"] if name == "koszul_compare.kt"
                                           else [])
    kinds = set()
    for mode in modes:
        for depth in range(1, 7):
            ext = solved_extension(spec, mode, depth)
            records = ext.residue_records()
            assert len(records) == len(ext.tables), (mode, depth)
            assert len({(r["level"], r["source"]) for r in records}) == len(records), \
                (mode, depth)
            kinds |= {source_kind(source) for _k, source in ext.tables}
    if name == "general-only quadratic":
        assert {"variable", "positive"} <= kinds
