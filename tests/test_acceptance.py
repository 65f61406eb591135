"""Acceptance criteria: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its runtime; run with `pytest -s
tests/test_acceptance.py` to see them.  Tolerances are exact symbolic
equality everywhere; runtime budgets are asserted with time.monotonic.
"""

from __future__ import annotations

import time

import pytest

import ktforest
from ktforest.cli import main as cli_main, parse_spec, run as run_pipeline
from ktforest.extension import (ExtensionData, higher_product, koszul_hook, koszul_mode, solve_general_extension,
                                solve_residues_explicit, verify_extension,
                                verify_product_defect)
from ktforest.forest import AlgebraElement, enumerate_tree_basis, leaf
from ktforest.grammar import SymbolTable, parse_element, parse_hook_table, parse_tree
from ktforest.kt import (HookMap, TreeDifferential, solve_hook, verify_hook, verify_retract,
                         verify_square_zero)
from ktforest.poly import Poly
from ktforest.resolution import ModuleElement, quotient_dims

from conftest import boundary_equivalent, entries, make_resolution


def report_line(number, elapsed, budget, detail):
    print(f"ACCEPTANCE {number}: PASS in {elapsed:.2f}s (budget {budget}s) - {detail}")


def spec_path(name):
    return ktforest.example_path(name)


def symbols_for(spec):
    return spec.symbols


def test_acceptance_1_regular_sequence_hook_unique():
    t0 = time.monotonic()
    spec = parse_spec(spec_path("regular_sequence.kt"))
    res = spec.resolution
    hook = solve_hook(res, 6)
    target = parse_tree("V(pi1,pi2)", spec.symbols)
    assert hook.value(target) == ModuleElement.of_gen(res.ring, res.gen_by_label("pi"))
    assert list(hook.table) == [target], "the hook must vanish everywhere else"
    differential = TreeDifferential(res, hook)
    square = verify_square_zero(differential, 6)
    assert square.passed, square.summary()
    retract = verify_retract(res, hook, 6)
    assert retract.passed, retract.summary()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report_line(1, elapsed, 5, "unique hook value pi; square-zero and retract "
                               "identities hold through negative degree 6")


def test_acceptance_2_quadratic_ideal():
    t0 = time.monotonic()
    # the printed hook table passes the command-line verifier
    code = cli_main(["verify", spec_path("quadratic.kt"),
                     "--hook", spec_path("quadratic_hook.txt")])
    assert code == 0
    spec = parse_spec(spec_path("quadratic.kt"))
    res, pos, symbols = spec.resolution, spec.positive, spec.symbols
    # the solver's own hook passes too
    hook = solve_hook(res, 6)
    assert verify_hook(res, hook, 6).passed
    ext = solve_residues_explicit(res, pos, hook, 6)
    pi1 = res.gen_by_label("pi1")
    want0 = parse_element("2*xi1*pi1 + 2*xi2*pi2", symbols)
    want1 = parse_element("-2*eta1*pi", symbols)
    assert boundary_equivalent(res, ext.q_level_on_gen(0, pi1), want0)
    assert boundary_equivalent(res, ext.q_level_on_gen(1, pi1), want1)
    # the full printed table, with the solver's value for the flagged entry
    worked = ExtensionData(res, pos, hook)
    printed = {
        (0, "pi1"): "2*xi1*pi1 + 2*xi2*pi2",
        (0, "pi3"): "2*xi3*pi2 + 2*xi4*pi3",
        (0, "pi"): "2*xi1*pi + xi2*pib + xi4*pi",
        (0, "pib"): "xi1*pib + xi3*pi + 2*xi4*pib",
        (1, "pi1"): "-2*eta1*pi",
        (1, "pi2"): "-eta1*pib - eta2*pi",
        (1, "pi3"): "-2*eta2*pib",
    }
    for (k, label), text in printed.items():
        worked.tables[(k, res.gen_by_label(label))] = parse_element(text, symbols)
    worked.tables[(0, res.gen_by_label("pi2"))] = ext.q_level_on_gen(
        0, res.gen_by_label("pi2"))
    worked.level_max = 1
    verbatim = verify_extension(worked, 6)
    assert verbatim.passed, verbatim.summary()
    square = verify_extension(ext, 6)
    assert square.passed, square.summary()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report_line(2, elapsed, 30, "printed and solver hooks verify; level tables "
                                "reproduced; square-zero through negative degree 6")


def test_acceptance_3_monomial_ideal_length3():
    t0 = time.monotonic()
    spec = parse_spec(spec_path("monomial_ideal.kt"))
    res, pos, symbols = spec.resolution, spec.positive, spec.symbols
    with open(spec_path("monomial_ideal_hook.txt"), "r", encoding="utf-8") as handle:
        table = parse_hook_table(handle.read().splitlines(), symbols)
    hook = HookMap(res, table)
    hook_check = verify_hook(res, hook, 5)
    assert hook_check.passed, hook_check.summary()
    ext = solve_residues_explicit(res, pos, hook, 5)
    expected0 = {"e2": "xi*e3", "e4": "xi*e1", "e24": "-xi*e13", "e34": "-xi*e13"}
    for label, text in expected0.items():
        assert ext.q_level_on_gen(0, res.gen_by_label(label)) == parse_element(
            text, symbols), label
    e2 = ModuleElement.of_gen(res.ring, res.gen_by_label("e2"))
    e4 = ModuleElement.of_gen(res.ring, res.gen_by_label("e4"))
    assert higher_product(ext, e2, e4, 1) == parse_element("-xi*e134", symbols)
    defect = verify_product_defect(ext, 1)
    assert defect.passed, defect.summary()
    square = verify_extension(ext, 5)
    assert square.passed, square.summary()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report_line(3, elapsed, 60, "printed hook and level tables verify; the "
                                "level-1 product and its defect identity hold; "
                                "square-zero through negative degree 5")


def test_acceptance_4_koszul_comparison():
    t0 = time.monotonic()
    spec = parse_spec(spec_path("koszul_compare.kt"))
    hook = koszul_hook(spec.resolution, 6)
    check = verify_hook(spec.resolution, hook, 6)
    assert check.passed, check.summary()
    ext, comparison = koszul_mode(spec.resolution, spec.positive, hook, spec.koszul_tables)
    assert comparison.passed, comparison.summary()
    assert not entries(ext, "tree"), "corrections of nonnegative level must vanish"
    for level, table in spec.koszul_tables.items():
        for gen, value in table.items():
            assert ext.q_level_on_gen(level, gen) == value
    square = verify_extension(ext, 6)
    assert square.passed, square.summary()
    elapsed = time.monotonic() - t0
    report_line(4, elapsed, 60, "exterior-product hook, vanishing corrections, "
                                "restriction equals the ingested tables")


def test_acceptance_5_homology_oracle(ring_xy):
    t0 = time.monotonic()
    dims = quotient_dims(ring_xy, [Poly.parse(t, ring_xy)
                                   for t in ("x^2", "x*y", "y^2")], 6)
    assert dims == [1, 2, 0, 0, 0, 0, 0]
    for name in ("quadratic.kt", "regular_sequence.kt", "monomial_ideal.kt",
                 "koszul_function.kt"):
        spec = parse_spec(spec_path(name))
        report = spec.resolution.check_exactness(6)
        assert report.graded and report.exact, name
        for (deg, k), (_ker, _im, h) in report.dims.items():
            assert h == 0, (name, deg, k)
    broken = make_resolution(
        ring_xy,
        layers=[["pi1", "pi2"], ["pi"]],
        diff_lines={"pi": {"pi2": "x", "pi1": "-x"}},
        augment_lines={"pi1": "x", "pi2": "x"},
    )
    assert broken.check_complex().passed
    assert not broken.check_exactness(4).exact
    elapsed = time.monotonic() - t0
    report_line(5, elapsed, 60, "quotient dims [1,2,0,...]; all bundled "
                                "resolutions exact through polynomial degree 6; "
                                "a non-exact differential is detected")


def test_acceptance_6_property_suites(quadratic_resolution):
    t0 = time.monotonic()
    import test_properties as props

    hook = solve_hook(quadratic_resolution, 6)
    pool = []
    for d in range(1, 6):
        pool.extend(enumerate_tree_basis(quadratic_resolution, d))
    props.test_koszul_sign_coherence(quadratic_resolution, pool)
    props.test_root_join_split_inverse(quadratic_resolution, pool)
    props.test_tree_differential_leibniz(quadratic_resolution, hook, pool)
    props.test_hook_product_compatible_with_differential(quadratic_resolution, hook)
    props.test_evaluation_determinism(quadratic_resolution, hook, pool)
    elapsed = time.monotonic() - t0
    report_line(6, elapsed, 60, f"{props.CASES} randomized cases per suite: sign "
                                "coherence, join/split, Leibniz, hook-product "
                                "compatibility, determinism")


def test_acceptance_7_general_mode_regression():
    t0 = time.monotonic()
    spec = parse_spec(spec_path("quadratic.kt"))
    res, pos = spec.resolution, spec.positive
    hook = solve_hook(res, 5)
    explicit = solve_residues_explicit(res, pos, hook, 5)
    general = solve_general_extension(res, pos, hook, 5)
    assert not entries(general, "variable"), "variable corrections must be viable at zero"
    assert not entries(general, "positive")
    for depth in range(1, res.length + 1):
        for g in res.generators(depth):
            for k in range(0, max(explicit.level_max, general.level_max) + 1):
                assert boundary_equivalent(res, general.q_level_on_gen(k, g),
                                           explicit.q_level_on_gen(k, g)), (k, g.label)
    elapsed = time.monotonic() - t0
    report_line(7, elapsed, 60, "general mode finds vanishing variable "
                                "corrections and generator images agreeing with "
                                "the explicit mode up to verified boundaries")


def test_acceptance_8_scale_rank441():
    t0 = time.monotonic()
    spec = parse_spec(spec_path("monomial_ideal.kt"))
    res = spec.resolution
    hook = solve_hook(res, 7)
    differential = TreeDifferential(res, hook)
    count = 0
    for degree in range(1, 8):
        for node in enumerate_tree_basis(res, degree):
            differential.on_tree(node)
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report_line(8, elapsed, 60, f"enumerated and differentiated {count} basis "
                                "trees through negative degree 7")
