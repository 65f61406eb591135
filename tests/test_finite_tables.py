"""The one finite-table step that both extension solvers share.

Each level of both solvers solves the tables on module generators (and,
where Q^2 != 0 on O, on the ring variables and positive generators) by
`_closed_preimage` of the closed element -Q_k(delta x) - sum_{m<k} Q_m
Q_{k-1-m}(x).  The explicit solver used to have its own step: it lifted
the negated closed element with `lift_delta_preimage`, negated the lift,
and required the element to vanish where the target bidegree is zero.
That step is kept below as the reference for the explicit tables, with the
former square-zero assertion, which re-evaluated every closed element on
the module generators after each level; the step now compares delta of
each generator's value with the closed element it has just lifted.
"""

from __future__ import annotations

import pytest

import ktforest
from ktforest.cli import parse_spec
import ktforest.extension as extension
from ktforest.extension import (ExtensionData, _solve_level_on_trees, check_ideal_preserved,
                                lift_delta_preimage, solve_general_extension,
                                solve_residues_explicit, verify_extension)
from ktforest.forest import (AlgebraElement, collect, enumerate_tree_basis, is_leaf, leaf,
                             sums_to_zero)
from ktforest.kt import SolveError, solve_hook
from conftest import entries

SPECS = ["koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt", "quadratic.kt",
         "regular_sequence.kt", "taylor_shear.kt"]


def former_level_on_generators(ext: ExtensionData, k: int):
    """The explicit solver's former step on module generators."""
    res, ring = ext.res, ext.res.ring
    for depth in range(1, res.length + 1):
        for g in res.generators(depth):
            x = AlgebraElement.from_tree(ring, leaf(g))
            forced = ext.apply_level(k, ext.apply_level(-1, x))
            for m in range(0, k):
                forced = forced + ext.apply_level(m, ext.apply_level(k - 1 - m, x))
            target_vanishes = depth + k > res.length or not ext.pos.slice_nonempty(k + 1)
            if target_vanishes:
                if not forced.is_zero():
                    raise SolveError(f"residue level {k}", g.label,
                                     "forced-zero correction but the obstruction "
                                     f"is {forced}")
                continue
            lifted = lift_delta_preimage(res, forced)
            if lifted is None:
                raise SolveError(f"residue level {k}", g.label,
                                 "no preimage under the resolution differential")
            value = -lifted
            if not value.is_zero():
                ext.tables[(k, g)] = value


def former_assert_square_on_generators(ext: ExtensionData, k: int):
    """The solvers' former square-zero assertion after each level."""
    ring = ext.res.ring
    for depth in range(1, ext.res.length + 1):
        for g in ext.res.generators(depth):
            x = AlgebraElement.from_tree(ring, leaf(g))
            # Q^2 on x at level k: delta Q_k(x) less the closed element
            total = ext.apply_level(-1, ext.apply_level(k, x), {})
            for m in range(k + 1):
                ext.apply_level(m, ext.apply_level(k - 1 - m, x), total)
            if not sums_to_zero(total):
                raise SolveError(f"level {k} consistency", g.label,
                                 f"square residue {collect(ring, total)}")


def former_explicit_extension(res, pos, hook, neg_degree_max) -> ExtensionData:
    """`solve_residues_explicit` with the former step, without its gates."""
    ext = ExtensionData(res, pos, hook)
    for k in range(0, min(res.length - 1, neg_degree_max) + 1):
        former_level_on_generators(ext, k)
        _solve_level_on_trees(ext, k)
        ext.level_max = k
        former_assert_square_on_generators(ext, k)
    return ext


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("name", SPECS)
def test_explicit_tables_equal_the_former_step(name, k):
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    hook = solve_hook(res, k)
    ext = solve_residues_explicit(res, pos, hook, k)
    reference = former_explicit_extension(res, pos, hook, k)
    assert entries(ext, "module") == entries(reference, "module")
    assert entries(ext, "tree") == entries(reference, "tree")
    assert ext.level_max == reference.level_max
    assert not entries(ext, "variable") and not entries(ext, "positive")


@pytest.mark.parametrize("name", SPECS)
def test_general_mode_stores_no_positive_tables_when_the_input_squares_to_zero(name):
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    assert pos.square_issues() == []
    ext = solve_general_extension(res, pos, solve_hook(res, 6), 6)
    assert ext.level_max == min(res.length, 6)
    assert not entries(ext, "variable") and not entries(ext, "positive")


@pytest.mark.parametrize("name", SPECS)
def test_general_mode_solves_level_length_to_empty_tables(name):
    # on ideal-preserving input no generator has a module of depth > length
    # to land in, and the tree window 3..length - k is empty at k = length
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    assert check_ideal_preserved(pos, spec.ideal, spec.poly_cap).passed
    for k in (res.length, 6):
        ext = solve_general_extension(res, pos, solve_hook(res, k), k)
        assert ext.level_max == res.length
        assert not [key for key in ext.tables if key[0] == res.length]


@pytest.mark.parametrize("solve", [solve_residues_explicit, solve_general_extension])
def test_a_wrong_level_0_value_fails_the_level_0_square_assertion(monkeypatch, solve):
    """quadratic.kt has length 2, so level 0 has no tree window, and its last
    module generator pib is the last source the level-0 step solves; nothing
    else at level 0 reads its value.  Doubled, delta of it no longer gives
    back the closed element it was lifted from, which fails the level-0
    square-zero assertion on the generators, in both modes."""
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    res = spec.resolution
    gens = [g for depth in range(1, res.length + 1) for g in res.generators(depth)]
    assert gens[-1].label == "pib"
    hook = solve_hook(res, 6)
    closed_preimage = extension._closed_preimage
    values = []

    def doubled_last(ext, closed):
        values.append(closed_preimage(ext, closed))
        return values[-1].scale(2) if len(values) == len(gens) else values[-1]

    monkeypatch.setattr(extension, "_closed_preimage", doubled_last)
    with pytest.raises(SolveError) as err:
        solve(res, spec.positive, hook, 6)
    assert not values[len(gens) - 1].is_zero()
    assert (err.value.stage, err.value.item) == ("level 0 consistency", "pib")


@pytest.mark.parametrize("name", SPECS)
def test_general_mode_runs_the_tree_step_only_on_the_window(monkeypatch, name):
    """On ideal-preserving input that squares to zero on O, general mode
    evaluates trees by the tree formula: the tree step runs once on each
    window tree, a basis tree of degree 3..length - k at each level k with a
    nonempty positive slice of degree k + 1, and never on demand, neither
    in the solver nor in the verifier."""
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    hook = solve_hook(res, 6)
    solve_tree = extension._solve_tree
    calls = []

    def counted(ext, k, node):
        calls.append((k, node))
        return solve_tree(ext, k, node)

    monkeypatch.setattr(extension, "_solve_tree", counted)
    ext = solve_general_extension(res, pos, hook, 6)
    assert verify_extension(ext, 6).passed
    window = [(k, node) for k in range(ext.level_max + 1) if pos.slice_nonempty(k + 1)
              for degree in range(3, res.length - k + 1)
              for node in enumerate_tree_basis(res, degree) if not is_leaf(node)]
    assert calls == window
