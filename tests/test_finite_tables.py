"""The one finite-table step that both extension solvers share.

Each level of both solvers solves the tables on module generators (and in
general mode on the ring variables and positive generators) by
`_closed_preimage` of the closed element -Q_k(delta x) - sum_{m<k} Q_m
Q_{k-1-m}(x).  The explicit solver used to have its own step: it lifted
the negated closed element with `lift_delta_preimage`, negated the lift,
and required the element to vanish where the target bidegree is zero.
That step is kept below as the reference for the explicit tables.
"""

from __future__ import annotations

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import (ExtensionData, _assert_square_on_generators,
                                _solve_level_on_trees, lift_delta_preimage,
                                solve_general_extension, solve_residues_explicit)
from ktforest.forest import AlgebraElement, leaf
from ktforest.kt import SolveError, solve_hook

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
                ext.gen_q[(k, g)] = value


def former_explicit_extension(res, pos, hook, neg_degree_max) -> ExtensionData:
    """`solve_residues_explicit` with the former step, without its gates."""
    ext = ExtensionData(res, pos, hook, mode="explicit")
    for k in range(0, min(res.length - 1, neg_degree_max) + 1):
        former_level_on_generators(ext, k)
        _solve_level_on_trees(ext, k)
        ext.level_max = k
        _assert_square_on_generators(ext, k)
    return ext


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("name", SPECS)
def test_explicit_tables_equal_the_former_step(name, k):
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    hook = solve_hook(res, k)
    ext = solve_residues_explicit(res, pos, hook, k)
    reference = former_explicit_extension(res, pos, hook, k)
    assert ext.gen_q == reference.gen_q
    assert ext.chi == reference.chi
    assert ext.level_max == reference.level_max
    assert not ext.var_q and not ext.vgen_q


@pytest.mark.parametrize("name", SPECS)
def test_general_mode_stores_no_positive_tables_when_the_input_squares_to_zero(name):
    spec = parse_spec(ktforest.example_path(name))
    res, pos = spec.resolution, spec.positive
    assert pos.square_issues() == []
    ext = solve_general_extension(res, pos, solve_hook(res, 6), 6)
    assert ext.level_max == min(res.length, 6)
    assert not ext.var_q and not ext.vgen_q
