"""General mode's tree step against the solver it replaced.

Where Q^2 != 0 on O, general mode evaluates Q_k on a tree t by the step
every source gets, the preimage `_closed_preimage` of closed = -Q_k(delta
t) - sum_{m<k} Q_m Q_{k-1-m}(t), on demand and memoized; elsewhere it
reads the tree formula.  The former solver lifted every tree at every
level in order of reach (source degree plus level) through the
truncation, and read a table outside that window as missing.  It is kept
below as the reference: on every (level, tree) it solves, general Q must
give its value, and the finite tables must be its tables.  Explicit
and general Q must agree exactly on every basis monomial, and both modes
must solve the same tree tables.
"""

from __future__ import annotations

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import (ExtensionData, _closed_preimage, solve_general_extension,
                                solve_residues_explicit)
from ktforest.forest import (AlgebraElement, enumerate_monomial_basis, enumerate_tree_basis,
                             is_leaf, leaf, mono_label, sum_elements, tree_degree, tree_str)
from ktforest.kt import solve_hook
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId
from conftest import entries
from test_extension import make_positive

K = 5
SPECS = ["koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt", "quadratic.kt",
         "regular_sequence.kt", "taylor_shear.kt"]


class Unsolved(RuntimeError):
    """A tree table outside the reference solver's window."""


class ReachLoopData(ExtensionData):
    """General-mode tables with Q on trees stored per level, as the reach
    loop solved them; an entry outside its window is missing, not zero."""

    def __init__(self, res, pos, hook, neg_degree_max):
        super().__init__(res, pos, hook)
        self.by_step = True
        self.neg_degree_max = neg_degree_max
        self.tree_q = {}
        self.solved_trees = []  # every (level, tree) the loop solved
        self.solved_gens = set()  # every (level, module generator) it solved

    def _image(self, levels, source):
        if isinstance(source, GeneratorId) or is_leaf(source):
            return super()._image(levels, source)
        for k in levels:
            if (k, source) not in self.tree_q and k - tree_degree(source) > self.neg_degree_max:
                raise Unsolved(f"level {k} table not solved for {tree_str(source)}")
        return sum_elements(self.res.ring, (self.tree_q[k, source] for k in levels
                                            if (k, source) in self.tree_q))


def _sum_lower_level_squares(ext: ExtensionData, k: int, x: AlgebraElement) -> AlgebraElement:
    out = AlgebraElement.zero(ext.res.ring)
    for m in range(0, k):
        out = out + ext.apply_level(m, ext.apply_level(k - 1 - m, x))
    return out


def reach_loop_extension(res, pos, hook, neg_degree_max) -> ReachLoopData:
    """The former general solver: tables at level k and source degree i in
    increasing reach i + k through the truncation, trees lifted like
    generators."""
    ext = ReachLoopData(res, pos, hook, neg_degree_max)
    ring = res.ring
    level_cap = min(res.length, neg_degree_max)

    def preimage(closed):
        value = _closed_preimage(ext, closed)
        assert value is not None
        return value

    def closed_of(k, x):
        return -ext.apply_level(k, ext.apply_level(-1, x)) - _sum_lower_level_squares(ext, k, x)

    for reach in range(0, neg_degree_max + 1):
        for k in range(0, min(reach, level_cap) + 1):
            i = reach - k
            if i == 0 and k >= 1:
                for j in range(ring.num_vars):
                    x = AlgebraElement.scalar(Poly.variable(ring, j))
                    value = preimage(-_sum_lower_level_squares(ext, k, x))
                    if not value.is_zero():
                        ext.tables[(k, j)] = value
                for g in pos.gens:
                    x = AlgebraElement.from_positive(ring, g)
                    value = preimage(-_sum_lower_level_squares(ext, k, x))
                    if not value.is_zero():
                        ext.tables[(k, g)] = value
            elif 1 <= i <= res.length:
                for g in res.generators(i):
                    ext.solved_gens.add((k, g))
                    value = preimage(closed_of(k, AlgebraElement.from_tree(ring, leaf(g))))
                    if not value.is_zero():
                        ext.tables[(k, g)] = value
            if i >= 3:
                for node in enumerate_tree_basis(res, i):
                    if is_leaf(node):
                        continue
                    ext.solved_trees.append((k, node))
                    value = preimage(closed_of(k, AlgebraElement.from_tree(ring, node)))
                    if not value.is_zero():
                        ext.tree_q[(k, node)] = value
                        ext._tree_memo.pop(node, None)  # any image read before it was solved
            ext.level_max = max(ext.level_max, k)
    return ext


def ideal_only_quadratic():
    """`quadratic.kt` with a positive part that squares to zero only modulo
    the ideal, which general mode alone accepts."""
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    positive, _ = make_positive(spec.resolution.ring, {1: ["z1", "z2"]},
                                q_vars={"x": "y^2*z1", "y": "x^2*z2"},
                                q_gens={"z1": "0*z1", "z2": "0*z2"})
    return spec.resolution, positive


def inputs(name):
    if name == "ideal-only quadratic":
        res, positive = ideal_only_quadratic()
    else:
        spec = parse_spec(ktforest.example_path(name))
        res, positive = spec.resolution, spec.positive
    return res, positive, solve_hook(res, K)


@pytest.mark.parametrize("name", SPECS + ["ideal-only quadratic"])
def test_lazy_corrections_equal_the_reach_loop(name):
    res, positive, hook = inputs(name)
    reference = reach_loop_extension(res, positive, hook, K)
    lazy = solve_general_extension(res, positive, hook, K)
    assert entries(lazy, "variable") == entries(reference, "variable")
    assert entries(lazy, "positive") == entries(reference, "positive")
    zero = AlgebraElement.zero(res.ring)
    for key in reference.solved_gens:
        assert lazy.tables.get(key, zero) == reference.tables.get(key, zero), key
    # the lazy solver also solves the generators past the reach window
    for k, g in set(entries(lazy, "module")) - reference.solved_gens:
        assert k - g.module_degree > K
    for k, node in reference.solved_trees:
        assert lazy.q_level_on_tree(range(k, k + 1), node) \
            == reference.tree_q.get((k, node), zero), (k, tree_str(node))


def test_the_reference_solves_nonzero_tree_corrections():
    res, positive, hook = inputs("monomial_ideal.kt")
    reference = reach_loop_extension(res, positive, hook, K)
    assert len(reference.tree_q) > 10


@pytest.mark.parametrize("name", SPECS)
def test_explicit_and_general_q_agree_on_every_basis_monomial(name):
    res, positive, hook = inputs(name)
    explicit = solve_residues_explicit(res, positive, hook, K)
    general = solve_general_extension(res, positive, hook, K)
    assert entries(general, "tree") == entries(explicit, "tree")
    one = Poly.const(res.ring, 1)
    count = 0
    for degree in range(1, K + 1):
        for mono in enumerate_monomial_basis(res, degree):
            x = AlgebraElement(res.ring, {mono: one})
            assert general.apply(x) == explicit.apply(x), mono_label(mono)
            count += 1
    assert count

