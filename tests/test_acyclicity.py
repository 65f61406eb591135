"""The negative part of the tree algebra resolves O/I, slice by slice.

Every bundled spec has internal weights, so each slice (negative degree k,
internal weight w) is a finite vector space over the rationals: its unknowns
are the pairs (basis monomial m of degree k, x-monomial u) with
weight(m) + deg u = w, a tree weighing the sum of its leaves' weights.  The
columns of δ come from `TreeDifferential.apply` on the basis monomials, and
each slice is ranked by the engine's `linear_system` and `matrix_rank`
(checked against sympy in `test_elimination.py`); the check reads neither
the homotopy nor the projection.  H_0 must be `quotient_dims` and H_k must
vanish for 1 <= k < K, at every weight through the largest basis weight + 2.
"""

from __future__ import annotations

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.forest import AlgebraElement, enumerate_monomial_basis, is_leaf
from ktforest.kt import solve_hook
from ktforest.poly import Poly, linear_system, matrix_rank, slice_basis, slice_dim
from ktforest.resolution import quotient_dims

# at K = 4 every slice passes with the sign of a vertex contraction flipped
# (in `forest.substitute_at_path`); from K = 5 on, three specs fail
K = 5
SPECS = ("koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt", "quadratic.kt",
         "regular_sequence.kt", "taylor_shear.kt")


def tree_weight(weights: dict, tree) -> int:
    if is_leaf(tree):
        return weights[tree[1]]
    return sum(tree_weight(weights, child) for child in tree[1])


@pytest.mark.parametrize("name", SPECS)
def test_the_negative_part_is_acyclic(name):
    spec = parse_spec(ktforest.example_path(name))
    res = spec.resolution
    ring, weights = res.ring, res.internal_weights()
    differential = solve_hook(res, K).differential()
    basis = [[((), ())]] + [list(enumerate_monomial_basis(res, k)) for k in range(1, K + 1)]
    weight = {m: sum(tree_weight(weights, t) for t in m[0]) for monos in basis for m in monos}
    top = max(weight.values()) + 2
    dims = {}  # (k, w) -> dimension of the slice
    ranks = {}  # (k, w) -> rank of δ from degree k on the slice
    for k in range(1, K + 1):
        rows = {n: r for r, n in enumerate(basis[k - 1])}
        columns = []
        for m in basis[k]:
            column = [Poly.zero(ring)] * len(rows)
            image = differential.apply(AlgebraElement(ring, {m: Poly.one(ring)}))
            for n, p in image.terms.items():
                assert all(weight[n] + sum(e) == weight[m] for e in p.terms), "not homogeneous"
                column[rows[n]] = p
            columns.append(column)
        for w in range(top + 1):
            unknowns = [(j, u) for j, m in enumerate(basis[k]) if weight[m] <= w
                        for u in slice_basis(ring, w - weight[m])]
            dims[k, w] = len(unknowns)
            ranks[k, w] = matrix_rank(list(linear_system(columns, unknowns).values()))
    h0 = [slice_dim(ring.num_vars, w) - ranks[1, w] for w in range(top + 1)]
    assert h0 == quotient_dims(ring, spec.ideal, top)
    nonzero = {(k, w): dims[k, w] - ranks[k, w] - ranks[k + 1, w]
               for k in range(1, K) for w in range(top + 1)}
    assert {kw: h for kw, h in nonzero.items() if h} == {}
