"""The accumulator forms of the algebra kernel against its element forms.

`apply_derivation` (for delta through `TreeDifferential.apply`, for Q
through `ExtensionData.apply`), `root_join` (through `homotopy`) and
`project_to_resolution` add their terms, times a sign, into an accumulator
they are given and return it.  Collected, that must be the element they
return without one, negated for the sign -1, and the two signs must cancel
in one accumulator.  Checked on every basis monomial through K = 4, with a
unit, a one-term and a two-term coefficient, alone and times a positive
generator of degree 1.
"""

from __future__ import annotations

from functools import partial

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import solve_residues_explicit
from ktforest.forest import AlgebraElement, collect, enumerate_monomial_basis, sums_to_zero
from ktforest.kt import homotopy, project_to_resolution, solve_hook
from ktforest.poly import Poly

K = 4


@pytest.fixture(scope="module", params=["quadratic.kt", "taylor_shear.kt"])
def ext(request):
    spec = parse_spec(ktforest.example_path(request.param))
    hook = solve_hook(spec.resolution, K)
    return solve_residues_explicit(spec.resolution, spec.positive, hook, K)


def operators(ext):
    levels = range(-1, ext.level_max + 1)
    return {
        "delta": ext.hook.differential().apply,
        "Q": ext.apply,
        "homotopy": homotopy,
        "hook projection": partial(project_to_resolution, ext.hook.element, joined=None),
        "table projection": partial(project_to_resolution, partial(ext.chi_levels, levels),
                                    joined=None),
    }


def basis_elements(ext):
    ring = ext.res.ring
    x0 = Poly.variable(ring, 0)
    xi = AlgebraElement.from_positive(ring, ext.pos.gens[0])  # of degree 1
    for coeff in (Poly.one(ring), x0.scale(2), Poly.one(ring) + x0):
        for degree in range(1, K + 1):
            for mono in enumerate_monomial_basis(ext.res, degree):
                x = AlgebraElement(ring, {mono: coeff})
                yield x
                yield xi * x


@pytest.mark.parametrize("name", ["delta", "Q", "homotopy", "hook projection",
                                  "table projection"])
def test_accumulator_form_matches_element_form(ext, name):
    op = operators(ext)[name]
    ring = ext.res.ring
    checked = 0
    for x in basis_elements(ext):
        element = op(x)
        acc: dict = {}
        assert op(x, acc=acc) is acc
        assert collect(ring, acc) == element, str(x)
        assert collect(ring, op(x, acc={}, sign=-1)) == -element, str(x)
        both = op(x, acc={})
        op(x, acc=both, sign=-1)
        assert sums_to_zero(both), str(x)
        checked += bool(element)
    assert checked
