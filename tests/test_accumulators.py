"""The accumulator forms of the algebra kernel against its element forms.

`apply_derivation`, for delta through `TreeDifferential.apply` and for Q
through `ExtensionData.apply`, adds its terms into an accumulator it is
given and returns it.  Collected, that must be the element it returns
without one.  The forms that also take a sign, delta's and Q's level
pieces (`ExtensionData.apply_level`), must give the negated element for
the sign -1, and the two signs must cancel in one accumulator; the level
pieces summed into one accumulator must give Q.  Checked on every basis
monomial through K = 4, with a unit, a one-term and a two-term
coefficient, alone and times a positive generator of degree 1.
"""

from __future__ import annotations

from functools import partial

import pytest

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import solve_residues_explicit
from ktforest.forest import AlgebraElement, collect, enumerate_monomial_basis, sums_to_zero
from ktforest.kt import solve_hook
from ktforest.poly import Poly

K = 4


@pytest.fixture(scope="module", params=["quadratic.kt", "taylor_shear.kt"])
def ext(request):
    spec = parse_spec(ktforest.example_path(request.param))
    hook = solve_hook(spec.resolution, K)
    return solve_residues_explicit(spec.resolution, spec.positive, hook, K)


def operators(ext):
    """Each operator with its pieces that take a sign, which sum to it."""
    delta = ext.hook.differential().apply
    return {
        "delta": (delta, [delta]),
        "Q": (ext.apply, [partial(ext.apply_level, k) for k in range(-1, ext.level_max + 1)]),
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


@pytest.mark.parametrize("name", ["delta", "Q"])
def test_accumulator_form_matches_element_form(ext, name):
    op, pieces = operators(ext)[name]
    ring = ext.res.ring
    checked = 0
    for x in basis_elements(ext):
        element = op(x)
        acc: dict = {}
        assert op(x, acc=acc) is acc
        assert collect(ring, acc) == element, str(x)
        summed: dict = {}
        for piece in pieces:
            part = piece(x)
            assert collect(ring, piece(x, acc={}, sign=-1)) == -part, str(x)
            both = piece(x, acc={})
            piece(x, acc=both, sign=-1)
            assert sums_to_zero(both), str(x)
            piece(x, acc=summed)
        assert collect(ring, summed) == element, str(x)
        checked += bool(element)
    assert checked
