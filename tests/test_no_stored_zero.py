"""No `Poly` stores a zero coefficient, and no `ModuleElement` or
`AlgebraElement` a zero Poly.

`is_zero()` and `==` read the stored dicts as they are, so one stored zero
would make a zero element look nonzero.  The arithmetic results and
`collect` wrap their dicts without a second filter (`Combination._of`);
these tests check that what they wrap holds no zero: every image a full run
memoizes, and the results of the operations on inputs that cancel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktforest
from ktforest import cli
from ktforest.cli import check_mode, parse_spec, run
from ktforest.forest import (AlgebraElement, enumerate_tree_basis, make_monomial,
                             sum_elements)
from ktforest.poly import Poly
from ktforest.resolution import ModuleElement

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
K = 5


def assert_no_stored_zero(elem):
    """No Poly coefficient of a ModuleElement or AlgebraElement is zero."""
    for key, c in elem.terms.items():
        assert c.terms, f"zero Poly stored at {key}"
        assert all(v != 0 for v in c.terms.values()), f"zero coefficient in {c.terms}"


# ---------------------------------------------------------------------------
# every memoized image of a run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,mode", [("quadratic.kt", "explicit"),
                                       ("monomial_ideal.kt", "explicit"),
                                       ("koszul_function.kt", "general")])
def test_memoized_images_store_no_zero(monkeypatch, name, mode):
    solved = []
    for solver in ("solve_residues_explicit", "solve_general_extension"):
        def capture(*args, _solve=getattr(cli, solver), **kwargs):
            solved.append(_solve(*args, **kwargs))
            return solved[-1]
        monkeypatch.setattr(cli, solver, capture)
    spec = parse_spec(ktforest.example_path(name))
    spec.options["mode"] = mode
    spec.options["neg_degree_max"] = K
    check_mode(spec)
    assert run(spec).all_passed()
    (ext,) = solved
    images = list(ext.hook.differential()._memo.values())
    images += [value for by_range in ext._tree_memo.values() for value in by_range.values()]
    assert images and any(not value.is_zero() for value in images)
    for value in images:
        assert_no_stored_zero(value)


# ---------------------------------------------------------------------------
# the operations on inputs that cancel
# ---------------------------------------------------------------------------

SPEC = parse_spec(ktforest.example_path("quadratic.kt"))
RING = SPEC.resolution.ring
FACTORS = tuple([("p", g) for g in SPEC.positive.gens]
                + [("t", t) for d in range(1, 4) for t in enumerate_tree_basis(SPEC.resolution, d)])

polys = st.builds(
    lambda terms: Poly(RING, dict(terms)),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * RING.num_vars),
                       st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))),
             max_size=3))


def element_from(draws) -> AlgebraElement:
    out = AlgebraElement.zero(RING)
    for factors, coeff in draws:
        mono, sign = make_monomial(factors)
        if mono is not None:
            out = out + AlgebraElement(RING, {mono: coeff.scale(sign)})
    return out


elements = st.builds(element_from, st.lists(
    st.tuples(st.lists(st.sampled_from(FACTORS), max_size=3), polys), max_size=4))
scalars = st.sampled_from((0, 1, -2, Fraction(1, 3)))


@SETTINGS
@given(polys, polys)
def test_poly_results_store_no_zero(p, q):
    for r in (p + q, p - q, p + (-p), (p + q) - q, p * q, p.scale(0), p.scale(-2),
              p.partial(0), (p - p).scale(3)):
        assert all(v != 0 for v in r.terms.values())
    assert (p - p).is_zero() and (p + q) - q == p


@SETTINGS
@given(elements, elements, polys, scalars)
def test_algebra_results_store_no_zero(x, y, p, s):
    cancelled = [x - x, x + (-x), (x + y) - y, y - (x + y), x.scale(p - p), x.scale(0)]
    for r in cancelled + [x + y, -x, x.scale(p), x.scale(s), x.project_products(),
                          x.project_module(), x.project_scalar(),
                          (x - y).project_products(), sum_elements(RING, [x, y, -x]),
                          sum_elements(RING, [x, -x]), x * y]:
        assert_no_stored_zero(r)
    assert (x - x).is_zero() and x + (-x) == AlgebraElement.zero(RING)
    assert sum_elements(RING, [x, y, -x]) == y
    assert (x + y) - y == x


module_elements = st.builds(
    lambda terms: ModuleElement(RING, dict(terms)),
    st.lists(st.tuples(st.sampled_from(SPEC.resolution.module_generators()), polys),
             max_size=4))


@SETTINGS
@given(module_elements, module_elements, polys, scalars)
def test_module_results_store_no_zero(u, v, p, s):
    cancelled = [u - u, u + (-u), (u + v) - v, v - (u + v), u.scale(p - p), u.scale(0)]
    for r in cancelled + [u + v, u - v, -u, u.scale(p), u.scale(s)]:
        assert_no_stored_zero(r)
    assert (u - u).is_zero() and u + (-u) == ModuleElement.zero(RING)
    assert (u + v) - v == u
