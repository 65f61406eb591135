"""Polynomial arithmetic, slices, and the exact lifting solver."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ktforest.forest import AlgebraElement, leaf
from ktforest.poly import (Poly, RingError, RingSpec, matrix_rank, monomial_key, parse_poly,
                           rref_solve, slice_basis, slice_dim, solve_lift)
from ktforest.resolution import GeneratorId, ModuleElement


@pytest.fixture
def ring():
    return RingSpec(["x", "y"])


def P(text, ring):
    return Poly.parse(text, ring)


def test_additive_inverse(ring):
    x = P("x", ring)
    assert (x + (-x)).is_zero()


def test_disjoint_supports(ring):
    assert P("x^2", ring) + P("x*y", ring) == P("x^2 + x*y", ring)


def test_hand_sum(ring):
    assert P("x^2 + x*y", ring) + P("x*y", ring) == P("x^2 + 2*x*y", ring)


def test_unit_product(ring):
    p = P("3*x^2*y - 1/2*y", ring)
    assert P("1", ring) * p == p


def test_variable_product(ring):
    assert P("x", ring) * P("y", ring) == P("x*y", ring)


def test_difference_of_squares(ring):
    assert P("x+y", ring) * P("x-y", ring) == P("x^2 - y^2", ring)


def test_ring_mismatch(ring):
    other = RingSpec(["x", "y", "z"])
    with pytest.raises(Exception):
        P("x", ring) + P("x", other)


def x_times(kind, ring, gen):
    """x times `gen` over `ring`, as a ModuleElement or an AlgebraElement."""
    if kind is ModuleElement:
        return ModuleElement.of_gen(ring, gen, P("x", ring))
    return AlgebraElement.from_tree(ring, leaf(gen), P("x", ring))


@pytest.mark.parametrize("kind", [ModuleElement, AlgebraElement])
def test_elements_over_different_rings_neither_add_nor_compare_equal(ring, kind):
    other = RingSpec(["x", "y", "z"])
    a = x_times(kind, ring, GeneratorId(-1, 0, "g"))
    b = x_times(kind, other, GeneratorId(-1, 1, "h"))
    with pytest.raises(RingError):
        a + b
    with pytest.raises(RingError):
        a - b
    assert kind.zero(ring) != kind.zero(other)
    assert kind.zero(ring) == kind.zero(RingSpec(["x", "y"]))


def test_parse_round_trip(ring):
    for text in ["3*x^2*y - 1/2*y", "x^2 + 2*x*y", "-x + 1", "0"]:
        p = P(text, ring)
        assert P(str(p), ring) == p


def test_parse_optional_star(ring):
    assert P("3x^2y", ring) == P("3*x^2*y", ring)


def test_derivative(ring):
    p = P("x^3*y + 2*x", ring)
    assert p.partial(0) == P("3*x^2*y + 2", ring)
    assert p.partial(1) == P("x^3", ring)


def test_slice_basis_degree0(ring):
    assert slice_basis(ring, 0) == [(0, 0)]


def test_slice_basis_degree2(ring):
    basis = slice_basis(ring, 2)
    assert basis == [(2, 0), (1, 1), (0, 2)]  # x^2, x*y, y^2
    assert len(basis) == slice_dim(2, 2) == 3


def test_slice_basis_returns_a_fresh_list(ring):
    first = slice_basis(ring, 2)
    first.append((9, 9))
    assert slice_basis(ring, 2) == [(2, 0), (1, 1), (0, 2)]


def test_slice_basis_three_vars():
    ring3 = RingSpec(["x", "y", "z"])
    assert slice_basis(ring3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_slice_counts_match_binomials():
    for d in range(1, 5):
        ring = RingSpec([f"x{i}" for i in range(d)])
        for k in range(11):
            assert len(slice_basis(ring, k)) == slice_dim(d, k)


def test_solve_lift_basic(ring):
    cols = [[P("x^2", ring)], [P("x*y", ring)]]
    sol = solve_lift(cols, [P("x^3", ring)])
    assert sol is not None
    assert cols[0][0] * sol[0] + cols[1][0] * sol[1] == P("x^3", ring)
    assert sol == [P("x", ring), P("0", ring)]


def test_solve_lift_zero_target(ring):
    sol = solve_lift([[P("x", ring)]], [P("0", ring)])
    assert sol == [P("0", ring)]


def test_solve_lift_no_solution(ring):
    for cap in (1, 3, 6):
        assert solve_lift([[P("x", ring)]], [P("y", ring)], cap) is None


def test_solve_lift_homogeneous_output(ring):
    # homogeneous data forces a homogeneous lift through slice decoupling
    cols = [[P("x^2", ring)], [P("y^2", ring)]]
    sol = solve_lift(cols, [P("x^2*y^2", ring)])
    assert sol is not None
    for c in sol:
        assert c.is_homogeneous()
    assert cols[0][0] * sol[0] + cols[1][0] * sol[1] == P("x^2*y^2", ring)


def test_solve_lift_vector_valued(ring):
    # two-row system: c1*(x, 0) + c2*(y, 1) = (x*y + y^2, y)
    cols = [[P("x", ring), P("0", ring)], [P("y", ring), P("1", ring)]]
    target = [P("x*y + y^2", ring), P("y", ring)]
    sol = solve_lift(cols, target)
    assert sol is not None
    for r in range(2):
        acc = Poly.zero(ring)
        for j in range(2):
            acc = acc + cols[j][r] * sol[j]
        assert acc == target[r]


def test_arithmetic_properties_randomized(ring):
    rng = random.Random(20260810)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Poly(ring, terms)

    for _ in range(300):
        a, b = random_poly(), random_poly()
        assert (a + b) - b == a
        assert a * b == b * a


def test_integral_coefficients_are_ints(ring):
    p = P("3*x - 1/2*y + 4/2", ring)
    assert type(p.coeff((1, 0))) is int
    assert type(p.coeff((0, 0))) is int and p.coeff((0, 0)) == 2
    assert p.coeff((0, 1)) == Fraction(-1, 2)
    assert type(Poly.const(ring, Fraction(6, 3)).coeff((0, 0))) is int
    assert type(Poly.monomial(ring, (1, 1), Fraction(-4, 2)).coeff((1, 1))) is int
    assert type(P("2*x", ring).scale(Fraction(3, 3)).coeff((1, 0))) is int
    q = (P("2*x + y", ring) * P("3*y", ring)) + P("x*y", ring)
    assert all(type(c) is int for c in q.terms.values())


def test_solve_lift_divides_exactly(ring):
    # 2 * c = 1 over integer columns: the answer is the Fraction 1/2
    [c] = solve_lift([[Poly.const(ring, 2)]], [Poly.const(ring, 1)])
    value = c.coeff((0, 0))
    assert type(value) is Fraction and value == Fraction(1, 2)
    solution = rref_solve([[3, 1], [1, 2]], [1, 0], 2)
    assert solution == [Fraction(2, 5), Fraction(-1, 5)]
    assert all(type(v) is Fraction for v in solution)


@pytest.mark.parametrize("rows, rank", [
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),
    ([[3, 1, 2], [1, 5, 7], [5, 11, 16]], 2),  # float division reads rank 3
    ([[10, 7, 3], [3, 9, 1], [13, 16, 4]], 2),  # floor division reads rank 3
    ([[2, 0], [0, 3]], 2),
])
def test_matrix_rank_on_int_rows(rows, rank):
    assert matrix_rank([{j: v for j, v in enumerate(row) if v} for row in rows]) == rank
