"""The expression grammar at each entry point: polynomials, algebra elements,
written trees and hook tables.

Malformed input raises the entry point's own exception class: `ValueError`
for `parse_poly`, `ParseError` for the grammar of `ktforest.grammar`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ktforest
from ktforest.cli import parse_spec
from ktforest.forest import AlgebraElement
from ktforest.grammar import (ParseError, parse_element, parse_hook_table,
                              parse_module_element, parse_tree)
from ktforest.poly import Poly, RingSpec, parse_expression, parse_poly
from ktforest.resolution import ModuleElement

MALFORMED = {
    "unclosed parenthesis": "(x+y",
    "stray parenthesis": "x+y)",
    "negative exponent": "x^-1",
    "fractional exponent": "x^1/2",
    "bare caret": "x^",
    "unknown name": "w",
    "unknown character": "x$y",
    "empty": "",
}

MALFORMED_TREES = {
    "unclosed parenthesis": "V(pi1,pi2",
    "stray parenthesis": "V(pi1,pi2))",
    "exponent": "V(pi1,pi2)^2",
    "variable decoration": "V(x,pi2)",
    "unknown name": "V(pi1,w)",
    "unknown character": "V(pi1,$)",
    "one-child vertex": "V(pi1)",
    "nested one-child vertex": "V(pi1,V(pi2))",
    "empty": "",
}

# text -> the same polynomial written out term by term
VALID = {
    "2x^2y": "2*x^2*y",
    "--x": "x",
    "-(x+y)^2": "-x^2 - 2*x*y - y^2",
    "x^0": "1",
    "1/2 x - y": "1/2*x - y",
}


@pytest.fixture(scope="module")
def symbols():
    return parse_spec(ktforest.example_path("quadratic.kt")).symbols


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_poly_rejects_malformed_input(case):
    with pytest.raises(ValueError):
        parse_poly(MALFORMED[case], RingSpec(["x", "y"]))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_element_rejects_malformed_input(case, symbols):
    with pytest.raises(ParseError):
        parse_element(MALFORMED[case], symbols)


@pytest.mark.parametrize("case", sorted(MALFORMED_TREES))
def test_parse_tree_rejects_malformed_input(case, symbols):
    with pytest.raises(ParseError):
        parse_tree(MALFORMED_TREES[case], symbols)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_hook_table_rejects_malformed_value(case, symbols):
    with pytest.raises(ParseError):
        parse_hook_table([f"V(pi1,pi2) -> {MALFORMED[case]}*pi"], symbols)


@pytest.mark.parametrize("case", sorted(MALFORMED_TREES))
def test_parse_hook_table_rejects_malformed_tree(case, symbols):
    with pytest.raises(ParseError):
        parse_hook_table([f"{MALFORMED_TREES[case]} -> x*pi"], symbols)


@pytest.mark.parametrize("text", sorted(VALID))
def test_parse_poly_valid_forms(text):
    ring = RingSpec(["x", "y"])
    assert parse_poly(text, ring) == parse_poly(VALID[text], ring)


@pytest.mark.parametrize("text", sorted(VALID))
def test_parse_element_valid_forms(text, symbols):
    expected = AlgebraElement.scalar(parse_poly(VALID[text], symbols.ring))
    assert parse_element(text, symbols) == expected
    written = parse_element(f"({text})*pi1", symbols)
    assert written == parse_element(f"({VALID[text]})*pi1", symbols)


def test_parse_element_juxtaposes_generators(symbols):
    ring = symbols.ring
    expected = parse_element("-x^2*pi1 - 2*x*y*pi1 - y^2*pi1", symbols)
    assert parse_element("-(x+y)^2 pi1", symbols) == expected
    assert parse_element("2x^2y pi", symbols) == AlgebraElement.from_tree(
        ring, ("L", symbols.generators["pi"]), Poly.monomial(ring, (2, 1), 2))


def test_zero_denominator_is_malformed_input(symbols):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("x^2 + 1/0*y^2", RingSpec(["x", "y"]))
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element("1/0*x*pi", symbols)


class Counted:
    """A power of one symbol, held as its exponent, counting the products taken."""

    products = 0

    def __init__(self, exponent):
        self.exponent = exponent

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.exponent + other.exponent)


@pytest.mark.parametrize("power", [0, 1, 2, 7, 64, 1000, 99999999999])
def test_power_takes_two_products_per_exponent_bit(power):
    Counted.products = 0
    result = parse_expression(f"a^{power}", lambda kind, value: Counted(1), Counted(0))
    assert result.exponent == power
    assert Counted.products <= 2 * power.bit_length()


@pytest.mark.parametrize("base", ["x - 2*y", "1/2*x + y^2"])
def test_power_of_a_poly_is_the_repeated_product(base):
    ring = RingSpec(["x", "y"])
    p = parse_poly(base, ring)
    for power in range(7):
        assert parse_poly(f"({base})^{power}", ring) == reduce(mul, [p] * power, Poly.one(ring))


@pytest.mark.parametrize("base", ["x*xi1 + pi1", "xi1*xi2 + eta1 - y*pi1*pi2", "xi1 + pi"])
def test_power_of_an_element_is_the_repeated_product(base, symbols):
    x, unit = parse_element(base, symbols), parse_element("1", symbols)
    for power in range(6):
        assert parse_element(f"({base})^{power}", symbols) == reduce(mul, [x] * power, unit)


# ---------------------------------------------------------------------------
# a module element and its image on trivial trees print the same text
# ---------------------------------------------------------------------------

QUADRATIC = parse_spec(ktforest.example_path("quadratic.kt"))
RING = QUADRATIC.ring
coefficients = st.builds(
    lambda terms: Poly(RING, dict(terms)),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * RING.num_vars),
                       st.sampled_from((1, -1, 3, -2, Fraction(1, 2), Fraction(-3, 2)))),
             max_size=3))
module_elements = st.builds(
    lambda terms: ModuleElement(RING, dict(terms)),
    st.lists(st.tuples(st.sampled_from(QUADRATIC.resolution.module_generators()),
                       coefficients), max_size=4))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(module_elements)
@example(ModuleElement(RING, {QUADRATIC.symbols.generators["pi"]: Poly.parse("-x", RING),
                              QUADRATIC.symbols.generators["pib"]: Poly.parse("1/2*y", RING)}))
@example(ModuleElement(RING, {QUADRATIC.symbols.generators["pi1"]: Poly.parse("-x + y", RING),
                              QUADRATIC.symbols.generators["pi2"]: Poly.parse("-3/2", RING)}))
def test_a_module_element_prints_as_its_image_on_trivial_trees(u):
    """Hook values, products and every failure text print the algebra
    element on trivial trees where a module element was printed: the two
    texts agree, and each parses back to its element."""
    text = str(u)
    assert str(AlgebraElement.from_module_element(u)) == text
    assert parse_module_element(text, QUADRATIC.symbols) == u
    assert parse_element(text, QUADRATIC.symbols) == AlgebraElement.from_module_element(u)
