"""The elimination in `poly` against dense references.

The fraction-free kernel `_reduce` and `rref_solve` are compared with
sympy's reduced row echelon form on small dense systems.  `solve_lift` is
compared with two oracles kept below: the single dense Gauss-Jordan over
all unknowns, and the whole-system solve that built every unknown up to
the cap and eliminated the blocks with a nonzero right-hand side.  Against
the latter, `rref_solve` must also receive the very same systems.
`matrix_rank`, on the sparse rows of drawn dense matrices, is compared
with sympy's rank; `quotient_dims` of drawn homogeneous ideals with the
standard monomials of a sympy Groebner basis, and `ideal_member` with
reduction by that basis.  The drawn lifting systems are sparse and fall
apart into blocks: by polynomial degree, and by rows of the target that no
column shares.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ktforest import poly
from ktforest.poly import (Poly, RingSpec, _blocks, _dense, _reduce, linear_system, matrix_rank,
                           monomial_key, rref_solve, slice_basis, solve_lift)
from ktforest.resolution import ideal_member, quotient_dims

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# the dense oracle: one elimination over every unknown and equation
# ---------------------------------------------------------------------------

def dense_rref_solve(rows, rhs, num_unknowns):
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    n_rows = len(m)
    pivot_of_col = {}
    pr = 0
    for pc in range(num_unknowns):
        pivot_row = None
        for r in range(pr, n_rows):
            if m[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = m[pr][pc]
        m[pr] = [v / inv for v in m[pr]]
        for r in range(n_rows):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivot_of_col[pc] = pr
        pr += 1
        if pr == n_rows:
            break
    for r in range(pr, n_rows):
        if m[r][num_unknowns] != 0:
            return None
    sol = [Fraction(0)] * num_unknowns
    for pc, r in pivot_of_col.items():
        sol[pc] = m[r][num_unknowns]
    return sol


def dense_solve_lift(columns, target, poly_degree_cap=None):
    if not columns:
        return [] if all(t.is_zero() for t in target) else None
    ring = (list(target) + [p for vec in columns for p in vec])[0].ring
    n_rows = len(target)
    if all(t.is_zero() for t in target):
        return [Poly.zero(ring) for _ in columns]
    if poly_degree_cap is None:
        poly_degree_cap = max(t.total_degree() for t in target if not t.is_zero())
    target_max = max(t.total_degree() for t in target if not t.is_zero())
    monomials = []
    for d in range(poly_degree_cap + 1):
        monomials.extend(slice_basis(ring, d))
    unknowns = []
    for m in monomials:
        for j, vec in enumerate(columns):
            degs = [p.total_degree() for p in vec if not p.is_zero()]
            if not degs:
                continue
            if sum(m) + min(degs) <= max(target_max, poly_degree_cap):
                unknowns.append((j, m))
    unknowns.sort(key=lambda jm: (monomial_key(jm[1]), jm[0]))
    equations = {}
    for i, (j, m) in enumerate(unknowns):
        for r in range(n_rows):
            for e, c in columns[j][r].terms.items():
                mu = tuple(a + b for a, b in zip(e, m))
                eq = equations.setdefault((r, mu), {})
                eq[i] = eq.get(i, Fraction(0)) + c
    for r in range(n_rows):
        for mu in target[r].terms:
            equations.setdefault((r, mu), {})
    eq_keys = sorted(equations, key=lambda k: (k[0], monomial_key(k[1])))
    rows, rhs = [], []
    for key in eq_keys:
        r, mu = key
        row = [Fraction(0)] * len(unknowns)
        for i, c in equations[key].items():
            row[i] = c
        rows.append(row)
        rhs.append(target[r].terms.get(mu, Fraction(0)))
    sol = dense_rref_solve(rows, rhs, len(unknowns))
    if sol is None:
        return None
    out = [Poly.zero(ring) for _ in columns]
    for i, (j, m) in enumerate(unknowns):
        if sol[i]:
            out[j] = out[j] + Poly.monomial(ring, m, sol[i])
    return out


def whole_system_solve_lift(columns, target, poly_degree_cap=None):
    """The whole-system solve: every unknown up to the cap is built, and the
    blocks with a zero right-hand side are skipped.  It calls the kernel as
    `poly.rref_solve`, so that a spy on the module sees its systems."""
    if not columns:
        return [] if all(t.is_zero() for t in target) else None
    ring = (list(target) + [p for vec in columns for p in vec])[0].ring
    n_rows = len(target)
    if all(t.is_zero() for t in target):
        return [Poly.zero(ring) for _ in columns]
    target_max = max(t.total_degree() for t in target if not t.is_zero())
    if poly_degree_cap is None:
        poly_degree_cap = target_max
    low = [min((p.total_degree() for p in vec if not p.is_zero()), default=None)
           for vec in columns]
    bound = max(target_max, poly_degree_cap)
    unknowns = []
    for d in range(poly_degree_cap + 1):
        for m in slice_basis(ring, d):
            for j, lo in enumerate(low):
                if lo is not None and d + lo <= bound:
                    unknowns.append((j, m))
    equations = linear_system(columns, unknowns)
    for r in range(n_rows):
        for mu in target[r].terms:
            if equations.setdefault((r, mu), {}) == {}:
                return None
    eq_keys = sorted(equations, key=lambda k: (k[0], monomial_key(k[1])))
    eq_rows = [equations[k] for k in eq_keys]
    rhs = [target[r].terms.get(mu, 0) for r, mu in eq_keys]
    solution = {}
    for eqs, unks in _blocks(eq_rows):
        if not any(rhs[e] for e in eqs):
            continue
        sol = poly.rref_solve(_dense(eq_rows, eqs, unks), [rhs[e] for e in eqs], len(unks))
        if sol is None:
            return None
        solution.update((i, v) for i, v in zip(unks, sol) if v)
    out = [Poly.zero(ring) for _ in columns]
    for i in sorted(solution):
        j, m = unknowns[i]
        out[j] = out[j] + Poly.monomial(ring, m, solution[i])
    return out


def solve_and_record(solver, *args):
    """The solver's answer and the systems (rows, rhs, unknowns) that it
    hands to `poly.rref_solve`, in order."""
    systems = []
    kernel = poly.rref_solve

    def spy(rows, rhs, num_unknowns):
        systems.append(([list(row) for row in rows], list(rhs), num_unknowns))
        return kernel(rows, rhs, num_unknowns)

    poly.rref_solve = spy
    try:
        return solver(*args), systems
    finally:
        poly.rref_solve = kernel


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero_fractions = small_fractions.filter(bool)


@st.composite
def dense_systems(draw):
    """Rows [A | b] of a small system, entries int or Fraction, often zero.

    Some rows are zero, repeat a row, or combine two rows, so many systems
    are rank deficient; such a row may get its right-hand side moved, which
    makes the system inconsistent.
    """
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.just(0), st.integers(-4, 4), small_fractions)
    rows = [[draw(entries) for _ in range(n_cols + 1)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero":
            row = [0] * (n_cols + 1)
        elif kind == "duplicate":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(small_fractions), draw(small_fractions)
            row = [a * u + b * v for u, v in zip(draw(st.sampled_from(rows)),
                                                  draw(st.sampled_from(rows)))]
        if draw(st.booleans()):
            row[-1] += draw(nonzero_fractions)
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, n_cols


def sympy_rref(rows):
    """sympy's reduced row echelon form, as Fraction rows, and its pivot columns."""
    matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                           for row in rows])
    reduced, pivots = matrix.rref()
    return ([[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)] for i in range(len(rows))],
            list(pivots))


@st.composite
def polys(draw, ring, max_degree, min_terms=0, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(min_terms, max_terms))):
        degree = draw(st.integers(0, max_degree))
        exp = draw(st.sampled_from(slice_basis(ring, degree)))
        terms[exp] = draw(nonzero_fractions)
    return Poly(ring, terms)


@st.composite
def lifting_problems(draw):
    """Columns over a few target rows, each column on a subset of the rows."""
    ring = RingSpec(["x", "y", "z"][:draw(st.integers(1, 3))])
    n_rows = draw(st.integers(1, 3))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.sets(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows))
        columns.append([draw(polys(ring, 2, min_terms=1, max_terms=2)) if r in support
                        else Poly.zero(ring) for r in range(n_rows)])
    kind = draw(st.sampled_from(["consistent", "consistent", "random", "zero", "unreachable"]))
    zero = Poly.zero(ring)
    if kind == "zero":
        target = [zero] * n_rows
    elif kind == "random":
        target = [draw(polys(ring, 3)) for _ in range(n_rows)]
    else:
        multipliers = [draw(polys(ring, 1, min_terms=1, max_terms=2)) for _ in columns]
        target = []
        for r in range(n_rows):
            acc = zero
            for col, c in zip(columns, multipliers):
                acc = acc + col[r] * c
            target.append(acc)
        if kind == "unreachable":
            # a term of degree 0 that only a constant entry of a column can reach
            r = draw(st.integers(0, n_rows - 1))
            target[r] = target[r] + Poly.const(ring, draw(nonzero_fractions))
    cap = draw(st.one_of(st.none(), st.integers(0, 3)))
    return columns, target, cap


@st.composite
def reachable_lifting_problems(draw):
    """Lifting systems of which the target reaches only some components.

    Entries are not homogeneous, so a column links several degrees; some
    columns are zero; the cap may lie above the target's degree; and in an
    "unreachable" problem the target has a term in a row that every column
    leaves zero, which no unknown reaches.
    """
    ring = RingSpec(["x", "y", "z"][:draw(st.integers(1, 3))])
    n_rows = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["consistent", "consistent", "perturbed", "unreachable"]))
    empty_row = draw(st.integers(0, n_rows - 1)) if kind == "unreachable" else None
    zero = Poly.zero(ring)
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        support = set() if draw(st.integers(0, 4)) == 0 else draw(
            st.sets(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows))
        columns.append([draw(polys(ring, 3, min_terms=1, max_terms=3))
                        if r in support and r != empty_row else zero for r in range(n_rows)])
    multipliers = [draw(polys(ring, 2, max_terms=2)) for _ in columns]
    target = []
    for r in range(n_rows):
        acc = zero
        for col, c in zip(columns, multipliers):
            acc = acc + col[r] * c
        target.append(acc)
    if kind != "consistent":
        r = empty_row if kind == "unreachable" else draw(st.integers(0, n_rows - 1))
        target[r] = target[r] + draw(polys(ring, 3, min_terms=1, max_terms=1))
    top = max((t.total_degree() for t in target if t), default=0)
    cap = draw(st.one_of(st.none(), st.integers(top, top + 2)))
    return columns, target, cap, kind


@st.composite
def block_matrices(draw):
    """Columns of a block-diagonal matrix with rows and columns shuffled."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n_r, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        blocks.append([[draw(st.one_of(st.just(Fraction(0)), small_fractions))
                        for _ in range(n_c)] for _ in range(n_r)])
    extra_rows, extra_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n_rows = sum(len(b) for b in blocks) + extra_rows
    n_cols = sum(len(b[0]) for b in blocks) + extra_cols
    dense = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                dense[r0 + i][c0 + j] = v
        r0, c0 = r0 + len(b), c0 + len(b[0])
    row_order = draw(st.permutations(range(n_rows)))
    col_order = draw(st.permutations(range(n_cols)))
    return [[dense[r][c] for r in row_order] for c in col_order]


def sparse_rows(columns):
    """The rows {column: nonzero value} of a matrix given by dense columns."""
    n_rows = len(columns[0]) if columns else 0
    return [{j: col[r] for j, col in enumerate(columns) if col[r]} for r in range(n_rows)]


@st.composite
def homogeneous_ideals(draw):
    """Up to 3 nonzero homogeneous generators of degree <= 3 in <= 3 variables."""
    ring = RingSpec(["x", "y", "z"][:draw(st.integers(1, 3))])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        basis = slice_basis(ring, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
        gens.append(Poly(ring, {e: draw(nonzero_fractions) for e in support}))
    return ring, gens, draw(st.integers(0, 6))


@st.composite
def membership_problems(draw):
    """A drawn homogeneous ideal, a polynomial and a cap >= its degree.

    The polynomial is a combination of the generators, such a combination
    plus one term, or a random polynomial.
    """
    ring, gens, _ = draw(homogeneous_ideals())
    kind = draw(st.sampled_from(["member", "perturbed", "random"]))
    if kind == "random":
        p = draw(polys(ring, 4, min_terms=1))
    else:
        p = Poly.zero(ring)
        for g in gens:
            p = p + g * draw(polys(ring, 2, max_terms=2))
        if kind == "perturbed":
            p = p + draw(polys(ring, 4, min_terms=1, max_terms=1))
    cap = (p.total_degree() or 0) + draw(st.integers(0, 2))
    return ring, gens, p, cap


def to_sympy(p, syms):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** k for s, k in zip(syms, e))) for e, c in p.terms.items()),
               sympy.Integer(0))


def standard_monomial_counts(ring, gens, cap):
    """Per degree through `cap`, the monomials outside the leading-term ideal
    of a grevlex Groebner basis of the ideal."""
    syms = sympy.symbols(ring.names)
    basis = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex")
    leading = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in basis.exprs]
    return [sum(1 for m in slice_basis(ring, k)
                if not any(all(a >= b for a, b in zip(m, lead)) for lead in leading))
            for k in range(cap + 1)]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def is_exact(value):
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


@SETTINGS
@given(dense_systems())
def test_reduce_matches_sympy_rref(system):
    rows, n_cols = system
    expected, pivots = sympy_rref(rows)
    m = [list(row) for row in rows]
    assert _reduce(m, n_cols + 1) == {pc: r for r, pc in enumerate(pivots)}
    assert m == expected
    assert all(is_exact(v) for row in m for v in row)
    # over the first columns only, the right-hand side carried along
    expected, pivots = sympy_rref([row[:-1] for row in rows])
    m = [list(row) for row in rows]
    assert _reduce(m, n_cols) == {pc: r for r, pc in enumerate(pivots)}
    assert [row[:-1] for row in m] == expected
    for r in range(len(pivots)):
        assert all(is_exact(v) for v in m[r])


@SETTINGS
@given(dense_systems())
def test_rref_solve_matches_sympy(system):
    rows, n_cols = system
    reduced, pivots = sympy_rref(rows)
    if n_cols in pivots:
        expected = None  # a pivot in the right-hand side: inconsistent
    else:
        expected = [0] * n_cols
        for r, pc in enumerate(pivots):
            expected[pc] = reduced[r][n_cols]
    got = rref_solve([row[:-1] for row in rows], [row[-1] for row in rows], n_cols)
    assert got == expected
    if got is not None:
        assert all(is_exact(v) for v in got)


@SETTINGS
@given(lifting_problems())
def test_solve_lift_matches_dense_elimination(problem):
    columns, target, cap = problem
    got = solve_lift(columns, target, cap)
    assert got == dense_solve_lift(columns, target, cap)
    if got is not None:
        for r, t in enumerate(target):
            acc = Poly.zero(t.ring)
            for col, c in zip(columns, got):
                acc = acc + col[r] * c
            assert acc == t


@SETTINGS
@given(reachable_lifting_problems())
def test_solve_lift_matches_the_whole_system_and_feeds_rref_solve_alike(problem):
    columns, target, cap, kind = problem
    got, got_systems = solve_and_record(solve_lift, columns, target, cap)
    want, want_systems = solve_and_record(whole_system_solve_lift, columns, target, cap)
    assert got == want
    assert got_systems == want_systems
    if kind == "unreachable":
        assert got is None
    if got is not None:
        for r, t in enumerate(target):
            acc = Poly.zero(t.ring)
            for col, c in zip(columns, got):
                acc = acc + col[r] * c
            assert acc == t


@SETTINGS
@given(block_matrices())
def test_matrix_rank_matches_sympy(columns):
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in col]
                             for col in columns]).rank()
    assert matrix_rank(sparse_rows(columns)) == expected


@SETTINGS
@given(homogeneous_ideals())
def test_quotient_dims_match_groebner_standard_monomials(problem):
    ring, gens, cap = problem
    assert quotient_dims(ring, gens, cap) == standard_monomial_counts(ring, gens, cap)


@SETTINGS
@given(membership_problems())
def test_ideal_member_matches_groebner_reduction(problem):
    ring, gens, p, cap = problem
    syms = sympy.symbols(ring.names)
    basis = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex")
    _, remainder = sympy.reduced(to_sympy(p, syms), list(basis.exprs), *syms, order="grevlex")
    assert ideal_member(ring, gens, p, cap) == (remainder == 0)


def test_unreachable_target_term_has_no_lift():
    ring = RingSpec(["x", "y"])
    x, one = Poly.variable(ring, 0), Poly.const(ring, 1)
    assert solve_lift([[x]], [x * x + one]) is None
    assert dense_solve_lift([[x]], [x * x + one]) is None


@pytest.mark.parametrize("rows, rank", [
    ([{0: 3, 1: Fraction(-1, 2), 2: 5}], 1),  # one row
    ([{4: 2}, {4: Fraction(1, 3)}, {4: -7}], 1),  # one column
    ([{0: 1}, {1: 2}, {2: 3, 3: 4}, {5: 1}, {5: 2}, {}], 4),  # trivial blocks only
    ([{0: 1, 1: 1}, {1: 2}, {2: Fraction(1, 2)}, {2: 3}], 3),  # beside a 2 x 2 block
])
def test_matrix_rank_of_one_row_and_one_column_blocks(rows, rank):
    assert matrix_rank(rows) == rank


def test_matrix_rank_never_counts_an_explicit_zero():
    # entries should be nonzero; one given as zero is read as absent
    assert matrix_rank([{0: 0}]) == 0
    assert matrix_rank([{0: 0, 1: Fraction(0)}]) == 0
    assert matrix_rank([{0: 0}, {0: 0}, {0: Fraction(0)}]) == 0
    assert matrix_rank([{0: 0}, {0: 5}]) == 1
    assert matrix_rank([{0: 0, 1: 0}, {1: 0}]) == 0
    assert matrix_rank([{0: 0, 1: 2}, {1: 0, 0: 0}]) == 1


def test_matrix_rank_of_zero_and_empty_columns():
    assert matrix_rank([]) == 0
    assert matrix_rank(sparse_rows([[Fraction(0)] * 3, [Fraction(0)] * 3])) == 0
    assert matrix_rank(sparse_rows([[Fraction(1), Fraction(0)], [Fraction(0)] * 2,
                                    [Fraction(2), Fraction(0)]])) == 1
