"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping exponent tuples (one entry per ring variable)
to nonzero coefficients: int, or Fraction once a division happens.  The
zero polynomial has an empty dict.  Monomials are ordered
graded-lexicographically: lower total degree first, and within a degree
x^2 before x*y before y^2.  All arithmetic is exact; there are no
floating-point coefficients anywhere in this package.  Besides rational
constants in the input, Fractions arise only at the end of the elimination
kernel `_reduce`, which is fraction-free: it scales each row to integers,
eliminates by integer cross-multiplication with exact gcd divisions, and
divides each pivot row by its pivot last.  An int and an equal Fraction
compare and hash the same, so dicts may mix them.  `Combination`, the base
of `Poly` and of the module and algebra elements of the higher layers, owns
the zero-free dict, the sum and difference, equality and the text form.

The module also provides the exact linear algebra of the higher layers.
`linear_system` is the one place where a map of free modules, given by
columns of Polys, becomes rational equations on chosen unknown monomials.
`solve_lift`, used by every lifting step: given columns and a target in a
free module over the ring, it finds polynomial coefficients c with
sum(columns[j] * c[j]) == target, through that system over the monomials
up to a degree cap.  `matrix_rank`, used on such systems by the exactness
oracle and the quotient dimensions.  Both split their system into the
connected components of its unknowns and equations, which for graded input
include the split by internal degree, and run one Gauss-Jordan kernel on
each component.  `solve_lift` builds only the components its target
reaches, since every other one has a zero right-hand side and the answer
zero, and `matrix_rank` skips every component with one equation or one
unknown, since its rank is 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub
from typing import Optional, Sequence

Exponent = tuple  # tuple[int, ...], one entry per variable


class RingError(ValueError):
    pass


def exact(value):
    """`value` as an exact coefficient: int when integral, else Fraction."""
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact coefficient {value!r}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class OneTermPolys(dict):
    """A ring's shared Polys value * x^exp by (exp, value, type of value),
    made on first lookup: a Poly is immutable, and an int prints apart
    from an equal Fraction."""

    def __init__(self, ring: "RingSpec"):
        super().__init__()
        self.ring = ring

    def __missing__(self, key):
        exp, value, _ = key
        p = self[key] = Poly._of(self.ring, {exp: value})
        return p


class RingSpec:
    """An ordered list of variable names fixing the polynomial ring."""

    __slots__ = ("names", "one_terms")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(names) < 1:
            raise RingError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise RingError(f"duplicate variable names: {names}")
        self.names = names
        self.one_terms = OneTermPolys(self)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"RingSpec({', '.join(self.names)})"


def monomial_key(exp: Exponent):
    """Graded-lex sort key: total degree, then lexicographic with x first."""
    return (sum(exp), tuple(-e for e in exp))


def monomial_str(exp: Exponent, ring: RingSpec) -> str:
    parts = []
    for name, e in zip(ring.names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Combination:
    """A finite linear combination: `terms` maps keys to nonzero coefficients.

    `Poly`, `resolution.ModuleElement` and `forest.AlgebraElement` are its
    three kinds: exponents to rationals, generators to Polys, monomials to
    Polys.  No stored coefficient is zero (a coefficient is zero when it is
    falsy), so the zero element holds the empty dict and `is_zero` and `==`
    read the dict as it is.  The constructor filters zeros; `_of`, for
    results that hold none by construction, does not.  A subclass supplies
    `_chunks()`, the (sign, body) pairs of its text form in order.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Optional[dict] = None):
        self.ring = ring
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, ring: RingSpec, terms: dict):
        """Wrap a dict known to hold no zero coefficient, without copying it."""
        obj = object.__new__(cls)
        obj.ring = ring
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, ring: RingSpec):
        return cls._of(ring, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "Combination"):
        if self.ring != other.ring:
            raise RingError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._of(self.ring, out)

    def __neg__(self):
        return self._of(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ring == other.ring
                and self.terms == other.terms)

    def __str__(self):
        chunks = self._chunks()
        if not chunks:
            return "0"
        first_sign, text = chunks[0]
        if first_sign == "-":
            text = "-" + text
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Poly(Combination):
    """Immutable exact polynomial over a RingSpec."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(ring: RingSpec, value) -> "Poly":
        c = exact(value)
        if c == 0:
            return Poly.zero(ring)
        return Poly._of(ring, {(0,) * ring.num_vars: c})

    @staticmethod
    def one(ring: RingSpec) -> "Poly":
        """The unit of the ring, one shared instance (`OneTermPolys`)."""
        return ring.one_terms[(0,) * ring.num_vars, 1, int]

    @staticmethod
    def variable(ring: RingSpec, index: int) -> "Poly":
        exp = [0] * ring.num_vars
        exp[index] = 1
        return Poly(ring, {tuple(exp): 1})

    @staticmethod
    def monomial(ring: RingSpec, exp: Exponent, coeff=1) -> "Poly":
        return Poly(ring, {tuple(exp): exact(coeff)})

    # -- queries -----------------------------------------------------------

    def coeff(self, exp: Exponent):
        return self.terms.get(tuple(exp), 0)

    def total_degree(self) -> Optional[int]:
        """Maximum total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly._of(self.ring, out)

    def scale(self, value) -> "Poly":
        c = exact(value)
        if c == 0:
            return Poly.zero(self.ring)
        return Poly._of(self.ring, {e: c * v for e, v in self.terms.items()})

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable `index`."""
        out: dict = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            d = list(e)
            d[index] -= 1
            out[tuple(d)] = c * e[index]
        return Poly._of(self.ring, out)

    # -- hashing and text form -----------------------------------------------

    def canonical(self) -> tuple:
        return tuple(sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0])))

    def __hash__(self):
        return hash((self.ring, self.canonical()))

    def _chunks(self) -> list:
        chunks = []
        for exp, coeff in sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]),
                                 reverse=True):
            mono = monomial_str(exp, self.ring)
            a = abs(coeff)
            body = str(a) if mono == "1" else mono if a == 1 else f"{a}*{mono}"
            chunks.append(("-" if coeff < 0 else "+", body))
        return chunks

    def times_chunk(self, factors: str) -> tuple:
        """The (sign, body) of this coefficient times `factors` in a signed sum.

        A coefficient of several terms is bracketed; a unit one is dropped
        before nonempty `factors`.
        """
        if len(self.terms) > 1:
            sign, body = "+", f"({self})"
        else:
            ((sign, body),) = self._chunks()
        if not factors:
            return sign, body
        return sign, factors if body == "1" else f"{body}*{factors}"

    @staticmethod
    def parse(text: str, ring: RingSpec) -> "Poly":
        return parse_poly(text, ring)


# ---------------------------------------------------------------------------
# text grammar: `3*x^2*y - 1/2*z`, `*` optional between factors
# ---------------------------------------------------------------------------

def tokenize(text: str) -> list:
    """Split into (kind, value) tokens; kinds: num, name, op."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if int(text[j + 1:k]) == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                tokens.append(("num", Fraction(int(text[i:j]), int(text[j + 1:k]))))
                i = k
            else:
                tokens.append(("num", int(text[i:j])))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^(),":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class TokenCursor:
    """The tokens of one text, read left to right; malformed input, whether
    the tokenizer or the grammar finds it, raises the caller's `error`."""

    def __init__(self, text: str, error=ValueError):
        self.text = text
        self.error = error
        try:
            self.tokens = tokenize(text)
        except ValueError as exc:
            raise error(str(exc)) from None
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", None)

    def take(self) -> tuple:
        tok = self.peek()
        self.pos += 1
        return tok

    def finish(self):
        """Reject any input left after a complete parse."""
        if self.pos < len(self.tokens):
            raise self.error(f"trailing input in {self.text!r}")


_SIGNS = (("op", "+"), ("op", "-"))


def parse_expression(text: str, factor, unit, error=ValueError):
    """Parse a sum of products of powers, `*` optional between factors.

    `factor(kind, value)` turns a number ("num", int or Fraction) or a name
    ("name", str) into an operand; operands support +, -, unary - and *,
    and multiply in the written order.  `unit` is the value of a zeroth
    power; a power takes at most two products per bit of its exponent.
    Malformed input raises `error`.  Only the first term of a sum, or of a
    parenthesized sum, may carry leading signs.
    """
    cursor = TokenCursor(text, error)
    peek, take = cursor.peek, cursor.take

    def parse_sum():
        negative = False
        while peek() in _SIGNS:
            negative ^= take() == ("op", "-")
        result = parse_term()
        if negative:
            result = -result
        while peek() in _SIGNS:
            _, op = take()
            term = parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term():
        result = parse_power()
        while True:
            kind, val = peek()
            if (kind, val) == ("op", "*"):
                take()
            elif kind not in ("num", "name") and (kind, val) != ("op", "("):
                return result
            result = result * parse_power()

    def parse_power():
        kind, val = take()
        if kind in ("num", "name"):
            base = factor(kind, val)
        elif (kind, val) == ("op", "("):
            base = parse_sum()
            if take() != ("op", ")"):
                raise error("expected closing parenthesis")
        else:
            raise error(f"unexpected token {val!r}")
        if peek() != ("op", "^"):
            return base
        take()
        kind, power = take()
        if kind != "num" or power.denominator != 1 or power < 0:
            raise error("exponent must be a nonnegative integer")
        # repeated squaring: powers of one operand need only associativity
        result, power = unit, int(power)
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    result = parse_sum()
    cursor.finish()
    return result


def parse_poly(text: str, ring: RingSpec) -> Poly:
    """A polynomial over `ring`; malformed input raises ValueError."""

    def factor(kind, value):
        if kind == "num":
            return Poly.const(ring, value)
        return Poly.variable(ring, ring.var_index(value))

    return parse_expression(text, factor, Poly.const(ring, 1))


# ---------------------------------------------------------------------------
# graded slices
# ---------------------------------------------------------------------------

def slice_basis(ring: RingSpec, poly_degree: int) -> list:
    """All exponent tuples of the given total degree, in graded-lex order."""
    if poly_degree < 0:
        raise ValueError("poly_degree must be nonnegative")
    return list(_slice(ring.num_vars, poly_degree))


@lru_cache(maxsize=None)
def _slice(num_vars: int, poly_degree: int) -> tuple:
    """The exponents of `slice_basis`, built once per (variables, degree).

    The first exponent falls from `poly_degree` to 0 and each is followed
    by the slice of the remaining variables, which is graded-lex order.
    """
    if num_vars == 1:
        return ((poly_degree,),)
    return tuple((e,) + rest for e in range(poly_degree, -1, -1)
                 for rest in _slice(num_vars - 1, poly_degree - e))


def slice_dim(num_vars: int, poly_degree: int) -> int:
    """Stars-and-bars count of monomials of total degree `poly_degree`."""
    from math import comb

    return comb(poly_degree + num_vars - 1, num_vars - 1)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _reduce(m: list, num_cols: int) -> dict:
    """Fraction-free Gauss-Jordan on dense exact rows, in place.

    Brings `m` to reduced row echelon form in its first `num_cols` columns
    (later columns, such as a right-hand side, are carried along) and
    returns {pivot column: its row}; the pivot rows come first.  Entries
    may be int or Fraction.  Each row is scaled to integers by the lcm of
    its denominators; a pivot clears its column from every other row by
    integer cross-multiplication, and the updated row is divided by the gcd
    of its entries.  Every row stays a nonzero multiple of the row rational
    elimination would hold, so the pivots (the first nonzero entry at or
    below the current row) are the same.  Each pivot row is divided by its
    pivot last, into exact values.  Rows past the pivots keep integer
    multiples in the later columns, of which only the zeros carry meaning.
    """
    for r, row in enumerate(m):
        den = lcm(*[v.denominator for v in row])
        m[r] = [v.numerator * (den // v.denominator) for v in row]
    n_rows = len(m)
    pivot_of_col: dict = {}
    pr = 0
    for pc in range(num_cols):
        if pr == n_rows:
            break
        for r in range(pr, n_rows):
            if m[r][pc]:
                break
        else:
            continue
        m[pr], m[r] = m[r], m[pr]
        prow = m[pr]
        p = prow[pc]
        for r in range(n_rows):
            a = m[r][pc]
            if a and r != pr:
                g = gcd(p, a)
                fp, fa = p // g, a // g
                row = [fp * x - fa * y for x, y in zip(m[r], prow)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivot_of_col[pc] = pr
        pr += 1
    for pc, r in pivot_of_col.items():
        p = m[r][pc]
        if p != 1:
            m[r] = [x // p if not x % p else Fraction(x, p) for x in m[r]]
    return pivot_of_col


def _blocks(equations: Sequence[dict]) -> list:
    """Split a sparse system into its connected components.

    `equations` are dicts {unknown: coefficient}, unknowns being sortable.
    Two unknowns are connected when an equation involves both.  Returns
    (equation indices, unknowns) per component, both increasing; equations
    without unknowns belong to no component.
    """
    parent: dict = {}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for eq in equations:
        it = iter(eq)
        first = next(it, None)
        if first is None:
            continue
        root = find(first) if first in parent else parent.setdefault(first, first)
        for i in it:
            if i not in parent:  # a new unknown joins the root directly
                parent[i] = root
                continue
            other = find(i)
            if other != root:
                parent[other] = root
    blocks: dict = {}
    for e, eq in enumerate(equations):
        if eq:
            blocks.setdefault(find(next(iter(eq))), ([], []))[0].append(e)
    for i in sorted(parent):
        blocks[find(i)][1].append(i)
    return list(blocks.values())


def _dense(equations: Sequence[dict], eqs: Sequence[int], unks: Sequence) -> list:
    """The rows `eqs` of a sparse system as dense rows over `unks`."""
    local = {i: k for k, i in enumerate(unks)}
    rows = [[0] * len(unks) for _ in eqs]
    for row, e in zip(rows, eqs):
        for i, c in equations[e].items():
            row[local[i]] = c
    return rows


def rref_solve(rows: list, rhs: list, num_unknowns: int):
    """Solve rows * x = rhs over the rationals, free variables set to zero.

    `rows` is a list of dense lists of ints or Fractions.  Returns the
    solution list or None when inconsistent.  Reduced row echelon form is
    unique, so the answer does not depend on the incoming row order.
    """
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_of_col = _reduce(m, num_unknowns)
    for r in range(len(pivot_of_col), len(m)):
        if m[r][num_unknowns] != 0:
            return None
    sol = [0] * num_unknowns
    for pc, r in pivot_of_col.items():
        sol[pc] = m[r][num_unknowns]
    return sol


def linear_system(columns: Sequence[Sequence[Poly]], unknowns: Sequence[tuple]) -> dict:
    """The rational equations of sum_j columns[j] * c[j] on given monomials.

    Each column is a vector of Polys.  `unknowns` are (column j, exponent m)
    pairs, the coefficient of x^m in c[j].  Returns one sparse equation per
    (row, result monomial) the products reach, as
    {(row, monomial): {index into `unknowns`: coefficient}}.
    """
    equations: dict = {}
    for i, (j, m) in enumerate(unknowns):
        for r, p in enumerate(columns[j]):
            for e, c in p.terms.items():  # distinct terms give distinct e + m
                equations.setdefault((r, tuple(map(add, e, m))), {})[i] = c
    return equations


def solve_lift(columns: Sequence[Sequence[Poly]], target: Sequence[Poly],
               poly_degree_cap: Optional[int] = None):
    """Find polynomial coefficients c with sum_j columns[j]*c[j] == target.

    Each column and the target are vectors of Polys over a common ring.
    Unknown coefficients are supported on all monomials up to the cap
    (default: the maximum total degree appearing in the target); for graded
    inputs the system decouples by degree, so the answer is automatically
    homogeneous of the forced degree.  The solution is the unique one with
    all free variables of the reduced echelon form set to zero, unknowns
    ordered graded-lexicographically by monomial and then by column index.
    Returns None when no solution exists within the cap.

    The rational system falls apart into the connected components of its
    unknowns and equations, and a component without a target term has the
    zero solution.  So only the components the target reaches are built: a
    walk from the target's terms alternates between equations and the
    unknowns that appear in them, and `linear_system` builds the equations
    of the unknowns it closes on.  Each component is eliminated on its own,
    its unknowns in their global order.  Within a component a pivot depends
    only on earlier columns of that component, so the answer is the one
    elimination of the whole system would give.
    """
    if not columns:
        return [] if all(t.is_zero() for t in target) else None
    ring = None
    for vec in list(columns) + [list(target)]:
        for p in vec:
            if ring is None:
                ring = p.ring
            elif p.ring is not ring and p.ring != ring:
                raise RingError("solve_lift entries over mixed rings")
    n_rows = len(target)
    for vec in columns:
        if len(vec) != n_rows:
            raise ValueError("column length does not match target length")
    if all(t.is_zero() for t in target):
        return [Poly.zero(ring) for _ in columns]
    target_max = max(t.total_degree() for t in target if not t.is_zero())
    if poly_degree_cap is None:
        poly_degree_cap = target_max

    # An unknown (column j, monomial m) exists when column j is nonzero,
    # deg m <= cap and deg m + low_j <= bound, low_j being the least total
    # degree of the column's nonzero entries.  A zero column never
    # contributes; its coefficient stays 0.
    bound = max(target_max, poly_degree_cap)
    terms_of_row = [[] for _ in range(n_rows)]  # (j, exponent, limit on deg m)
    terms_of_column = []  # (row, exponent) per column
    for j, vec in enumerate(columns):
        terms = [(r, e) for r, p in enumerate(vec) for e in p.terms]
        terms_of_column.append(terms)
        if terms:
            limit = min(poly_degree_cap, bound - min(p.total_degree() for p in vec if p))
            for r, e in terms:
                terms_of_row[r].append((j, e, limit))

    # The equations (row, monomial) and unknowns the target's terms reach.
    todo = [(r, mu) for r in range(n_rows) for mu in target[r].terms]
    seen = set(todo)
    reached = set()
    while todo:
        r, mu = todo.pop()
        for j, e, limit in terms_of_row[r]:
            m = tuple(map(sub, mu, e))
            if min(m) < 0 or sum(m) > limit or (j, m) in reached:
                continue
            reached.add((j, m))
            for r2, e2 in terms_of_column[j]:
                key = (r2, tuple(map(add, e2, m)))
                if key not in seen:
                    seen.add(key)
                    todo.append(key)

    unknowns = sorted(reached, key=lambda jm: (monomial_key(jm[1]), jm[0]))
    equations = linear_system(columns, unknowns)
    for r in range(n_rows):
        for mu in target[r].terms:
            if (r, mu) not in equations:
                return None  # a target term no unknown can reach

    # every component holds a target term, so none has a zero right-hand side
    eq_keys = sorted(equations, key=lambda k: (k[0], monomial_key(k[1])))
    eq_rows = [equations[k] for k in eq_keys]
    rhs = [target[r].terms.get(mu, 0) for r, mu in eq_keys]
    solution: dict = {}  # unknown index -> nonzero value
    for eqs, unks in _blocks(eq_rows):
        sol = rref_solve(_dense(eq_rows, eqs, unks), [rhs[e] for e in eqs], len(unks))
        if sol is None:
            return None
        solution.update((i, v) for i, v in zip(unks, sol) if v)
    out = [Poly.zero(ring) for _ in columns]
    for i in sorted(solution):
        j, m = unknowns[i]
        out[j] = out[j] + Poly.monomial(ring, m, solution[i])
    return out


def matrix_rank(rows: Sequence[dict]) -> int:
    """Rank of a matrix given by sparse rows {column: int or Fraction}.

    The sum of the ranks of the connected components of its rows and
    columns (joined by entries).  Entries are nonzero, as `linear_system`
    makes them, so a component with one row or one column has rank 1 and
    needs no elimination; an explicit zero entry is read as absent there.
    Every other component is found by its own elimination.
    """
    rank = 0
    for eqs, unks in _blocks(rows):
        if len(eqs) == 1:
            rank += any(rows[eqs[0]].values())
        elif len(unks) == 1:
            rank += any(rows[e][unks[0]] for e in eqs)
        else:
            rank += len(_reduce(_dense(rows, eqs, unks), len(unks)))
    return rank
