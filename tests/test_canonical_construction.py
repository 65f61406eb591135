"""Monomials built canonical by construction, against `make_monomial`.

The root maps, `substitute_at_path`, the positives-plus-leaf monomials of
`lift_delta_preimage`, and the positive blocks of `two_leaf_product`, which
also extends the ingested Koszul tables, build their monomials directly: the
positives of a canonical monomial are in order, and the children of a
canonical tree are in tree_key order with no odd factor repeated.  Their
former bodies, which normalized every factor list through `make_monomial`
and summed with `a + b`, are kept below as the oracles, and so is the sign
formula that once extended the Koszul tables.  The one-factor-each path of
`_merge` is compared with the general merge.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ktforest
from ktforest.cli import parse_spec
from ktforest.extension import _group_by_positives, koszul_hook, koszul_mode, lift_delta_preimage
from ktforest.forest import (AlgebraElement, _gen_order, _merge, _tree_order,
                             canonicalize_node, collect, enumerate_tree_basis,
                             is_leaf, leaf,
                             make_monomial, mono_pos_degree, parity_sign,
                             root_join, root_split, substitute_at_path)
from ktforest.kt import SolveError, solve_hook, two_leaf_product
from ktforest.poly import Poly
from ktforest.resolution import ModuleElement, build_koszul_complex
from vertex_walk import delete_at_path, replace_at_path, vertices

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
K = 4
SPECS = ("quadratic.kt", "monomial_ideal.kt")
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


# ---------------------------------------------------------------------------
# data: bundled specs, their tree bases through K and their positives
# ---------------------------------------------------------------------------

class Data:
    def __init__(self, name):
        self.spec = parse_spec(ktforest.example_path(name))
        self.res = self.spec.resolution
        self.ring = self.res.ring
        self.gens = [g for d in range(1, self.res.length + 1) for g in self.res.generators(d)]
        trees = [t for d in range(1, K + 1) for t in enumerate_tree_basis(self.res, d)]
        self.positives = [("p", g) for g in self.spec.positive.gens]  # odd and even
        self.trees = [("t", t) for t in trees]
        self.joined = [("t", t) for t in trees if not is_leaf(t)]
        self.leaves = [("t", leaf(g)) for g in self.gens]


@lru_cache(maxsize=None)
def data(name) -> Data:
    return Data(name)


@lru_cache(maxsize=None)
def hook_of(name):
    return solve_hook(data(name).res, K)


def polys(ring):
    return st.builds(
        lambda terms: Poly(ring, dict(terms)),
        st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * ring.num_vars),
                           st.sampled_from(COEFFS)), min_size=1, max_size=2))


def summed(ring, terms) -> AlgebraElement:
    """The sum of (monomial or None, sign, Poly) terms, one `+` at a time."""
    out = AlgebraElement.zero(ring)
    for mono, sign, c in terms:
        if mono is not None:
            out = out + AlgebraElement(ring, {mono: c.scale(sign)})
    return out


def elements(d: Data, trees, min_trees, max_trees):
    """Sums of up to three terms: positives times min..max tree factors."""
    term = st.tuples(st.lists(st.sampled_from(d.positives), max_size=3),
                     st.lists(st.sampled_from(trees), min_size=min_trees, max_size=max_trees),
                     polys(d.ring))
    return st.lists(term, min_size=1, max_size=3).map(lambda terms: summed(
        d.ring, ((*make_monomial(pos + t), c) for pos, t, c in terms)))


# ---------------------------------------------------------------------------
# the former bodies
# ---------------------------------------------------------------------------

def former_root_join(elem):
    def terms():
        for (trees, pos), c in elem.terms.items():
            node, sign = canonicalize_node(("N", trees))
            if node is None:
                continue
            mono, s2 = make_monomial([("p", g) for g in pos] + [("t", node)])
            yield mono, sign * s2 * parity_sign(mono_pos_degree((trees, pos))), c
    return summed(elem.ring, terms())


def former_root_split(elem):
    def terms():
        for (trees, pos), c in elem.terms.items():
            mono, s2 = make_monomial(
                [("p", g) for g in pos] + [("t", child) for child in trees[0][1]])
            yield mono, s2 * parity_sign(mono_pos_degree((trees, pos))), c
    return summed(elem.ring, terms())


def former_substitute(ring, node, path, value, sign, weight):
    def terms():
        for (trees, pos), c in value.terms.items():
            factors = [("p", g) for g in pos]
            term_sign = sign * parity_sign(sum(g.module_degree for g in pos) * weight)
            if trees:
                raw = replace_at_path(node, path, trees[0])
            elif path:
                raw = delete_at_path(node, path)
                if raw is None:
                    continue
            else:
                raw = None
            if raw is not None:
                cnode, s = canonicalize_node(raw)
                if cnode is None:
                    continue
                factors.append(("t", cnode))
                term_sign *= s
            mono, s = make_monomial(factors)
            yield mono, term_sign * s, c
    return summed(ring, terms())


def former_lift_delta_preimage(res, target):
    ring = res.ring
    out = AlgebraElement.zero(ring)
    for pos, entry in _group_by_positives(target).items():
        sign = parity_sign(sum(g.module_degree for g in pos))
        module = ModuleElement(ring, entry["module"])
        scalar = entry["scalar"]
        if not module.is_zero() and not scalar.is_zero():
            raise SolveError("lift", "target", "mixed module and scalar components "
                             "in one bidegree")
        if not scalar.is_zero():
            lifted = res.lift(scalar.scale(sign), 1)
        elif not module.is_zero():
            depths = {-g.module_degree for g in module.terms}
            if len(depths) != 1:
                raise SolveError("lift", "target", "mixed homological degrees")
            lifted = res.lift(module.scale(sign), depths.pop() + 1)
        else:
            continue
        if lifted is None:
            return None
        for g, p in lifted.terms.items():
            mono, s = make_monomial([("p", u) for u in pos] + [("t", leaf(g))])
            if mono is not None:
                out = out + AlgebraElement(ring, {mono: p.scale(s)})
    return out


def wedge(kres, a, b):
    """The exterior product of two module elements, read from `wedge_gens`."""
    out = ModuleElement.zero(kres.ring)
    for g, p in a.terms.items():
        for h, q in b.terms.items():
            w = kres.wedge_gens(g, h)
            if w is not None:
                out = out + ModuleElement.of_gen(kres.ring, w[1], (p * q).scale(w[0]))
    return out


def former_koszul_extend(kres, table, g):
    """The hand-written sign formula that once extended a depth-1 table."""
    ring = kres.ring
    subset = kres.subset_of_gen[g]
    depth1 = {s: kres.gen_of_subset[(s,)] for s in subset}
    out = AlgebraElement.zero(ring)
    for idx, s in enumerate(subset):
        img = table.get(depth1[s])
        if img is None or img.is_zero():
            continue
        for (trees, pos), c in img.terms.items():
            h = trees[0][1]
            sign = parity_sign(idx) * parity_sign(sum(p.module_degree for p in pos) * idx)
            value = reduce(partial(wedge, kres),
                           [ModuleElement.of_gen(ring, h if i == idx else depth1[s2])
                            for i, s2 in enumerate(subset)])
            for gg, p in value.terms.items():
                mono, s2 = make_monomial([("p", u) for u in pos] + [("t", leaf(gg))])
                if mono is not None:
                    out = out + AlgebraElement(ring, {mono: (c * p).scale(sign * s2)})
    return out


def former_two_leaf_product(x, y, chi):
    out = AlgebraElement.zero(x.ring)
    for (tx, px), cx in x.terms.items():
        for (ty, py), cy in y.terms.items():
            gx, gy = tx[0][1], ty[0][1]
            cnode, sign = canonicalize_node(("N", (leaf(gx), leaf(gy))))
            if cnode is None:
                continue
            sign *= parity_sign(sum(g.module_degree for g in py) * gx.module_degree)
            value = chi(cnode)
            if value.is_zero():
                continue
            dressed, s2 = make_monomial([("p", g) for g in px] + [("p", g) for g in py])
            if dressed is None:
                continue
            coeff = (cx * cy).scale(sign * s2)
            out = out + AlgebraElement(x.ring, {dressed: coeff}) * value
    return out


def general_merge(xs, ys, order):
    """`_merge` without its path for one factor on each side."""
    info = [order(x) for x in xs]
    suffix = [0] * (len(xs) + 1)
    for i in range(len(xs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + info[i][1]
    out, parity, i = [], 0, 0
    for y in ys:
        ky, dy = order(y)
        while i < len(xs) and info[i][0] <= ky:
            if dy & 1 and info[i][0] == ky:
                return None, 0
            out.append(xs[i])
            i += 1
        if dy & 1 and suffix[i] & 1:
            parity ^= 1
        out.append(y)
    out.extend(xs[i:])
    return tuple(out), parity


# ---------------------------------------------------------------------------
# the root maps and the substitution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SPECS)
@SETTINGS
@given(draw=st.data())
def test_root_join_matches_former(name, draw):
    d = data(name)
    x = draw.draw(elements(d, d.trees, 2, 3))
    assert root_join(x) == former_root_join(x)


@pytest.mark.parametrize("name", SPECS)
@SETTINGS
@given(draw=st.data())
def test_root_split_matches_former(name, draw):
    d = data(name)
    x = draw.draw(elements(d, d.joined, 1, 1))
    assert root_split(x) == former_root_split(x)


@pytest.mark.parametrize("name", SPECS)
@SETTINGS
@given(draw=st.data())
def test_substitute_at_path_matches_former(name, draw):
    d = data(name)
    node = draw.draw(st.sampled_from([t for _, t in d.trees]))
    path = draw.draw(st.sampled_from([p for p, _, _ in vertices(node)]))
    value = draw.draw(elements(d, d.leaves, 0, 1))  # (module + scalar) x positives
    sign = draw.draw(st.sampled_from((1, -1)))
    weight = draw.draw(st.integers(-3, 3))
    acc: dict = {}
    substitute_at_path(acc, node, path, value, sign, weight)
    assert collect(d.ring, acc) == former_substitute(d.ring, node, path, value, sign, weight)


# ---------------------------------------------------------------------------
# the lift, the Koszul ingest and the two-leaf product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SPECS)
@SETTINGS
@given(draw=st.data())
def test_lift_delta_preimage_matches_former(name, draw):
    d = data(name)
    w = draw.draw(elements(d, d.leaves, 1, 1))
    target = hook_of(name).differential().apply(w)

    def outcome(lift):
        try:
            return lift(d.res, target)
        except SolveError as exc:
            return str(exc)

    assert outcome(lift_delta_preimage) == outcome(former_lift_delta_preimage)


KOSZUL_SEQUENCE = ("x^2", "y^2", "x*y", "x^3")


@lru_cache(maxsize=None)
def koszul_complex(n):
    """The Koszul complex on the first n polynomials of KOSZUL_SEQUENCE, the
    one of `koszul_compare.kt` at n = 2, and its exterior-product hook."""
    d = data("koszul_compare.kt")
    kres = d.res if n == 2 else build_koszul_complex(
        [Poly.parse(text, d.ring) for text in KOSZUL_SEQUENCE[:n]])
    return kres, koszul_hook(kres)


@SETTINGS
@given(draw=st.data())
def test_koszul_ingest_matches_former(draw):
    # on 2, 3 and 4 polynomials: generators through depth 4, each filled
    # through the hook product
    d = data("koszul_compare.kt")
    for n in (2, 3, 4):
        kres, hook = koszul_complex(n)
        gens = kres.module_generators()
        table = {g: draw.draw(elements(d, [("t", leaf(h)) for h in gens], 1, 1))
                 for g in kres.generators(1)}
        ext = koszul_mode(kres, d.spec.positive, hook, {0: table})[0]
        for g in gens:
            assert ext.q_level_on_gen(0, g) == former_koszul_extend(kres, table, g), (n, g)


@pytest.mark.parametrize("name", SPECS)
@SETTINGS
@given(draw=st.data())
def test_two_leaf_product_matches_former(name, draw):
    d = data(name)
    depth1 = [f for f in d.leaves if f[1][1].module_degree == -1]  # the hook is nonzero there
    x = draw.draw(elements(d, depth1, 1, 1))
    y = draw.draw(elements(d, depth1, 1, 1))
    chi = hook_of(name).element
    assert two_leaf_product(x, y, chi) == former_two_leaf_product(x, y, chi)


# ---------------------------------------------------------------------------
# the merge of one factor on each side
# ---------------------------------------------------------------------------

QUADRATIC = data("quadratic.kt")
ODD_LEAF = leaf(QUADRATIC.gens[0])  # degree -1
XI = QUADRATIC.spec.positive.gens[0]  # degree 1
ETA = QUADRATIC.spec.positive.gens[-1]  # degree 2


@SETTINGS
@given(st.sampled_from([g for _, g in QUADRATIC.positives]),
       st.sampled_from([g for _, g in QUADRATIC.positives]))
@example(XI, XI)  # equal odd keys: zero
@example(ETA, ETA)  # equal even keys: both kept, no sign
def test_merge_one_positive_each_matches_general(x, y):
    assert _merge((x,), (y,), _gen_order) == general_merge((x,), (y,), _gen_order)


@SETTINGS
@given(st.sampled_from([t for _, t in QUADRATIC.trees]),
       st.sampled_from([t for _, t in QUADRATIC.trees]))
@example(ODD_LEAF, ODD_LEAF)
def test_merge_one_tree_each_matches_general(x, y):
    assert _merge((x,), (y,), _tree_order) == general_merge((x,), (y,), _tree_order)


def test_merge_of_equal_odd_factors_is_zero():
    assert _merge((XI,), (XI,), _gen_order) == (None, 0)
    assert _merge((ODD_LEAF,), (ODD_LEAF,), _tree_order) == (None, 0)
    assert _merge((ETA,), (ETA,), _gen_order) == ((ETA, ETA), 0)
