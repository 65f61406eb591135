"""Decorated rooted trees and the graded symmetric algebra they generate.

Trees are interned tuples: a leaf is ('L', gen) and an inner node is
('N', (child, ...)), each built by `leaf` or `node`, which return the one
`Node` object of that structure.  So a tree hashes by identity, and every
dict and cache lookup of one is a pointer hash instead of a walk down to
its leaves.  The trivial tree is a bare leaf.  Admissible shapes
have at least two children at the root and at every inner vertex.  Leaf
decorations are resolution generators; polynomial coefficients and positive
generators live outside the tree, on the enclosing monomial.

Every stored tree is canonical: children at each vertex are sorted by
`tree_key`, (leaf count, shape string, decoration keys) built from the
children's keys, with the Koszul sign of the
sorting permutation absorbed into the coefficient.  A tree with two equal
adjacent siblings of odd degree is the zero element and is never stored.

`AlgebraElement` models the graded symmetric algebra on trees tensored with
a symmetric algebra on positive generators.  A monomial is a pair
(tree factors, positive factors), each tuple in canonical order; products
and reorderings carry Koszul signs computed from homogeneous degrees.

Every sign of a reordering comes from the signed merge `resolution._merge`:
products merge two sorted factor tuples, and `canonicalize_node` and
`make_monomial` sort a factor sequence through its fold
`resolution.signed_sort`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .poly import Combination, Poly, RingSpec, exact
from .resolution import (FreeResolution, GeneratorId, ModuleElement, _merge, parity_sign,
                         signed_sort)

Monomial = tuple  # (trees: tuple[Node, ...], pos: tuple[GeneratorId, ...])


class Node(tuple):
    """A tree, ('L', GeneratorId) or ('N', (Node, ...)), interned.

    Built only by `leaf` and `node`, so equal trees are one object and the
    hash is the object's.  Equality, ordering and indexing are a tuple's:
    a tree equals the plain tuple of its structure but hashes differently,
    so a dict keyed by trees is read with the `Node` (`as_node`).
    """

    __slots__ = ()
    __hash__ = object.__hash__


_leaves: dict = {}  # GeneratorId -> its leaf
_joins: dict = {}  # tuple of interned children -> the tree joining them


def leaf(gen: GeneratorId) -> Node:
    """The trivial tree on a generator."""
    tree = _leaves.get(gen)
    if tree is None:
        tree = _leaves[gen] = tuple.__new__(Node, ("L", gen))
    return tree


def node(children: Iterable) -> Node:
    """The tree joining `children` at a new root, in the order given.

    A child that is not interned (a plain-tuple tree) is interned first.
    """
    kids = tuple(children)
    tree = _joins.get(kids)
    if tree is None:
        if any(type(c) is not Node for c in kids):
            kids = tuple(map(as_node, kids))
            tree = _joins.get(kids)
        if tree is None:
            tree = _joins[kids] = tuple.__new__(Node, ("N", kids))
    return tree


def as_node(tree) -> Node:
    """The interned tree of a `Node` or of nested plain tuples."""
    if type(tree) is Node:
        return tree
    return leaf(tree[1]) if tree[0] == "L" else node(tree[1])


def is_leaf(node: Node) -> bool:
    return node[0] == "L"


def tree_degree(node: Node) -> int:
    """Homological degree: each vertex contributes -1, leaves their degree."""
    return _tree_order(node)[1]


def tree_key(node: Node):
    """Canonical comparison key for subtrees and tree factors: (leaf count,
    shape string, decoration keys)."""
    return _tree_order(node)[0]


@lru_cache(maxsize=None)
def _tree_order(node: Node) -> tuple:
    """(tree_key, tree_degree) from the children's pairs, kept on first read only:
    most interned trees are never compared or asked for their degree."""
    if node[0] == "L":
        return (1, "*", (node[1].key,)), node[1].module_degree
    keys, degrees = zip(*map(_tree_order, node[1]))
    return ((sum(k[0] for k in keys), "(" + "".join(k[1] for k in keys) + ")",
             sum((k[2] for k in keys), ())), sum(degrees) - 1)


def tree_str(node: Node) -> str:
    if node[0] == "L":
        return node[1].label
    return "V(" + ",".join(tree_str(c) for c in node[1]) + ")"


class TreeError(ValueError):
    pass


@lru_cache(maxsize=None)
def canonicalize_node(tree: Node) -> Tuple[Optional[Node], int]:
    """Canonical representative and Koszul sign, or (None, 0) for zero."""
    if tree[0] == "L":
        return leaf(tree[1]), 1
    if len(tree[1]) < 2:
        raise TreeError(f"vertex with {len(tree[1])} child(ren) is inadmissible")
    sign = 1
    kids = []
    for c in tree[1]:
        cc, s = canonicalize_node(c)
        if cc is None:
            return None, 0
        sign *= s
        kids.append(cc)
    kids, s = signed_sort(kids, _tree_order)
    return (None, 0) if kids is None else (node(kids), sign * s)


# ---------------------------------------------------------------------------
# the graded symmetric algebra
# ---------------------------------------------------------------------------

def mono_pos_degree(mono: Monomial) -> int:
    _, pos = mono
    return sum(g.module_degree for g in pos)


def module_generator(mono: Monomial) -> Optional[GeneratorId]:
    """The generator of a monomial made of one trivial tree times positives,
    None for any other monomial."""
    trees = mono[0]
    return trees[0][1] if len(trees) == 1 and is_leaf(trees[0]) else None


def mono_label(mono: Monomial) -> str:
    """A monomial as its factors joined by '*', positives first; '1' if empty."""
    trees, pos = mono
    parts = [g.label for g in pos] + [tree_str(t) for t in trees]
    return "*".join(parts) if parts else "1"


def _mono_sort_key(mono: Monomial):
    trees, pos = mono
    return (
        (len(trees), len(pos)),
        tuple(g.key for g in pos),
        tuple(tree_key(t) for t in trees),
    )


def make_monomial(factors: Iterable[tuple]) -> Tuple[Optional[Monomial], int]:
    """Normalize a factor sequence into a canonical monomial with sign.

    Factors are ('p', GeneratorId) or ('t', Node); positive generators come
    first in a monomial, each group sorted by its canonical key.  Returns
    (None, 0) when an odd factor repeats.  The reference normalizer: the
    engine builds its monomials canonical by construction (`mono_mul`, the
    merges of `apply_derivation`, the root maps, `substitute_at_path`), and
    the tests compare those with it.
    """
    items, sign = signed_sort(factors, _factor_order)
    if items is None:
        return None, 0
    pos = tuple(obj for kind, obj in items if kind == "p")
    trees = tuple(as_node(obj) for kind, obj in items if kind == "t")
    return (trees, pos), sign


def _factor_order(factor: tuple) -> tuple:
    """`make_monomial`'s order: positives first, each group by its key."""
    kind, obj = factor
    key, degree = _gen_order(obj) if kind == "p" else _tree_order(obj)
    return (kind == "t", key), degree


def _gen_order(g: GeneratorId) -> tuple:
    return g.key, g[0]


def mono_mul(a: Monomial, b: Monomial) -> Tuple[Optional[Monomial], int]:
    """The product a*b of two canonical monomials: (monomial, sign).

    Positives and trees are merged separately by their canonical keys, so
    the result equals `make_monomial` on the concatenated factors of a and b
    without re-sorting them.  The positives of b also pass every tree of a.
    Returns (None, 0) when an odd factor repeats.
    """
    ta, pa = a
    tb, pb = b
    parity = 0
    if pa and pb:
        pos, parity = _merge(pa, pb, _gen_order)
        if pos is None:
            return None, 0
    else:
        pos = pa or pb
    if ta and tb:
        trees, p = _merge(ta, tb, _tree_order)
        if trees is None:
            return None, 0
        parity ^= p
    else:
        trees = ta or tb
    if ta and pb and sum(g.module_degree for g in pb) & 1 \
            and sum(_tree_order(t)[1] for t in ta) & 1:
        parity ^= 1
    return (trees, pos), -1 if parity else 1


def accumulate(acc: dict, mono: Monomial, coeff: dict, sign: int = 1,
               factor: Optional[dict] = None):
    """acc[mono] += sign * factor * coeff, in place.

    `acc` maps monomials to {exponent: coefficient} dicts, and so do `coeff`
    and `factor` (`Poly.terms`), each coefficient an int, or Fraction once a
    division happens; a `factor` of None stands for 1.  `collect` turns the
    sums into an element.
    """
    slot = acc.get(mono)
    if slot is None:
        slot = acc[mono] = {}
    get = slot.get
    if factor is None:
        for e, v in coeff.items():
            if sign < 0:
                v = -v
            old = get(e)
            slot[e] = v if old is None else old + v
        return
    for e1, v1 in factor.items():
        for e2, v2 in coeff.items():
            e = tuple(map(add, e1, e2))
            v = v1 * v2
            if sign < 0:
                v = -v
            old = get(e)
            slot[e] = v if old is None else old + v


def collect(ring: RingSpec, acc: dict) -> "AlgebraElement":
    """The element of the sums built by `accumulate`, zeros dropped.

    A slot of one nonzero term becomes its shared Poly (`poly.OneTermPolys`),
    any other its Poly as it is, filtered only where a sum cancelled.
    """
    terms, shared = {}, ring.one_terms
    for mono, slot in acc.items():
        if 0 in slot.values():
            slot = {e: v for e, v in slot.items() if v}
        if len(slot) == 1:
            ((e, v),) = slot.items()
            terms[mono] = shared[e, v, type(v)]
        elif slot:
            terms[mono] = Poly._of(ring, slot)
    return AlgebraElement._of(ring, terms)


def sums_to_zero(acc: dict) -> bool:
    """Whether every sum built by `accumulate` cancelled."""
    for slot in acc.values():
        if any(slot.values()):
            return False
    return True


def add_element(acc: dict, elem: "AlgebraElement", sign: int = 1) -> dict:
    """Add an element's terms times `sign` into an accumulator; returns it."""
    for mono, c in elem.terms.items():
        accumulate(acc, mono, c.terms, sign)
    return acc


def sum_elements(ring: RingSpec, elems: Iterable["AlgebraElement"]) -> "AlgebraElement":
    """The sum of elements, built in place by `accumulate`."""
    acc: dict = {}
    for elem in elems:
        add_element(acc, elem)
    return collect(ring, acc)


class AlgebraElement(Combination):
    """O-linear combination of canonical monomials in trees and positives."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def scalar(p: Poly) -> "AlgebraElement":
        return AlgebraElement(p.ring, {((), ()): p})

    @staticmethod
    def from_tree(ring: RingSpec, node: Node, coeff: Optional[Poly] = None) -> "AlgebraElement":
        c = coeff if coeff is not None else Poly.one(ring)
        cnode, sign = canonicalize_node(node)
        if cnode is None:
            return AlgebraElement.zero(ring)
        return AlgebraElement(ring, {((cnode,), ()): c if sign > 0 else -c})

    @staticmethod
    def from_module_element(me: ModuleElement) -> "AlgebraElement":
        out = {}
        for g, p in me.terms.items():
            out[((leaf(g),), ())] = p
        return AlgebraElement(me.ring, out)

    @staticmethod
    def from_positive(ring: RingSpec, gen: GeneratorId, coeff: Optional[Poly] = None) -> "AlgebraElement":
        c = coeff if coeff is not None else Poly.one(ring)
        return AlgebraElement(ring, {((), (gen,)): c})

    # -- basic algebra ---------------------------------------------------------

    # in the class's own namespace, where the benchmark's tracer wraps them
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__

    def scale(self, value) -> "AlgebraElement":
        # the coefficients form a domain: a nonzero multiple has no zero term
        if isinstance(value, Poly):
            if value.is_zero():
                return AlgebraElement.zero(self.ring)
            return AlgebraElement._of(self.ring, {m: value * c for m, c in self.terms.items()})
        if exact(value) == 0:
            return AlgebraElement.zero(self.ring)
        return AlgebraElement._of(self.ring, {m: c.scale(value) for m, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = mono_mul(m1, m2)
                if mono is not None:
                    accumulate(acc, mono, c2.terms, sign, c1.terms)
        return collect(self.ring, acc)

    # -- projections --------------------------------------------------------------

    def project_products(self) -> "AlgebraElement":
        """Monomials with at least two tree factors."""
        return AlgebraElement._of(self.ring, {
            m: c for m, c in self.terms.items() if len(m[0]) >= 2})

    def project_module(self) -> "AlgebraElement":
        """Monomials whose single tree factor is trivial (the module part)."""
        return AlgebraElement._of(self.ring, {
            m: c for m, c in self.terms.items() if module_generator(m) is not None})

    def project_scalar(self) -> "AlgebraElement":
        """Monomials with no tree factor (the purely positive part)."""
        return AlgebraElement._of(self.ring, {m: c for m, c in self.terms.items() if not m[0]})

    def has_only_module_and_scalar(self) -> bool:
        return all(not m[0] or module_generator(m) is not None for m in self.terms)

    # -- display --------------------------------------------------------------------

    def _chunks(self) -> list:
        chunks = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            trees, pos = mono
            factors = [g.label for g in pos] + [tree_str(t) for t in trees]
            chunks.append(self.terms[mono].times_chunk("*".join(factors)))
        return chunks


# ---------------------------------------------------------------------------
# the root maps
# ---------------------------------------------------------------------------

def root_join(elem: AlgebraElement) -> AlgebraElement:
    """Join each product of at least two trees into one tree at a new root.

    A map of degree -1; positive factors pass with the Koszul sign of an odd
    operator.  Monomials with fewer than two tree factors are rejected.  The
    joined tree follows the canonical positives, so ((tree,), pos) is
    canonical as it stands.
    """
    if any(len(trees) < 2 for trees, _pos in elem.terms):
        raise TreeError("root_join needs at least two tree factors")
    return collect(elem.ring, join_sums({m: c.terms for m, c in elem.terms.items()}, {}))


def join_sums(sums: dict, acc: dict) -> dict:
    """Add the sums' products of at least two trees, joined at a new root with
    `root_join`'s sign, into `acc` and return it; sums that all cancelled are
    skipped, so no tree is joined that the collected element would not join."""
    for (trees, pos), slot in sums.items():
        if len(trees) > 1 and any(slot.values()):
            accumulate(acc, ((node(trees),), pos), slot,
                       parity_sign(mono_pos_degree((trees, pos))))
    return acc


def root_split(elem: AlgebraElement) -> AlgebraElement:
    """Inverse of root_join: cut each non-trivial tree at its root.

    The children of a canonical tree are in tree_key order and never repeat
    an odd factor, so (children, pos) is a canonical monomial as it stands.
    """
    acc: dict = {}
    for (trees, pos), c in elem.terms.items():
        if len(trees) != 1 or is_leaf(trees[0]):
            raise TreeError("root_split expects single non-trivial tree factors")
        accumulate(acc, (trees[0][1], pos), c.terms,
                   parity_sign(mono_pos_degree((trees, pos))))
    return collect(elem.ring, acc)


def _splice(rest: tuple, after: int, trees: tuple) -> Tuple[Optional[Node], int]:
    """Join `rest` with the canonical factors `trees` spliced into one slot.

    `rest` are the other children of a canonical tree, in order, and
    `after` is the degree parity of those after the slot.  Returns the
    canonical tree and the parity of the Koszul sign of sorting the factors
    in, or (None, 0) when an odd factor repeats or fewer than two children
    remain.
    """
    if not trees:  # a deletion keeps the order
        return (node(rest), 0) if len(rest) >= 2 else (None, 0)
    merged, parity = _merge(rest, trees, _tree_order)
    if merged is None or len(merged) < 2:
        return None, 0
    if after:  # the factors first pass the children after the slot
        for t in trees:
            parity ^= _tree_order(t)[1]
    return node(merged), parity & 1


def substitute_at_path(acc: dict, node: Node, path: tuple, value: AlgebraElement,
                       sign: int, weight: int):
    """Add sign times `node` with the subtree at `path` replaced by a value.

    Each term of the value takes the place of the subtree: its trees are
    spliced in as children of the vertex above, a scalar term deletes the
    slot, and a vertex left with fewer than two children kills the term;
    every vertex on the path sorts its new child in with the Koszul sign.
    At the root (path ()) the term is the value's own monomial.  Positive
    factors exit the tree with the parity of the vertex weight (see
    `add_tree_formula`) times their degree.  The terms are summed into
    `acc` by `accumulate`; each one's monomial is the value term's
    canonical positives with the new tree, if any, after them.
    """
    steps = []  # (the other children, parity after the slot), from the bottom
    for i in path:
        kids = node[1]
        after = 0
        for c in kids[i + 1:]:
            after ^= _tree_order(c)[1]
        steps.append((kids[:i] + kids[i + 1:], after & 1))
        node = kids[i]
    steps.reverse()
    for (trees, pos), c in value.terms.items():
        odd = 0
        for g in pos:
            odd ^= g[0]
        parity = odd & weight
        for rest, after in steps:
            tree, p = _splice(rest, after, trees)
            if tree is None:
                break
            trees, parity = (tree,), parity ^ p
        else:
            accumulate(acc, (trees, pos), c.terms, -sign if parity & 1 else sign)


def add_tree_formula(acc: dict, node: Node,
                     child_image: Callable[[Node], AlgebraElement],
                     root_value: Callable[[Node], AlgebraElement]):
    """Add the substitution terms of the tree formula on an inner tree.

    The formula replaces each leaf decoration g by its value, and the
    subtree t at each inner vertex and at the root by minus its hook value,
    each term with the sign of its vertex weight: 0 at the root, and at a
    child its parent's weight minus 1 plus the degrees of the subtrees to
    its left.  It is evaluated children first: the image of each child
    c_i, `child_image(c_i)` (memoized by the caller), already holds every
    term from inside c_i, relative to c_i.  Each of its terms is spliced
    into slot i (`substitute_at_path`) with the sign of the child's weight
    w_i, which its positives also pass; then -root_value(node) replaces
    the whole tree.

    Level -1 (`TreeDifferential.on_tree`) adds the root split beside this.
    There the image of an inner child holds its own root split, which
    spliced into slot i contracts the child's root into the root of
    `node`: the vertex contractions.  Every correction level
    (`ExtensionData`) shares the formula with child images and root values
    summed over its levels.
    """
    weight = -1
    for i, child in enumerate(node[1]):
        image = child_image(child)
        if image.terms:
            substitute_at_path(acc, node, (i,), image, parity_sign(weight), weight)
        weight += _tree_order(child)[1]
    value = root_value(node)
    if value.terms:
        substitute_at_path(acc, node, (), value, -1, 0)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def apply_derivation(elem: AlgebraElement,
                     on_tree: Callable[[Node], AlgebraElement],
                     on_positive: Optional[Callable[[GeneratorId], AlgebraElement]] = None,
                     on_coeff: Optional[Callable[[Poly], AlgebraElement]] = None,
                     on_tree_extra: Optional[Callable[[Node], AlgebraElement]] = None,
                     acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
    """Extend generator images to the whole algebra by the graded Leibniz rule.

    The operator is odd (degree +1): passing a factor of degree d costs
    (-1)^d.  Monomial factors are ordered positives-then-trees, with the
    polynomial coefficient in front (even, so it contributes no sign).  The
    image m of factor i, preceded by factors of total degree `passed`, moves
    to the front of the monomial with factor i removed: its term is
    (-1)^(passed * (1 + deg m)) * c * (m * rest), summed in place.

    The kernel runs once per (factor, rest).  What depends on the rest
    alone, whether it is empty and the parity of its positives' degrees, is
    computed once for all terms of the factor's image.  Each image term's
    sign follows its own degree: the parities of its trees' and of its
    positives' degrees, taken in one loop each when an odd `passed` or odd
    positives of the rest make them count, give both its Leibniz sign and
    the sign of its product with the rest.

    `on_coeff` must be a derivation of the ring O (every caller's is), so
    it is zero on constants and is never called on one.  `on_tree_extra`,
    when given, is a second image of each tree factor, inserted in the same
    place: the result is that of on_tree + on_tree_extra, without forming
    the sum of the two images.

    Given an accumulator `acc` (`accumulate`), the terms times `sign` are
    added into it and it is returned; without one, the collected element.
    """
    out = {} if acc is None else acc
    constant = (0,) * elem.ring.num_vars
    unit = {constant: 1}

    def insert(img, rest, passed, c):
        rt, rp = rest
        alone = not (rt or rp)
        rp_odd = 0
        for g in rp:
            rp_odd ^= g[0]
        # a term's degree counts only for an odd `passed` (the Leibniz
        # sign) or odd positives in the rest (passing the term's trees)
        by_degree = (passed | rp_odd) & 1
        single = c is None or len(c) == 1
        if c is not None and single:
            (ce, cv), = c.items()
        for m, d in img.terms.items():
            mt, mp = m
            odd = 0
            if by_degree:
                t_odd = 0
                for t in mt:
                    t_odd ^= _tree_order(t)[1]
                p_odd = 0
                for g in mp:
                    p_odd ^= g[0]
                # (-1)^(passed * (1 + deg m)), then the rest's positives
                # passing the trees of m
                odd = (passed & ~(t_odd ^ p_odd) ^ t_odd & rp_odd) & 1
            if alone:
                mono = m
            else:
                pos, trees = mp or rp, mt or rt
                if mp and rp:
                    if len(mp) == 1 == len(rp):
                        # of positive degree, a generator orders as its key
                        x, y = mp[0], rp[0]
                        if x > y:
                            pos = rp + mp
                            odd ^= x[0] & y[0] & 1
                        elif x == y and y[0] & 1:
                            continue
                        else:
                            pos = mp + rp
                    else:
                        pos, p = _merge(mp, rp, _gen_order)
                        if pos is None:
                            continue
                        odd ^= p
                if mt and rt:
                    trees, p = _merge(mt, rt, _tree_order)
                    if trees is None:
                        continue
                    odd ^= p
                mono = (trees, pos)
            s = -sign if odd else sign
            dt = d.terms
            if single and len(dt) == 1:  # nearly every term: no call
                (e, v), = dt.items()
                if c is not None:
                    e, v = tuple(map(add, ce, e)), cv * v
                if s < 0:
                    v = -v
                slot = out.get(mono)
                if slot is None:
                    out[mono] = {e: v}
                else:
                    old = slot.get(e)
                    slot[e] = v if old is None else old + v
            else:
                accumulate(out, mono, dt, s, c)

    for mono, c in elem.terms.items():
        trees, pos = mono
        ct = None if c.terms == unit else c.terms  # skip multiplying by 1
        if on_coeff is not None and not (len(c.terms) == 1 and constant in c.terms):
            dc = on_coeff(c)
            if dc is not None and dc.terms:
                insert(dc, mono, 0, None)
        passed = 0
        for i, g in enumerate(pos):
            if on_positive is not None:
                img = on_positive(g)
                if img is not None and img.terms:
                    insert(img, (trees, pos[:i] + pos[i + 1:]), passed, ct)
            passed += g.module_degree
        for i, t in enumerate(trees):
            rest = (trees[:i] + trees[i + 1:], pos)
            img = on_tree(t)
            if img is not None and img.terms:
                insert(img, rest, passed, ct)
            if on_tree_extra is not None:
                img = on_tree_extra(t)
                if img is not None and img.terms:
                    insert(img, rest, passed, ct)
            passed += _tree_order(t)[1]
    return collect(elem.ring, out) if acc is None else acc


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def enumerate_tree_basis(res: FreeResolution, neg_degree: int) -> Tuple[Node, ...]:
    """All canonical decorated trees of homological degree -neg_degree.

    Trivial trees over the matching module, plus every join of a multiset of
    lower-degree basis trees whose degrees sum to -(neg_degree - 1); odd
    factors never repeat.  Output order: leaf count, shape, decorations.
    """
    if neg_degree < 1:
        raise TreeError("neg_degree must be at least 1")
    cache = res._tree_basis_cache
    if neg_degree in cache:
        return cache[neg_degree]
    out = [leaf(g) for g in res.generators(neg_degree)]
    if neg_degree >= 3:
        for combo in _multisets_with_degree(_trees_through(res, neg_degree - 2),
                                            neg_degree - 1, 2):
            out.append(node(combo))
    # listing order: leaf count, then inner-vertex count (the shape's "("s
    # less the root's), then shape and decorations; children follow tree_key
    out.sort(key=lambda t: (tree_key(t)[0], tree_key(t)[1].count("(")) + tree_key(t)[1:])
    cache[neg_degree] = tuple(out)
    return cache[neg_degree]


def _trees_through(res: FreeResolution, neg_degree: int) -> Tuple[Node, ...]:
    """The basis trees of negative degree 1..neg_degree in tree_key order.

    Built once per degree, from the list one degree lower, and shared by
    the tree and the monomial basis.
    """
    cache = res._sorted_trees_cache
    if neg_degree not in cache:
        below = _trees_through(res, neg_degree - 1) if neg_degree > 1 else ()
        cache[neg_degree] = tuple(sorted(below + enumerate_tree_basis(res, neg_degree),
                                         key=tree_key))
    return cache[neg_degree]


def _multisets_with_degree(candidates: Sequence[Node], total: int, min_count: int):
    """Multisets of candidate trees with degree sum -total, each in key order.

    The candidates come in key order.  The recursion takes them by depth,
    shallowest first, and stops at the first one deeper than what remains;
    each multiset is put back in key order by sorting its indices.
    """
    depths = [-tree_degree(node) for node in candidates]
    by_depth = sorted(range(len(candidates)), key=depths.__getitem__)
    results: List[tuple] = []
    chosen: List[int] = []

    def recurse(start: int, remaining: int):
        if remaining == 0:
            if len(chosen) >= min_count:
                results.append(tuple(candidates[i] for i in sorted(chosen)))
            return
        for at in range(start, len(by_depth)):
            i = by_depth[at]
            d = depths[i]
            if d > remaining:
                break
            limit = 1 if d % 2 else remaining // d
            for taken in range(1, limit + 1):
                chosen.append(i)
                recurse(at + 1, remaining - d * taken)
            del chosen[-limit:]

    recurse(0, total)
    return results


def enumerate_monomial_basis(res: FreeResolution, neg_degree: int) -> Tuple[Monomial, ...]:
    """All canonical monomials in basis trees of the given negative degree."""
    cache = res._monomial_basis_cache
    if neg_degree in cache:
        return cache[neg_degree]
    combos = _multisets_with_degree(_trees_through(res, neg_degree), neg_degree, 1)
    out = tuple(sorted(((c, ()) for c in combos), key=_mono_sort_key))
    cache[neg_degree] = out
    return out
