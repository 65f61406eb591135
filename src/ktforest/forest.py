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
(leaf count, shape string, decoration tuple), with the Koszul sign of the
sorting permutation absorbed into the coefficient.  A tree with two equal
adjacent siblings of odd degree is the zero element and is never stored.

`AlgebraElement` models the graded symmetric algebra on trees tensored with
a symmetric algebra on positive generators.  A monomial is a pair
(tree factors, positive factors), each tuple in canonical order; products
and reorderings carry Koszul signs computed from homogeneous degrees.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .poly import Poly, RingSpec, exact
from .resolution import FreeResolution, GeneratorId, ModuleElement

Monomial = tuple  # (trees: tuple[Node, ...], pos: tuple[GeneratorId, ...])


def parity_sign(n: int) -> int:
    """(-1)**n computed by parity, safe for negative integers."""
    return -1 if n % 2 else 1


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


@lru_cache(maxsize=None)
def tree_degree(node: Node) -> int:
    """Homological degree: each vertex contributes -1, leaves their degree."""
    if node[0] == "L":
        return node[1].module_degree
    return -1 + sum(tree_degree(c) for c in node[1])


@lru_cache(maxsize=None)
def leaf_count(node: Node) -> int:
    if node[0] == "L":
        return 1
    return sum(leaf_count(c) for c in node[1])


@lru_cache(maxsize=None)
def inner_vertex_count(node: Node) -> int:
    if node[0] == "L":
        return 0
    return sum(inner_vertex_count(c) + (0 if is_leaf(c) else 1) for c in node[1])


@lru_cache(maxsize=None)
def shape_str(node: Node) -> str:
    if node[0] == "L":
        return "*"
    return "(" + "".join(shape_str(c) for c in node[1]) + ")"


@lru_cache(maxsize=None)
def decorations(node: Node) -> tuple:
    if node[0] == "L":
        return (node[1],)
    out = ()
    for c in node[1]:
        out += decorations(c)
    return out


@lru_cache(maxsize=None)
def tree_key(node: Node):
    """Canonical comparison key for subtrees and tree factors."""
    return (leaf_count(node), shape_str(node), tuple(g.key for g in decorations(node)))


def tree_str(node: Node) -> str:
    if node[0] == "L":
        return node[1].label
    return "V(" + ",".join(tree_str(c) for c in node[1]) + ")"


class TreeError(ValueError):
    pass


def koszul_sign(degrees: Sequence[int], permutation: Sequence[int]) -> int:
    """Sign with x_{perm(0)} ... x_{perm(k-1)} = sign * x_0 ... x_{k-1}."""
    perm = list(permutation)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError("not a permutation of the index set")
    return _sort_factors_with_sign([(i, degrees[i], i) for i in perm])[1]


def _sort_factors_with_sign(items: list) -> Tuple[Optional[list], int]:
    """Bubble-sort (key, degree, payload) triples, tracking Koszul signs.

    Returns (sorted items, sign), or (None, 0) when two equal factors of odd
    degree collide.
    """
    items = list(items)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j][0] > items[j + 1][0]:
                sign *= parity_sign(items[j][1] * items[j + 1][1])
                items[j], items[j + 1] = items[j + 1], items[j]
    for a, b in zip(items, items[1:]):
        if a[0] == b[0] and a[1] % 2 != 0:
            return None, 0
    return items, sign


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
        kids.append((tree_key(cc), tree_degree(cc), cc))
    kids, s = _sort_factors_with_sign(kids)
    if kids is None:
        return None, 0
    return node(k[2] for k in kids), sign * s


# ---------------------------------------------------------------------------
# vertex addressing
# ---------------------------------------------------------------------------

def subtree_at(node: Node, path: tuple) -> Node:
    for i in path:
        node = node[1][i]
    return node


def vertices(node: Node) -> List[Tuple[tuple, Node, int]]:
    """Every vertex as (path, subtree, weight), in planar DFS preorder.

    The weight gives the sign of a substitution at the vertex: zero at the
    root; at a child, its parent's weight minus one plus the degrees of the
    subtrees to its left.
    """
    out: List[Tuple[tuple, Node, int]] = []

    def walk(n, path, weight):
        out.append((path, n, weight))
        if n[0] == "N":
            weight -= 1
            for i, c in enumerate(n[1]):
                walk(c, path + (i,), weight)
                weight += tree_degree(c)

    walk(node, (), 0)
    return out


def replace_at_path(tree: Node, path: tuple, replacement: Node) -> Node:
    if not path:
        return replacement
    i = path[0]
    kids = list(tree[1])
    kids[i] = replace_at_path(kids[i], path[1:], replacement)
    return node(kids)


def delete_at_path(tree: Node, path: tuple) -> Optional[Node]:
    """Remove the subtree at path; None when the shape becomes inadmissible.

    A parent left with fewer than two children is inadmissible and kills the
    term, including a root left with a single child.
    """
    if not path:
        raise TreeError("cannot delete the whole tree here")
    parent_path, i = path[:-1], path[-1]
    parent = subtree_at(tree, parent_path)
    kids = parent[1][:i] + parent[1][i + 1:]
    if len(kids) < 2:
        return None
    return replace_at_path(tree, parent_path, node(kids))


# ---------------------------------------------------------------------------
# the graded symmetric algebra
# ---------------------------------------------------------------------------

def mono_degree(mono: Monomial) -> int:
    return sum(map(tree_degree, mono[0])) + mono_pos_degree(mono)


def mono_pos_degree(mono: Monomial) -> int:
    _, pos = mono
    return sum(g.module_degree for g in pos)


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
    items = []
    for kind, obj in factors:
        if kind == "p":
            items.append(((0, obj.key), obj.module_degree, (kind, obj)))
        else:
            items.append(((1, tree_key(obj)), tree_degree(obj), (kind, obj)))
    items, sign = _sort_factors_with_sign(items)
    if items is None:
        return None, 0
    pos = tuple(obj for _, _, (kind, obj) in items if kind == "p")
    trees = tuple(as_node(obj) for _, _, (kind, obj) in items if kind == "t")
    return (trees, pos), sign


@lru_cache(maxsize=None)
def _tree_order(node: Node) -> tuple:
    """(tree_key, tree_degree) in one cache lookup."""
    return tree_key(node), tree_degree(node)


def _merge(xs: tuple, ys: tuple, order) -> Tuple[Optional[tuple], int]:
    """Sorted merge of two sorted factor tuples, as in xs * ys.

    `order` maps a factor to (key, degree).  Each factor of ys moves past the
    factors of xs not yet placed, at the cost of (-1)^(its degree times their
    degree sum); equal keys keep xs first.  Returns (merged, parity of the
    sign), or (None, 0) when an odd factor occurs in both.
    """
    if len(xs) == 1 == len(ys):  # most products: one factor on each side
        (kx, dx), (ky, dy) = order(xs[0]), order(ys[0])
        if kx > ky:
            return ys + xs, dx & dy & 1
        if kx == ky and dy & 1:
            return None, 0
        return xs + ys, 0
    info = [order(x) for x in xs]
    suffix = [0] * (len(xs) + 1)
    for i in range(len(xs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + info[i][1]
    out = []
    parity = 0
    i, n = 0, len(xs)
    for y in ys:
        ky, dy = order(y)
        while i < n and info[i][0] <= ky:
            if dy & 1 and info[i][0] == ky:
                return None, 0
            out.append(xs[i])
            i += 1
        if dy & 1 and suffix[i] & 1:
            parity ^= 1
        out.append(y)
    out.extend(xs[i:])
    return tuple(out), parity


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

    Each slot becomes the terms of its Poly as it is; only a slot where a
    sum cancelled is filtered.
    """
    terms = {}
    for mono, slot in acc.items():
        if 0 in slot.values():
            slot = {e: v for e, v in slot.items() if v}
        if slot:
            terms[mono] = Poly._of(ring, slot)
    return AlgebraElement._of(ring, terms)


def sums_to_zero(acc: dict) -> bool:
    """Whether every sum built by `accumulate` cancelled."""
    for slot in acc.values():
        if any(slot.values()):
            return False
    return True


def sum_elements(ring: RingSpec, elems: Iterable["AlgebraElement"]) -> "AlgebraElement":
    """The sum of elements, built in place by `accumulate`."""
    acc: dict = {}
    for elem in elems:
        for mono, c in elem.terms.items():
            accumulate(acc, mono, c.terms)
    return collect(ring, acc)


class AlgebraElement:
    """O-linear combination of canonical monomials in trees and positives.

    No stored coefficient is the zero Poly, so `is_zero` and `==` read the
    dict as it is.  The constructor filters zeros; `_of`, for results that
    hold none by construction, does not.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Optional[dict] = None):
        self.ring = ring
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, ring: RingSpec, terms: dict) -> "AlgebraElement":
        """Wrap a dict known to hold no zero Poly, without copying it."""
        elem = object.__new__(cls)
        elem.ring = ring
        elem.terms = terms
        return elem

    @staticmethod
    def zero(ring: RingSpec) -> "AlgebraElement":
        return AlgebraElement._of(ring, {})

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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Poly.zero(self.ring)) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return AlgebraElement._of(self.ring, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

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

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    # -- projections --------------------------------------------------------------

    def project_products(self) -> "AlgebraElement":
        """Monomials with at least two tree factors."""
        return AlgebraElement._of(self.ring, {
            m: c for m, c in self.terms.items() if len(m[0]) >= 2})

    def project_module(self) -> "AlgebraElement":
        """Monomials whose single tree factor is trivial (the module part)."""
        return AlgebraElement._of(self.ring, {
            m: c for m, c in self.terms.items()
            if len(m[0]) == 1 and is_leaf(m[0][0])})

    def project_scalar(self) -> "AlgebraElement":
        """Monomials with no tree factor (the purely positive part)."""
        return AlgebraElement._of(self.ring, {m: c for m, c in self.terms.items() if not m[0]})

    def module_part(self) -> ModuleElement:
        """Extract the module part; positive factors must be absent."""
        out = ModuleElement.zero(self.ring)
        for (trees, pos), c in self.terms.items():
            if len(trees) == 1 and is_leaf(trees[0]):
                if pos:
                    raise TreeError("module part carries positive factors")
                out = out + ModuleElement.of_gen(self.ring, trees[0][1], c)
        return out

    def has_only_module_and_scalar(self) -> bool:
        for (trees, _pos), _c in self.terms.items():
            if len(trees) > 1 or (trees and not is_leaf(trees[0])):
                return False
        return True

    # -- display --------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coeff = self.terms[mono]
            trees, pos = mono
            factors = [g.label for g in pos] + [tree_str(t) for t in trees]
            if len(coeff.terms) > 1:
                sign = "+"
                body = "(" + str(coeff) + ")"
            else:
                text = str(coeff)
                sign = "-" if text.startswith("-") else "+"
                body = text.lstrip("-")
            if factors and body == "1":
                body = "*".join(factors)
            elif factors:
                body = body + "*" + "*".join(factors)
            chunks.append((sign, body))
        out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"AlgebraElement({self})"


# ---------------------------------------------------------------------------
# the root maps
# ---------------------------------------------------------------------------

def root_join(elem: AlgebraElement, acc: Optional[dict] = None,
              sign: int = 1) -> AlgebraElement:
    """Join each product of at least two trees into one tree at a new root.

    A map of degree -1; positive factors pass with the Koszul sign of an odd
    operator.  Monomials with fewer than two tree factors are rejected.  The
    joined tree follows the canonical positives, so ((tree,), pos) is
    canonical as it stands.  `acc` and `sign` are those of `apply_derivation`.
    """
    out = {} if acc is None else acc
    for (trees, pos), c in elem.terms.items():
        if len(trees) < 2:
            raise TreeError("root_join needs at least two tree factors")
        joined, s = canonicalize_node(node(trees))
        if joined is None:
            continue
        s *= parity_sign(mono_pos_degree((trees, pos)))
        accumulate(out, ((joined,), pos), c.terms, sign * s)
    return collect(elem.ring, out) if acc is None else acc


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


def contract_vertex(tree: Node, path: tuple) -> Tuple[Optional[Node], int]:
    """Remove an inner vertex, splicing its children into its parent."""
    if not path:
        raise TreeError("cannot contract the root")
    target = subtree_at(tree, path)
    if is_leaf(target):
        raise TreeError("cannot contract a leaf")
    parent_path, i = path[:-1], path[-1]
    parent = subtree_at(tree, parent_path)
    kids = parent[1][:i] + target[1] + parent[1][i + 1:]
    raw = replace_at_path(tree, parent_path, node(kids))
    return canonicalize_node(raw)


def substitute_at_path(acc: dict, node: Node, path: tuple, value: AlgebraElement,
                       sign: int, weight: int):
    """Add sign times `node` with the subtree at `path` replaced by a value.

    The value must live in (module + scalar) tensor positives.  Module terms
    decorate a fresh leaf; scalar terms delete the leaf slot, killing the
    term when the shape degenerates.  Positive factors exit the tree with
    the parity of the vertex weight (`vertices`) times their degree,
    accumulated from the odd join maps along the path.  The terms are summed
    into `acc` by `accumulate`; each one's monomial is the value term's
    canonical positives with the new tree, if any, after them.
    """
    for (trees, pos), c in value.terms.items():
        odd = 0
        for g in pos:
            odd ^= g[0]
        term_sign = -sign if odd & weight & 1 else sign
        if trees:
            if len(trees) != 1 or not is_leaf(trees[0]):
                raise TreeError("substitution value must be module + scalar valued")
            raw = replace_at_path(node, path, trees[0])
        elif path:
            raw = delete_at_path(node, path)
            if raw is None:
                continue
        else:  # a scalar in place of the whole tree
            accumulate(acc, ((), pos), c.terms, term_sign)
            continue
        cnode, s = canonicalize_node(raw)
        if cnode is not None:
            accumulate(acc, ((cnode,), pos), c.terms, term_sign * s)


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
    unit = Poly.one(elem.ring).terms
    constant = (0,) * elem.ring.num_vars

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
                    t_odd ^= tree_degree(t)
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
            passed += tree_degree(t)
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
    # listing order: leaf count, then inner-vertex count, then shape and
    # decorations; the canonical child order inside each tree is tree_key
    out.sort(key=lambda t: (leaf_count(t), inner_vertex_count(t)) + tree_key(t)[1:])
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
    """Multisets of candidate trees with degree sum -total, in key order."""
    depths = [-tree_degree(node) for node in candidates]
    results: List[tuple] = []
    chosen: List[Node] = []

    def recurse(start: int, remaining: int):
        if remaining == 0:
            if len(chosen) >= min_count:
                results.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            d = depths[i]
            if d > remaining:
                continue
            limit = 1 if d % 2 else remaining // d
            for taken in range(1, limit + 1):
                chosen.append(candidates[i])
                recurse(i + 1, remaining - d * taken)
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
