"""The tree differential, its hook map, and the homotopy retract.

The differential on the tree algebra acts on a single tree by splitting its
root into a product, contracting each inner vertex, applying the resolution
differential to each leaf, and subtracting hook substitutions at every inner
vertex and at the root, each with the sign of the vertex weight.  On trivial
trees it is the resolution differential; on products it extends by the
graded Leibniz rule.  A tree's image is built from its children's memoized
images (`forest.add_tree_formula`): each child's terms are spliced into its
slot, where the child's own root split contracts the child's root, then
the root split and the hook at the root are added.

The hook is solved degree by degree: for every basis tree, the required
value is a preimage under the resolution differential of an expression in
hook values of strictly lower degree, found by exact lifting.  Values on
trees too deep for the resolution are forced to zero, and the solve stops
at degree length + 2, past which the recursion is zero by degree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .forest import (AlgebraElement, Monomial, Node, accumulate, add_element, add_tree_formula,
                     apply_derivation, canonicalize_node, collect, enumerate_monomial_basis,
                     enumerate_tree_basis, is_leaf, join_sums, leaf, mono_label, mono_mul,
                     mono_pos_degree, node, parity_sign, root_join, root_split, sum_elements,
                     sums_to_zero, tree_degree, tree_key, tree_str)
from .poly import Poly, RingSpec
from .resolution import FreeResolution, GeneratorId, ModuleElement


class SolveError(RuntimeError):
    """A lifting problem had no solution; carries the failing stage and item."""

    def __init__(self, stage: str, item: str, detail: str = ""):
        self.stage = stage
        self.item = item
        self.detail = detail
        super().__init__(f"[{stage}] no solution for {item}" + (f": {detail}" if detail else ""))


class CheckResult:
    def __init__(self, name: str, passed: bool, checked: str, failures: Optional[list] = None):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.failures = [] if failures is None else failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"{self.name}: {status} ({self.checked})"
        for item, detail in self.failures[:5]:
            text += f"\n  {item}: {detail}"
        return text


def check_hook_degree(cnode: Node, value: ModuleElement):
    """A ValueError unless the value on a canonical tree has the tree's degree + 1."""
    degree = tree_degree(cnode) + 1
    if value.degrees() - {degree}:
        raise ValueError(f"hook value for {tree_str(cnode)} must be homogeneous of degree {degree}")


class HookMap:
    """O-linear table assigning a module element to each basis tree.

    Missing entries are zero; entries on trees whose value module does not
    exist are forced to zero and never stored.  Each entry is also kept as
    an algebra element, and every tree without an entry reads one shared
    zero of each kind.

    The map owns the level -1 evaluator of its table (`differential`), so
    that every reader of the final table (the verifiers and the extension)
    computes each tree image and residue once; `set_value` discards it.
    """

    def __init__(self, res: FreeResolution, table: Optional[dict] = None):
        self.res = res
        self.table: Dict[Node, ModuleElement] = {}
        self._elements: Dict[Node, AlgebraElement] = {}
        self._zero = ModuleElement.zero(res.ring)
        self._zero_element = AlgebraElement.zero(res.ring)
        self._differential: Optional[TreeDifferential] = None
        for node, val in (table or {}).items():
            self.set_value(node, val)

    def differential(self) -> TreeDifferential:
        """The tree differential of the current table, created on first use."""
        if self._differential is None:
            self._differential = TreeDifferential(self.res, self)
        return self._differential

    def set_value(self, node: Node, value: ModuleElement):
        self._differential = None
        cnode, sign = canonicalize_node(node)
        if cnode is None:
            if not value.is_zero():
                raise ValueError("hook value on a vanishing tree must be zero")
            return
        if sign != 1:
            value = value.scale(sign)
        if value.is_zero():
            self.table.pop(cnode, None)
            self._elements.pop(cnode, None)
        else:
            check_hook_degree(cnode, value)
            self.table[cnode] = value
            self._elements[cnode] = AlgebraElement.from_module_element(value)

    def value(self, node: Node) -> ModuleElement:
        return self.table.get(node, self._zero)

    def element(self, node: Node) -> AlgebraElement:
        """The value on a tree as an algebra element."""
        return self._elements.get(node, self._zero_element)

    def entries(self) -> List[Tuple[Node, ModuleElement]]:
        return sorted(self.table.items(), key=lambda kv: (-tree_degree(kv[0]), tree_key(kv[0])))

    def lines(self) -> List[str]:
        return [f"{tree_str(node)} -> {val}" for node, val in self.entries()]


class TreeDifferential:
    """Evaluator for the differential determined by a hook table.

    It owns the level -1 residues of the identities it checks, δ(δ t) per
    tree and δ h x + h δ x - x + ι p x per monomial, kept only where they do
    not cancel (`_kept`).  The verifiers of Q add only the levels >= 0 to them.
    """

    def __init__(self, res: FreeResolution, hook: HookMap):
        self.res = res
        self.hook = hook
        self._memo: Dict[Node, AlgebraElement] = {}
        self._squares: Dict[Node, AlgebraElement] = {}
        self._retracts: Dict[Monomial, AlgebraElement] = {}
        self.squares_through = self.retracts_through = 0
        # d of each generator, collected: the augmentation at depth 1
        self._leaf_values = {
            g: sum_elements(res.ring, [AlgebraElement.scalar(res.augment[g]) if d == -1
                                       else AlgebraElement.from_module_element(res.diff[g])])
            for d, gens in res.gens_by_degree.items() for g in gens}

    def leaf_value(self, gen: GeneratorId) -> AlgebraElement:
        return self._leaf_values[gen]

    def on_tree(self, node: Node) -> AlgebraElement:
        cached = self._memo.get(node)
        if cached is None:
            cached = self._memo[node] = self._image(node)
        return cached

    def _image(self, node: Node, acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
        """Root split plus tree formula over the children's images; `acc`, `sign` as in `apply`."""
        if is_leaf(node):
            value = self.leaf_value(node[1])
            return value if acc is None else add_element(acc, value, sign)
        out = {} if acc is None else acc
        accumulate(out, (node[1], ()), Poly.one(self.res.ring).terms, sign)
        add_tree_formula(out, node, self.on_tree, self.hook.element, sign)
        return collect(self.res.ring, out) if acc is None else acc

    def apply(self, elem: AlgebraElement, acc: Optional[dict] = None,
              sign: int = 1) -> AlgebraElement:
        return apply_derivation(elem, self.on_tree, acc=acc, sign=sign)

    def square_residue(self, node: Node) -> Optional[AlgebraElement]:
        return self._kept(self._squares, -tree_degree(node), self.squares_through,
                          self._square, node)

    def retract_residue(self, mono: Monomial, neg_degree_max: int) -> Optional[AlgebraElement]:
        return self._kept(self._retracts, -sum(map(tree_degree, mono[0])),
                          self.retracts_through, self._retract, mono, neg_degree_max)

    def _kept(self, store: dict, depth: int, through: int, compute: Callable, key, *args):
        """The residue of `key`, None where it cancels; kept if it does not, so at a
        depth through `through` (walked by its verifier) a key without one reads None."""
        kept = store.get(key)
        if kept is None and depth > through:
            kept = residue(self.res.ring, compute(key, *args))
            if kept is not None:
                store[key] = kept
        return kept

    def _square(self, node: Node) -> dict:
        return self.apply(self.on_tree(node), {})

    def _retract(self, mono: Monomial, neg_degree_max: int) -> dict:
        """δ h x + h δ x - x + ι p x, building no element: x is trees with coefficient
        1, so h x is their joined tree, ι p x its hook value (x for a leaf), and
        h δ x is joined from δ x's sums; h x keeps its image through K, not K + 1."""
        ring, trees, acc = self.res.ring, mono[0], {}
        join_sums(self.apply(AlgebraElement._of(ring, {mono: Poly.one(ring)}), {}), acc)
        if len(trees) > 1:
            joined = node(trees)
            image = (self.on_tree(joined) if sum(map(tree_degree, trees)) > -neg_degree_max
                     else self._memo.get(joined))
            if image is None:  # of degree K + 1, not kept
                self._image(joined, acc)
            else:
                add_element(acc, image)
            add_element(acc, self.hook.element(joined))
        if len(trees) > 1 or not is_leaf(trees[0]):
            accumulate(acc, mono, Poly.one(ring).terms, -1)
        return acc


def residue(ring: RingSpec, acc: dict) -> Optional[AlgebraElement]:
    """The collected sums of an accumulator, or None where all cancel."""
    return None if sums_to_zero(acc) else collect(ring, acc)


def seeded(stored: Optional[AlgebraElement]) -> dict:
    """A new accumulator holding a stored residue's terms (none for None)."""
    return {mono: dict(c.terms) for mono, c in stored.terms.items()} if stored else {}


# ---------------------------------------------------------------------------
# solving and verifying the hook
# ---------------------------------------------------------------------------

def hook_equation_rhs(differential: TreeDifferential, node: Node) -> ModuleElement:
    """The forced value of d(hook(tree)): the retract projection of the
    differential of the root split, which reads lower hook values only."""
    split = root_split(AlgebraElement.from_tree(differential.res.ring, node))
    return project_to_resolution(differential.hook.element,
                                 differential.apply(split)).module_part()


def hook_window(res: FreeResolution, neg_degree_max: int) -> int:
    """The negative degree through which the hook is solved and checked.

    Every nonzero value sits on a tree of degree at most length + 1, so the
    table is finite and complete from there on, whatever the truncation;
    beyond it, a truncation above length + 1 checks the forced zeros.
    """
    return max(neg_degree_max, res.length + 1)


def solve_hook(res: FreeResolution, neg_degree_max: int) -> HookMap:
    """Solve the hook recursion for every basis tree through `hook_window`.

    Values land in the module one degree up; beyond the resolution length
    they are forced to zero and the recursion is checked to be consistent at
    degree length + 2.  Deeper, it lands where no generators are: zero.
    """
    hook = HookMap(res, {})
    differential = hook.differential()
    for degree in range(3, min(hook_window(res, neg_degree_max), res.length + 2) + 1):
        for node in (t for t in enumerate_tree_basis(res, degree) if not is_leaf(t)):
            rhs = hook_equation_rhs(differential, node)
            if degree > res.length + 1:
                if not rhs.is_zero():
                    raise SolveError("hook", tree_str(node),
                                     "forced-zero value but the recursion is nonzero; "
                                     "input resolution is not exact")
                continue
            lifted = res.lift(rhs, degree - 1)
            if lifted is None:
                raise SolveError("hook", tree_str(node),
                                 "no preimage under d; resolution not exact "
                                 "or polynomial cap too small")
            hook.set_value(node, lifted)
    # set_value discarded the map's evaluator, but this one stays valid for
    # the final table: it holds images of the children of solved trees,
    # which read hook values of lower degree only, all set before them
    hook._differential = differential
    return hook


def verify_hook(res: FreeResolution, hook: HookMap, neg_degree_max: int) -> CheckResult:
    """Check d(hook(t)) against the recursion for every basis tree through
    `hook_window`."""
    differential = hook.differential()
    failures = []
    count = 0
    top = hook_window(res, neg_degree_max)
    for degree in range(3, top + 1):
        for node in enumerate_tree_basis(res, degree):
            if is_leaf(node):
                continue
            count += 1
            rhs = hook_equation_rhs(differential, node)
            value = hook.value(node)
            mod, scalar = res.apply_diff(value)
            lhs = mod
            if not scalar.is_zero():
                failures.append((tree_str(node), f"hook value hits the base ring: {scalar}"))
                continue
            if lhs != rhs:
                failures.append((tree_str(node), f"d(hook) = {lhs} but recursion gives {rhs}"))
    return CheckResult("hook recursion", not failures,
                       f"{count} basis trees through negative degree {top}", failures)


# ---------------------------------------------------------------------------
# homotopy retract
# ---------------------------------------------------------------------------

def homotopy(elem: AlgebraElement, acc: Optional[dict] = None,
             sign: int = 1) -> AlgebraElement:
    """Join every monomial with at least two tree factors at a new root."""
    return root_join(elem.project_products(), acc, sign)


def project_to_resolution(hook_value: Callable[[Node], AlgebraElement],
                          elem: AlgebraElement,
                          joined: Optional[AlgebraElement] = None,
                          acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
    """The retract projection: module part, scalar part, and hooked joins.

    The products are joined at a new root and sent through the degree +1
    table `hook_value` on trees; positive factors pass it with the sign of
    an odd operator.  The hook (`HookMap.element`) gives the projection of
    the tree differential's retract, the hook plus every correction table
    that of the extension.  `joined` is homotopy(elem) when the caller
    already has it.  `acc` and `sign` are those of `apply_derivation`.
    """
    out = {} if acc is None else acc
    for part in (elem.project_module(), elem.project_scalar()):
        add_element(out, part, sign)
    for (trees, pos), c in (homotopy(elem) if joined is None else joined).terms.items():
        s = sign * parity_sign(mono_pos_degree((trees, pos)))
        for m, d in hook_value(trees[0]).terms.items():
            mono, s2 = mono_mul(((), pos), m)
            if mono is not None:
                accumulate(out, mono, d.terms, s * s2, c.terms)
    return collect(elem.ring, out) if acc is None else acc


def _retract_failures(res: FreeResolution, neg_degree_max: int,
                      residue_of: Callable[[Monomial, int], Optional[AlgebraElement]],
                      mismatch: str):
    """(count, failures) of the retract identity on each basis monomial through
    the truncation; `residue_of(mono, neg_degree_max)` gives a monomial's
    residue, None where it cancels."""
    monos = [mono for degree in range(1, neg_degree_max + 1)
             for mono in enumerate_monomial_basis(res, degree)]
    failures = [(mono_label(mono), f"{mismatch}{r}") for mono in monos
                for r in (residue_of(mono, neg_degree_max),) if r is not None]
    return len(monos), failures


def verify_retract(res: FreeResolution, hook: HookMap, neg_degree_max: int) -> CheckResult:
    """delta h + h delta = Id - (inclusion of the projection), per monomial.

    The identity holds for any hook table, since the differential and the
    projection read the same one: it checks the tree formula against the
    projection, not the solved values (`verify_hook` checks those).  The
    residues stay on the evaluator (`TreeDifferential.retract_residue`),
    where `verify_incl_proj` reads them.
    """
    differential = hook.differential()
    count, failures = _retract_failures(res, neg_degree_max, differential.retract_residue,
                                        "lhs - rhs = ")
    differential.retracts_through = neg_degree_max
    return CheckResult("homotopy retract", not failures,
                       f"{count} algebra monomials through negative degree {neg_degree_max}",
                       failures)


def verify_square_zero(differential: TreeDifferential, neg_degree_max: int) -> CheckResult:
    """delta delta t = 0 on every basis tree through the truncation, read
    from the evaluator (`TreeDifferential.square_residue`)."""
    failures = [(tree_str(t), f"residue {r}")
                for degree in range(1, neg_degree_max + 1)
                for t in enumerate_tree_basis(differential.res, degree)
                for r in (differential.square_residue(t),) if r is not None]
    differential.squares_through = neg_degree_max
    return CheckResult("tree differential square zero", not failures,
                       f"basis trees through negative degree {neg_degree_max}", failures)


# ---------------------------------------------------------------------------
# the induced product on the resolution
# ---------------------------------------------------------------------------

def hook_product(hook: HookMap, a, b):
    """The binary product read off the hook on two-leaf trees.

    Operands are module elements; base-ring operands multiply as scalars.
    """
    if isinstance(a, Poly) and isinstance(b, Poly):
        return a * b
    if isinstance(a, Poly):
        return b.scale(a)
    if isinstance(b, Poly):
        return a.scale(b)
    product = two_leaf_product(AlgebraElement.from_module_element(a),
                               AlgebraElement.from_module_element(b),
                               hook.element)
    return product.module_part()


def two_leaf_product(x: AlgebraElement, y: AlgebraElement,
                     chi: Callable[[Node], AlgebraElement],
                     acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
    """The product that a table chi on two-leaf trees defines.

    Arguments are (module x positives)-valued; the product of g and h is
    chi(V(g,h)), the tree taken in canonical order with its Koszul sign.
    The hook gives the product of the resolution (`hook_product`), a level
    k - 1 correction table the level-k product of the extension.  `acc` and
    `sign` are those of `apply_derivation`.
    """
    out = {} if acc is None else acc
    for (tx, px), cx in x.terms.items():
        for (ty, py), cy in y.terms.items():
            if len(tx) != 1 or not is_leaf(tx[0]) or len(ty) != 1 or not is_leaf(ty[0]):
                raise ValueError("product arguments must be module-valued")
            gx, gy = tx[0][1], ty[0][1]
            cnode, s = canonicalize_node(node((leaf(gx), leaf(gy))))
            if cnode is None:
                continue
            # the second argument's positives exit past the first decoration;
            # the product map is even, so the blocks themselves pass freely
            s *= sign * parity_sign(sum(g.module_degree for g in py) * gx.module_degree)
            value = chi(cnode)
            if value.is_zero():
                continue
            dressed, s2 = mono_mul(((), px), ((), py))
            if dressed is None:
                continue
            coeff = (cx * cy).terms
            for m, c in value.terms.items():
                mono, s3 = mono_mul(dressed, m)
                if mono is not None:
                    accumulate(out, mono, c.terms, s * s2 * s3, coeff)
    return collect(x.ring, out) if acc is None else acc


def verify_hook_product_leibniz(res: FreeResolution, hook: HookMap) -> CheckResult:
    """d(a*b) = d(a)*b + (-1)^|a| a*d(b) for every pair of generators.

    Each generator pair's product is computed once; by bilinearity the
    products with d(a) and d(b) are sums of those, and a base-ring value
    of d multiplies as a scalar.
    """
    failures = []
    gens = res.module_generators()
    elements = {g: ModuleElement.of_gen(res.ring, g) for g in gens}
    products = {(a, b): hook_product(hook, elements[a], elements[b])
                for a in gens for b in gens}
    diffs = {g: res.apply_diff(elements[g]) for g in gens}

    def with_diff(a: GeneratorId, g: GeneratorId, left: bool) -> ModuleElement:
        """d(a) * g if `left`, else g * d(a), from the generator products."""
        a_mod, a_scalar = diffs[a]
        if not a_scalar.is_zero():
            return elements[g].scale(a_scalar)
        return sum((products[(c, g) if left else (g, c)].scale(p)
                    for c, p in a_mod.terms.items()), ModuleElement.zero(res.ring))

    for a in gens:
        for b in gens:
            lhs_mod, lhs_scalar = res.apply_diff(products[a, b])
            rhs = with_diff(a, b, True) \
                + with_diff(b, a, False).scale(parity_sign(a.module_degree))
            if not (lhs_scalar.is_zero() and lhs_mod == rhs):
                failures.append((f"{a.label} * {b.label}",
                                 f"d(product) = {lhs_mod} + {lhs_scalar} vs {rhs}"))
    return CheckResult("hook product Leibniz", not failures,
                       f"{len(gens) ** 2} generator pairs", failures)
