"""The tree differential, its hook map, and the homotopy retract.

The differential on the tree algebra acts on a single tree by splitting its
root into a product, contracting each inner vertex, applying the resolution
differential to each leaf, and subtracting hook substitutions at every inner
vertex and at the root, each with the sign of the vertex weight.  On trivial
trees it is the resolution differential; on products it extends by the
graded Leibniz rule.

The hook is solved degree by degree: for every basis tree, the required
value is a preimage under the resolution differential of an expression in
hook values of strictly lower degree, found by exact lifting.  Values on
trees too deep for the resolution are forced to zero.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .forest import (AlgebraElement, Node, accumulate, apply_derivation, canonicalize_node,
                     collect, enumerate_monomial_basis, enumerate_tree_basis, is_leaf, leaf,
                     mono_label, mono_mul, parity_sign, root_join, root_split, contract_vertex,
                     substitute_at_path, sum_elements, tree_degree, tree_key, tree_str, vertices,
                     mono_pos_degree)
from .poly import Poly
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


class HookMap:
    """O-linear table assigning a module element to each basis tree.

    Missing entries are zero; entries on trees whose value module does not
    exist are forced to zero and never stored.  Each entry is also kept as
    an algebra element, and every tree without an entry reads one shared
    zero of each kind.

    The map owns the level -1 evaluator of its table (`differential`), so
    that every reader of the final table (the verifiers and the extension)
    computes each tree image once; `set_value` discards it.
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
            expected = tree_degree(cnode) + 1
            if value.degrees() - {expected}:
                raise ValueError(
                    f"hook value for {tree_str(cnode)} must be homogeneous of degree {expected}")
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
    """Evaluator for the differential determined by a hook table."""

    def __init__(self, res: FreeResolution, hook: HookMap):
        self.res = res
        self.hook = hook
        self._memo: Dict[Node, AlgebraElement] = {}

    def leaf_value(self, gen: GeneratorId) -> AlgebraElement:
        if gen.module_degree == -1:
            return AlgebraElement.scalar(self.res.augment[gen])
        return AlgebraElement.from_module_element(self.res.diff[gen])

    def on_tree(self, node: Node) -> AlgebraElement:
        cached = self._memo.get(node)
        if cached is None:
            cached = self._memo[node] = self._image(node)
        return cached

    def _image(self, node: Node) -> AlgebraElement:
        if is_leaf(node):
            return self.leaf_value(node[1])
        ring = self.res.ring
        acc: dict = {}
        for mono, c in root_split(AlgebraElement.from_tree(ring, node)).terms.items():
            accumulate(acc, mono, c.terms)
        one = Poly.const(ring, 1).terms
        for path, sub, w in vertices(node)[1:]:
            if not is_leaf(sub):
                cnode, sign = contract_vertex(node, path)
                if cnode is not None:
                    accumulate(acc, ((cnode,), ()), one, sign * parity_sign(w))
        add_tree_formula(acc, node, self.leaf_value, self.hook.element)
        return collect(ring, acc)

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        return apply_derivation(elem, self.on_tree)


def add_tree_formula(acc: dict, node: Node,
                     leaf_value: Callable[[GeneratorId], AlgebraElement],
                     hook_value: Callable[[Node], AlgebraElement]):
    """Add the substitution terms of the tree formula to an accumulator.

    Each leaf decoration g is replaced by leaf_value(g), and the subtree t
    at each inner vertex and at the root by -hook_value(t); each term
    carries the sign of its vertex weight.  Zero values are skipped.  Level
    -1 (`TreeDifferential.on_tree`, which adds the root split and the
    vertex contractions) and every correction level (`ExtensionData`) share
    this formula.
    """
    for path, sub, w in vertices(node):
        if is_leaf(sub):
            value, sign = leaf_value(sub[1]), parity_sign(w)
        else:
            value, sign = hook_value(sub), -parity_sign(w)
        if not value.is_zero():
            substitute_at_path(acc, node, path, value, sign, w)


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
    they are forced to zero and the recursion is checked to be consistent.
    """
    hook = HookMap(res, {})
    differential = hook.differential()
    for degree in range(3, hook_window(res, neg_degree_max) + 1):
        trees = [t for t in enumerate_tree_basis(res, degree) if not is_leaf(t)]
        if not trees:
            continue
        for node in trees:
            rhs = hook_equation_rhs(differential, node)
            source_depth = degree - 1
            if source_depth > res.length:
                if not rhs.is_zero():
                    raise SolveError("hook", tree_str(node),
                                     "forced-zero value but the recursion is nonzero; "
                                     "input resolution is not exact")
                continue
            lifted = res.lift(rhs, source_depth)
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

def homotopy(elem: AlgebraElement) -> AlgebraElement:
    """Join every monomial with at least two tree factors at a new root."""
    return root_join(elem.project_products())


def project_to_resolution(hook_value: Callable[[Node], AlgebraElement],
                          elem: AlgebraElement,
                          joined: Optional[AlgebraElement] = None) -> AlgebraElement:
    """The retract projection: module part, scalar part, and hooked joins.

    The products are joined at a new root and sent through the degree +1
    table `hook_value` on trees; positive factors pass it with the sign of
    an odd operator.  The hook (`HookMap.element`) gives the projection of
    the tree differential's retract, the hook plus every correction table
    that of the extension.  `joined` is homotopy(elem) when the caller
    already has it.
    """
    out = elem.project_module() + elem.project_scalar()
    if joined is None:
        joined = homotopy(elem)
    for (trees, pos), c in joined.terms.items():
        value = hook_value(trees[0])
        if not value.is_zero():
            sign = parity_sign(mono_pos_degree((trees, pos)))
            out = out + AlgebraElement(elem.ring, {((), pos): c.scale(sign)}) * value
    return out


def verify_retract(res: FreeResolution, hook: HookMap, neg_degree_max: int) -> CheckResult:
    """delta h + h delta = Id - (inclusion of the projection), per monomial.

    The identity holds for any hook table, since the differential and the
    projection read the same one: it checks the tree formula against the
    projection, not the solved values (`verify_hook` checks those).  The
    images of the joined trees h(x) of degree K + 1 are not memoized:
    this check reads each of them once, and the extension reads some of
    them (none over a Taylor resolution), which costs less to recompute
    than to keep.
    """
    differential = hook.differential()
    ring = res.ring

    def delta_of_join(node):
        if tree_degree(node) < -neg_degree_max:
            return differential._image(node)
        return differential.on_tree(node)

    failures = []
    monos = []
    for degree in range(1, neg_degree_max + 1):
        monos.extend(enumerate_monomial_basis(res, degree))
    for mono in monos:
        x = AlgebraElement(ring, {mono: Poly.const(ring, 1)})
        hx = homotopy(x)
        d_h = apply_derivation(hx, delta_of_join)
        h_d = homotopy(differential.apply(x))
        p = project_to_resolution(hook.element, x, hx)
        if not sum_elements(ring, (d_h, h_d, -x, p)).is_zero():
            failures.append((mono_label(mono), f"lhs - rhs = {(d_h + h_d) - (x - p)}"))
    return CheckResult("homotopy retract", not failures,
                       f"{len(monos)} algebra monomials through negative degree {neg_degree_max}",
                       failures)


def verify_square_zero(apply_fn: Callable[[AlgebraElement], AlgebraElement],
                       basis: List[AlgebraElement], label: str = "square zero",
                       checked: str = "") -> CheckResult:
    """apply_fn(apply_fn(x)) = 0 on every basis element."""
    failures = []
    for x in basis:
        residue = apply_fn(apply_fn(x))
        if not residue.is_zero():
            failures.append((str(x), f"residue {residue}"))
    return CheckResult(label, not failures, checked or f"{len(basis)} basis elements", failures)


def tree_basis_elements(res: FreeResolution, neg_degree_max: int) -> List[AlgebraElement]:
    """All basis trees through the truncation, as algebra elements."""
    out = []
    for degree in range(1, neg_degree_max + 1):
        for node in enumerate_tree_basis(res, degree):
            out.append(AlgebraElement.from_tree(res.ring, node))
    return out


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
                     chi: Callable[[Node], AlgebraElement]) -> AlgebraElement:
    """The product that a table chi on two-leaf trees defines.

    Arguments are (module x positives)-valued; the product of g and h is
    chi(V(g,h)), the tree taken in canonical order with its Koszul sign.
    The hook gives the product of the resolution (`hook_product`), a level
    k - 1 correction table the level-k product of the extension.
    """
    acc: dict = {}
    for (tx, px), cx in x.terms.items():
        for (ty, py), cy in y.terms.items():
            if len(tx) != 1 or not is_leaf(tx[0]) or len(ty) != 1 or not is_leaf(ty[0]):
                raise ValueError("product arguments must be module-valued")
            gx, gy = tx[0][1], ty[0][1]
            cnode, sign = canonicalize_node(("N", (leaf(gx), leaf(gy))))
            if cnode is None:
                continue
            # the second argument's positives exit past the first decoration;
            # the product map is even, so the blocks themselves pass freely
            sign *= parity_sign(sum(g.module_degree for g in py) * gx.module_degree)
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
                    accumulate(acc, mono, c.terms, sign * s2 * s3, coeff)
    return collect(x.ring, acc)


def verify_hook_product_leibniz(res: FreeResolution, hook: HookMap) -> CheckResult:
    """d(a*b) = d(a)*b + (-1)^|a| a*d(b) for every pair of generators."""
    failures = []
    gens = [g for depth in range(1, res.length + 1) for g in res.generators(depth)]
    for a in gens:
        for b in gens:
            ea = ModuleElement.of_gen(res.ring, a)
            eb = ModuleElement.of_gen(res.ring, b)
            prod = hook_product(hook, ea, eb)
            lhs_mod, lhs_scalar = res.apply_diff(prod)
            da_mod, da_scalar = res.apply_diff(ea)
            db_mod, db_scalar = res.apply_diff(eb)
            da = da_mod if da_scalar.is_zero() else da_scalar
            db = db_mod if db_scalar.is_zero() else db_scalar
            rhs = hook_product(hook, da, eb)
            rhs = rhs + hook_product(hook, ea, db).scale(parity_sign(a.module_degree))
            if not (lhs_scalar.is_zero() and lhs_mod == rhs):
                failures.append((f"{a.label} * {b.label}",
                                 f"d(product) = {lhs_mod} + {lhs_scalar} vs {rhs}"))
    return CheckResult("hook product Leibniz", not failures,
                       f"{len(gens) ** 2} generator pairs", failures)
