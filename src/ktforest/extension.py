"""Extending a positively graded differential to the full graded algebra.

The input is a square-zero degree +1 derivation on a symmetric algebra of
positive generators over the polynomial ring, preserving the ideal resolved
by the negative part.  The output is a total differential on the whole
algebra: the tree differential at negative-degree level -1, the given
derivation on the positive part, and solved corrections in one table keyed
by (level, source): on module generators, valued in (module x positives)
of the forced bidegree; on basis trees, hook corrections entering the same
tree formula that the level -1 differential uses; and where Q^2 != 0 on O,
on variables and positive generators above level 0.

Every source, a variable, a positive or module generator or a basis tree,
gets one step: its level-k value is a preimage under the level -1
differential of the element that Q^2 = 0 forces, the homotopy part plus an
exact lift of the projection (`_closed_preimage`).  Square-zero of the
total differential is then verified degree by degree.  A second, general
mode needs Q^2 = 0 only modulo the ideal, not on the polynomial ring O;
it still needs the ideal preserved, or level 0 has no lift.  Both modes
read trees by the tree formula, except where Q^2 != 0 on O: there Q on a
tree is the step itself, on demand.  The Koszul comparison (`koszul_mode`)
solves nothing: given the exterior-product hook and level tables on the
depth-1 generators, it extends the tables through the hook product, and
the same verifiers check the result.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .forest import (AlgebraElement, Node, accumulate, add_element, add_tree_formula,
                     apply_derivation, collect, enumerate_tree_basis, is_leaf, join_sums, leaf,
                     module_generator, node, parity_sign, sum_elements, sums_to_zero, tree_str)
from .kt import (CheckResult, HookMap, SolveError, _retract_failures, homotopy, hook_product,
                 lift_delta_preimage, project_to_resolution, residue, seeded,
                 two_leaf_product)
from .poly import Poly, RingSpec
from .resolution import FreeResolution, GeneratorId, KoszulComplex, ideal_member


# ---------------------------------------------------------------------------
# the positive part
# ---------------------------------------------------------------------------

def _derivative_of_coeff(ring: RingSpec, c: Poly, images) -> AlgebraElement:
    """The sum of dc/dx_j times image over the (j, image) pairs, in place."""
    partials: dict = {}
    acc: dict = {}
    for j, image in images:
        dc = partials.get(j)
        if dc is None:
            dc = partials[j] = c.partial(j).terms
        if dc:
            for mono, v in image.terms.items():
                accumulate(acc, mono, v.terms, 1, dc)
    return collect(ring, acc)


class PositivePart:
    """Positive generators with a degree +1 derivation on their algebra.

    `q_on_vars` gives the derivation on ring variables (index -> element of
    the positive algebra of degree +1); `q_on_gens` gives it on each
    generator.  Images must live in the positive algebra: no tree factors.
    """

    def __init__(self, ring: RingSpec, gens: Sequence[GeneratorId],
                 q_on_vars: Dict[int, AlgebraElement],
                 q_on_gens: Dict[GeneratorId, AlgebraElement]):
        self.ring = ring
        self.gens = tuple(gens)
        self.q_on_vars = dict(q_on_vars)
        self.q_on_gens = dict(q_on_gens)
        self._validate()

    def _validate(self):
        seen = set()
        for g in self.gens:
            if g.module_degree < 1:
                raise ValueError(f"positive generator {g.label} must have positive degree")
            if g.label in seen:
                raise ValueError(f"duplicate positive generator {g.label}")
            seen.add(g.label)
        for j, img in self.q_on_vars.items():
            self._check_image(img, expected_degree=1, what=f"image of variable {j}")
        for g in self.gens:
            img = self.q_on_gens.get(g)
            if img is None:
                raise ValueError(f"missing derivation image for {g.label}")
            self._check_image(img, expected_degree=g.module_degree + 1,
                              what=f"image of {g.label}")

    def _check_image(self, img: AlgebraElement, expected_degree: int, what: str):
        for (trees, pos), _c in img.terms.items():
            if trees:
                raise ValueError(f"{what} must stay in the positive algebra")
            if sum(g.module_degree for g in pos) != expected_degree:
                raise ValueError(f"{what} has a component of the wrong degree")

    def qplus_poly(self, p: Poly) -> AlgebraElement:
        return _derivative_of_coeff(self.ring, p, self.q_on_vars.items())

    def qplus(self, elem: AlgebraElement) -> AlgebraElement:
        def on_tree(_node):
            raise ValueError("positive derivation applied to a tree factor")

        return apply_derivation(elem, on_tree,
                                on_positive=lambda g: self.q_on_gens[g],
                                on_coeff=self.qplus_poly)

    def _squares(self):
        """(source, Q^2 of it) for each variable and generator where it is nonzero."""
        sources = [(f"variable {self.ring.names[j]}", self.q_on_vars[j])
                   for j in sorted(self.q_on_vars)]
        sources += [(g.label, self.q_on_gens[g]) for g in self.gens]
        for source, image in sources:
            square = self.qplus(image)
            if not square.is_zero():
                yield source, square

    def square_issues(self) -> List[str]:
        """Where the derivation fails to square to zero on the nose."""
        return [f"square on {source}: {square}" for source, square in self._squares()]

    def square_in_ideal(self, ideal: Sequence[Poly]) -> List[str]:
        """Variables and generators whose squared image leaves the ideal
        (the general-mode gate)."""
        return [f"square on {source} has coefficient {c} outside the ideal"
                for source, square in self._squares() for c in square.terms.values()
                if not ideal_member(self.ring, ideal, c)]

    def slice_nonempty(self, degree: int) -> bool:
        """Whether the positive algebra has monomials of the given degree."""
        reachable = {0}  # degrees of monomials through `degree`
        for g in self.gens:
            d = g.module_degree
            # an odd generator squares to zero
            powers = range(d, d + 1) if d % 2 else range(d, degree + 1, d)
            reachable |= {a + p for a in reachable for p in powers if a + p <= degree}
        return degree in reachable


def check_ideal_preserved(pos: PositivePart, ideal: Sequence[Poly],
                          poly_cap: Optional[int] = None) -> CheckResult:
    """Membership of the derivative of each ideal generator in the ideal."""
    failures = []
    for phi in ideal:
        image = pos.qplus_poly(phi)
        for (_trees, ptuple), c in image.terms.items():
            if not ideal_member(pos.ring, ideal, c, poly_cap):
                labels = "*".join(g.label for g in ptuple)
                failures.append((str(phi), f"component {c}*{labels} not in the ideal"))
    return CheckResult("ideal preservation", not failures,
                       f"{len(ideal)} ideal generators", failures)


# ---------------------------------------------------------------------------
# the extension data and its evaluator
# ---------------------------------------------------------------------------

class ExtensionData:
    """Solved correction tables plus the evaluator for the total differential.

    Every solved value sits in one table, `tables[(level, source)]`, where a
    source is a ring variable's index, a module or positive generator, or an
    inner tree; absent entries are zero, and level 0 on a positive is the
    input derivation.  A tree's entry is the negated module part of its step.
    Q is the sum of its levels: level -1 is the hook's tree differential,
    and level k >= 0 reads the level-k tables.  On a tree, level k is the
    tree formula over the tree entries that the tree step (`_solve_tree`)
    fills, or with `by_step` set (Q^2 != 0 on O) the step itself.  One
    evaluator, `q_level_on_tree`, gives Q summed over a range of levels
    >= 0; `apply_level(k)` runs it on levels k..k, and `apply` on levels
    0..level_max beside level -1.
    """

    def __init__(self, res: FreeResolution, pos: PositivePart, hook: HookMap):
        self.res = res
        self.pos = pos
        self.hook = hook
        self.by_step = False  # Q on trees by the tree step, not the tree formula
        self.tables: Dict[Tuple[int, object], AlgebraElement] = {}
        self.level_max = -1
        self._zero = AlgebraElement.zero(res.ring)  # every absent table entry
        # images of Q summed over a range of levels >= 0, by source (a tree,
        # a leaf or a positive generator) and then by range
        self._tree_memo: Dict[object, Dict[range, AlgebraElement]] = {}

    # -- the tables of one level >= 0 ----------------------------------------

    def q_level_on_gen(self, k: int, g: GeneratorId) -> AlgebraElement:
        if k == 0 and g.module_degree > 0:
            return self.pos.q_on_gens[g]
        return self.tables.get((k, g), self._zero)

    def chi_level(self, k: int, node: Node) -> AlgebraElement:
        """The hook correction of a tree at level k; level -1 is the hook."""
        if k == -1:
            return self.hook.element(node)
        return self.tables.get((k, node), self._zero)

    def chi_levels(self, levels: range, node: Node) -> AlgebraElement:
        """The hook corrections of a tree summed over `levels`."""
        return sum_elements(self.res.ring, (self.chi_level(k, node) for k in levels))

    def q_level_on_coeff(self, levels: range, c: Poly) -> AlgebraElement:
        """Q summed over `levels` on a coefficient (`_derivative_of_coeff`).

        The variables' images are read from `pos.q_on_vars` and `tables` on
        every call: general mode writes their entries level by level.
        """
        n, tables = self.res.ring.num_vars, self.tables
        images = list(self.pos.q_on_vars.items()) if 0 in levels else []
        images += [(j, tables[k, j]) for k in levels if k for j in range(n) if (k, j) in tables]
        return _derivative_of_coeff(self.res.ring, c, images)

    # -- Q summed over a range of levels >= 0 ------------------------------------

    def q_level_on_tree(self, levels: range, source) -> AlgebraElement:
        """Q summed over `levels` on a tree, a leaf or a positive generator,
        memoized by source and then by range."""
        images = self._tree_memo.setdefault(source, {})
        image = images.get(levels)
        if image is None:
            image = images[levels] = self._image(levels, source)
        return image

    def _image(self, levels: range, source) -> AlgebraElement:
        ring = self.res.ring
        if isinstance(source, GeneratorId) or is_leaf(source):
            g = source[1] if is_leaf(source) else source
            return sum_elements(ring, (self.q_level_on_gen(k, g) for k in levels))
        if not self.by_step:
            return self._tree_formula(levels, source)
        if len(levels) != 1:
            return sum_elements(ring, (self.q_level_on_tree(range(k, k + 1), source)
                                       for k in levels))
        return _solve_tree(self, levels[0], source)

    def _tree_formula(self, levels: range, node: Node) -> AlgebraElement:
        """The tree formula over the children's images, for all `levels` at once."""
        acc: dict = {}
        add_tree_formula(acc, node, partial(self.q_level_on_tree, levels),
                         partial(self.chi_levels, levels))
        return collect(self.res.ring, acc)

    # -- assembled operators ------------------------------------------------------

    def apply_level(self, k: int, elem: AlgebraElement, acc: Optional[dict] = None,
                    sign: int = 1) -> AlgebraElement:
        """The level-k piece of Q; level -1 is the hook's tree differential."""
        if k == -1:
            return self.hook.differential().apply(elem, acc, sign)
        return self._apply_levels(range(k, k + 1), elem, None, acc, sign)

    def apply(self, elem: AlgebraElement, acc: Optional[dict] = None) -> AlgebraElement:
        """The total differential in one Leibniz pass.

        Each tree factor gets its level -1 image, from the hook's evaluator,
        and its image summed over levels 0..level_max; positive factors and
        coefficients get their images summed over those levels.  `acc` is
        that of `apply_derivation`, here and in `apply_level`, which also
        takes its `sign`.
        """
        return self._apply_levels(range(0, self.level_max + 1), elem,
                                  self.hook.differential().on_tree, acc)

    def _apply_levels(self, levels: range, elem: AlgebraElement,
                      delta: Optional[Callable[[Node], AlgebraElement]] = None,
                      acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
        """Q summed over `levels` by the Leibniz rule, plus the tree images `delta`."""
        image = partial(self.q_level_on_tree, levels)
        return apply_derivation(elem, delta or image, image,
                                partial(self.q_level_on_coeff, levels),
                                on_tree_extra=image if delta else None, acc=acc, sign=sign)

    # -- reporting -------------------------------------------------------------------

    def label(self, source) -> str:
        """The name of a source: a variable, a generator or a tree."""
        if isinstance(source, int):
            return self.res.ring.names[source]
        return source.label if isinstance(source, GeneratorId) else tree_str(source)

    def residue_records(self) -> List[dict]:
        """Nonzero table entries as {level, source, value} records."""
        return sorted(({"level": k, "source": self.label(s), "value": str(val)}
                       for (k, s), val in self.tables.items() if not val.is_zero()),
                      key=lambda r: (r["level"], r["source"]))


# ---------------------------------------------------------------------------
# the finite tables of one level
# ---------------------------------------------------------------------------

def _closed_element(ext: ExtensionData, k: int, x: AlgebraElement) -> AlgebraElement:
    """-Q_k(delta x) - sum_{m<k} Q_m Q_{k-1-m}(x), the value Q^2 = 0 forces
    on delta Q_k(x); it reads level k only on delta x."""
    acc: dict = {}
    for m in range(k + 1):
        ext.apply_level(m, ext.apply_level(k - 1 - m, x), acc, -1)
    return collect(ext.res.ring, acc)


def _closed_preimage(ext: ExtensionData, closed: AlgebraElement) -> Optional[AlgebraElement]:
    """A preimage of a closed element under the level -1 differential.

    Splits as homotopy part, which holds only joined trees, plus a lifted
    projection part in module x positives; returns None when the projected
    part cannot be lifted.
    """
    h_part = homotopy(closed)
    projected = project_to_resolution(ext.hook.element, closed, h_part)
    lifted = lift_delta_preimage(ext.res, projected)
    if lifted is None:
        return None
    return h_part + lifted


def _solve_finite_tables(ext: ExtensionData, k: int):
    """Solve level k on the ring variables and positive generators, then on
    the module generators by increasing depth.

    Each value is `_closed_preimage` of the source's closed element; delta
    of a leaf has no tree factor, so none of these reads a tree at level k.
    Level 0 on variables and positives is the input.  Above it their tables
    vanish unless the positive derivation fails to square to zero on the
    nose, so they are solved only when `ext.by_step` says it does.
    """
    res, ring = ext.res, ext.res.ring
    sources = []
    if k >= 1 and ext.by_step:
        sources += [(f"variable level {k}", j, AlgebraElement.scalar(Poly.variable(ring, j)))
                    for j in range(ring.num_vars)]
        sources += [(f"positive-generator level {k}", g, AlgebraElement.from_positive(ring, g))
                    for g in ext.pos.gens]
    sources += [(f"residue level {k}", g, AlgebraElement.from_tree(ring, leaf(g)))
                for g in res.module_generators()]
    for stage, source, x in sources:
        closed = _closed_element(ext, k, x)
        value = _closed_preimage(ext, closed)
        if value is None:
            raise SolveError(stage, ext.label(source),
                             "no preimage under the resolution differential")
        if isinstance(source, GeneratorId) and source.module_degree < 0:
            # a module generator: Q^2 = 0 on x at level k, delta gives back `closed`
            delta = ext.apply_level(-1, value)
            if delta != closed:
                raise SolveError(f"level {k} consistency", ext.label(source),
                                 f"square residue {delta - closed}")
        if not value.is_zero():
            ext.tables[(k, source)] = value


def _solve_tree(ext: ExtensionData, k: int, node: Node) -> AlgebraElement:
    """Q_k on a tree by `_closed_preimage`, the step every source gets.

    The module part of the value, negated, is the table entry `ext.tables[(k, t)]`,
    which the tree formula subtracts at the root; past degree length - k
    there is no module to land in.
    """
    x = AlgebraElement.from_tree(ext.res.ring, node)
    value = _closed_preimage(ext, _closed_element(ext, k, x))
    if value is None:
        raise SolveError(f"residue level {k}", tree_str(node),
                         "no preimage under the resolution differential")
    entry = -value.project_module()
    if not entry.is_zero():
        ext.tables[(k, node)] = entry
    return value


def _solve_level_on_trees(ext: ExtensionData, k: int):
    """Run the tree step on the basis trees of degree 3..length - k, at any K.

    Trees are evaluated by the tree formula, which must reproduce the step's
    value exactly.  With `ext.by_step` set, Q on a tree is the step itself,
    run here through its memo.
    """
    if not ext.pos.slice_nonempty(k + 1):
        return
    level = range(k, k + 1)
    for degree in range(3, ext.res.length - k + 1):
        for node in enumerate_tree_basis(ext.res, degree):
            if is_leaf(node):
                continue
            if ext.by_step:
                ext.q_level_on_tree(level, node)
                continue
            value = _solve_tree(ext, k, node)
            formula = ext.q_level_on_tree(level, node)
            if formula != value:
                raise SolveError(f"residue level {k}", tree_str(node),
                                 f"the tree formula gives {formula}, the step {value}")


# ---------------------------------------------------------------------------
# the solvers: an input gate, then one level loop
# ---------------------------------------------------------------------------

def solve_residues_explicit(res: FreeResolution, pos: PositivePart, hook: HookMap,
                            neg_degree_max: int) -> ExtensionData:
    """Solve the correction tables of the ideal-preserving extension.

    The positive derivation must square to zero on the nose; levels run
    from 0 through min(length - 1, K) (`_solve_levels`).  The caller gates
    the input with `check_ideal_preserved` (as `cli.run` does); the solver
    does not.
    """
    issues = pos.square_issues()
    if issues:
        raise SolveError("positive input", issues[0],
                         "positive differential must square to zero; "
                         "use the general mode for quotient lifts")
    return _solve_levels(res, pos, hook, min(res.length - 1, neg_degree_max), by_step=False)


def solve_general_extension(res: FreeResolution, pos: PositivePart, hook: HookMap,
                            neg_degree_max: int) -> ExtensionData:
    """Solve the extension when the derivation squares to zero modulo the ideal.

    Levels run from 0 through min(length, K) (`_solve_levels`).  Only where
    Q^2 != 0 on O do the variables and positive generators get tables above
    level 0, and Q on a tree is the tree step, memoized and run on demand.
    """
    issues = pos.square_in_ideal(res.ideal_generators())
    if issues:
        raise SolveError("positive input", issues[0],
                         "squared derivation leaves the ideal")
    return _solve_levels(res, pos, hook, min(res.length, neg_degree_max),
                         by_step=bool(pos.square_issues()))


def _solve_levels(res: FreeResolution, pos: PositivePart, hook: HookMap, top: int,
                  by_step: bool) -> ExtensionData:
    """Levels 0..top: the finite tables (`_solve_finite_tables`), which
    assert square-zero on every module generator, then the tree tables
    (`_solve_level_on_trees`)."""
    ext = ExtensionData(res, pos, hook)
    ext.by_step = by_step
    for k in range(0, top + 1):
        _solve_finite_tables(ext, k)
        _solve_level_on_trees(ext, k)
        ext.level_max = k
    return ext


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_extension(ext: ExtensionData, neg_degree_max: int) -> CheckResult:
    """Square-zero on variables, positive and module generators, and trees.

    Q = delta + Q+, with Q+ summed over levels 0..level_max, so Q Q x is
    delta delta x, which the evaluator keeps (`square_residue`), plus
    Q+ delta x + Q Q+ x.  Variables and positives have delta x = 0.  Also
    asserts the containment of module-generator images in
    (module x positives) + positives.
    """
    ring = ext.res.ring
    gens = ext.res.module_generators()
    delta = ext.hook.differential()
    levels = range(0, ext.level_max + 1)
    sources = [*range(ring.num_vars), *ext.pos.gens, *map(leaf, gens)]
    sources += [t for degree in range(3, neg_degree_max + 1)
                for t in enumerate_tree_basis(ext.res, degree) if not is_leaf(t)]

    def square(source) -> Optional[AlgebraElement]:
        if isinstance(source, Node):
            acc, qx = seeded(delta.square_residue(source)), ext.q_level_on_tree(levels, source)
            ext._apply_levels(levels, delta.on_tree(source), acc=acc)
        else:  # a variable or a positive generator: delta x = 0
            x = (AlgebraElement.from_positive(ring, source) if isinstance(source, GeneratorId)
                 else AlgebraElement.scalar(Poly.variable(ring, source)))
            acc, qx = {}, ext._apply_levels(levels, x)
        ext.apply(qx, acc)
        return residue(ring, acc)

    failures = [(ext.label(s), f"square residue {r}")
                for s in sources for r in (square(s),) if r is not None]
    # delta of a generator is module- or scalar-valued, so Q of it leaves
    # module x positives where its image summed over levels >= 0 does
    failures += [(g.label, "image leaves module x positives") for g in gens
                 if not ext.q_level_on_tree(levels, leaf(g)).has_only_module_and_scalar()]
    checked = f"{len(sources)} sources, trees through negative degree {neg_degree_max}"
    return CheckResult("total differential square zero", not failures, checked, failures)


# ---------------------------------------------------------------------------
# inclusion / projection homotopy equivalence
# ---------------------------------------------------------------------------

def verify_incl_proj(ext: ExtensionData, neg_degree_max: int) -> CheckResult:
    """The chain homotopy equivalence between the algebra and its core.

    Checks Proj Incl = Id, Incl Proj = Id - (h Q + Q h), and the side
    relation h Incl = 0 on the monomial basis.  The side relations h h = 0
    and Proj h = 0 hold by construction, since h of a basis monomial is a
    sum of single joined trees; a test checks that on every bundled spec.
    The projection reads the hook and every tree table.  Q reads the same
    tables through the tree formula, or with `by_step` set, Q on a tree is
    the tree step, whose module part is the negated table entry.  So the
    identities check the evaluator against the projection, not the solved
    values (`verify_extension` checks those).
    """
    ring, one = ext.res.ring, Poly.one(ext.res.ring)
    delta = ext.hook.differential()
    levels = range(0, ext.level_max + 1)
    # the hook plus every correction table
    hook_value = partial(ext.chi_levels, range(-1, ext.level_max + 1))

    def incl_proj(mono, neg_degree_max) -> Optional[AlgebraElement]:
        """delta's retract residue (`retract_residue`) plus Q+ h x + h Q+ x,
        and the joins h x through `hook_value` less those through the hook,
        which the residue holds: the correction tables, and any difference
        between the hook the projection reads and delta's.  h x is the joined
        tree, and h Q+ x is joined from Q+ x's sums (`join_sums`)."""
        acc = seeded(delta.retract_residue(mono, neg_degree_max))
        join_sums(ext._apply_levels(levels, AlgebraElement._of(ring, {mono: one}), acc={}), acc)
        if len(mono[0]) > 1:
            joined = node(mono[0])
            add_element(acc, ext.q_level_on_tree(levels, joined))
            add_element(acc, hook_value(joined))
            add_element(acc, ext.hook.element(joined), -1)
        return residue(ring, acc)

    count, failures = _retract_failures(ext.res, neg_degree_max, incl_proj,
                                        "Incl Proj mismatch: ")
    # Proj Incl = Id on core monomials: trivial tree and pure positive samples
    core = [(g.label, AlgebraElement.from_tree(ring, leaf(g)))
            for g in ext.res.module_generators()]
    core += [(g.label, AlgebraElement.from_positive(ring, g)) for g in ext.pos.gens]
    for label, x in core:
        if project_to_resolution(hook_value, x) != x:
            failures.append((label, "Proj Incl != Id"))
        if not homotopy(x).is_zero():
            failures.append((label, "h Incl != 0"))
    count += len(core)
    return CheckResult("inclusion/projection homotopy", not failures,
                       f"{count} monomials through negative degree {neg_degree_max}",
                       failures)


# ---------------------------------------------------------------------------
# higher products
# ---------------------------------------------------------------------------

def higher_product(ext: ExtensionData, a: AlgebraElement, b: AlgebraElement,
                   k: int, acc: Optional[dict] = None, sign: int = 1) -> AlgebraElement:
    """The level-k binary product read off the hook corrections.

    Level 0 is the product of the plain hook; level k >= 1 reads the level
    (k-1) correction table on two-leaf trees.  Operands are (module x
    positives)-valued; `acc` and `sign` are those of `two_leaf_product`.
    """
    return two_leaf_product(a, b, partial(ext.chi_level, k - 1), acc, sign)


def verify_product_defect(ext: ExtensionData, k: int) -> CheckResult:
    """The level-k product measures the failure of the lower-level Leibniz rules.

    For module generators a (depth i) and b (depth j):
      delta(a *_k b) - [i>=2] d(a) *_k b - (-1)^i [j>=2] a *_k d(b)
        = sum over m+n=k-1 of
          -(Q_m)(a *_n b) + (Q_m)(a) *_n b + (-1)^i a *_n (Q_m)(b),
    scalar-valued differentials dropping out of the product.  d(a) is read
    from the hook's evaluator, which is d on trivial trees.
    """
    ring = ext.res.ring
    failures = []
    gens = ext.res.module_generators()
    d = ext.hook.differential().leaf_value
    unit = {g: AlgebraElement.from_tree(ring, leaf(g)) for g in gens}
    for a in gens:
        for b in gens:
            i = -a.module_degree
            ea, eb = unit[a], unit[b]
            # lhs - rhs, both sides added into one accumulator
            residue = ext.apply_level(-1, higher_product(ext, ea, eb, k), {})
            if a.module_degree <= -2:
                higher_product(ext, d(a), eb, k, residue, -1)
            if b.module_degree <= -2:
                higher_product(ext, ea, d(b), k, residue, -parity_sign(i))
            for m in range(0, k):
                n = k - 1 - m
                ext.apply_level(m, higher_product(ext, ea, eb, n), residue)
                higher_product(ext, ext.q_level_on_gen(m, a), eb, n, residue, -1)
                higher_product(ext, ea, ext.q_level_on_gen(m, b), n, residue, -parity_sign(i))
            if not sums_to_zero(residue):
                failures.append((f"{a.label} *_{k} {b.label}",
                                 f"defect mismatch: {collect(ring, residue)}"))
    return CheckResult(f"level-{k} product defect", not failures,
                       f"{len(gens) ** 2} generator pairs", failures)


# ---------------------------------------------------------------------------
# Koszul-complex comparison mode
# ---------------------------------------------------------------------------

def _exterior(kres: KoszulComplex, *gens: GeneratorId) -> AlgebraElement:
    """The exterior product of generators, in order (`wedge_gens`), on a trivial tree."""
    product = kres.wedge_gens(*gens)
    if product is None:
        return AlgebraElement.zero(kres.ring)
    return AlgebraElement.from_tree(kres.ring, leaf(product[1]),
                                    Poly.const(kres.ring, product[0]))


def koszul_hook(kres: KoszulComplex) -> HookMap:
    """The hook determined by the exterior product: nonzero only on corollas.

    On a corolla of leaves of depths d_i the product lands at depth
    sum d_i, which is at most the length, so every entry sits on a tree of
    degree at most length + 1: the walk stops there, at any truncation.
    """
    table = {}
    for degree in range(3, kres.length + 2):
        for node in enumerate_tree_basis(kres, degree):
            if is_leaf(node) or any(not is_leaf(c) for c in node[1]):
                continue
            value = _exterior(kres, *(child[1] for child in node[1]))
            if value:
                table[node] = value
    return HookMap(kres, table)


def koszul_mode(kres: KoszulComplex, pos: PositivePart, hook: HookMap,
                qk_tables: Dict[int, Dict[GeneratorId, AlgebraElement]]
                ) -> Tuple[ExtensionData, CheckResult]:
    """Ingest a differential given on the Koszul generators and compare.

    `hook` is the exterior product on corollas (`koszul_hook`), checked by
    the caller like any given table.  Each level table on the depth-1
    generators extends to every generator, by increasing depth, through the
    hook product: with e_S = e_s e_rest, s the first index of S,
    Q_k e_S = Q_k(e_s) e_rest - e_s Q_k(e_rest).  The hook corrections of
    nonnegative level all vanish.  The comparison checks that the hook
    product is the exterior product on every pair of generators.
    """
    ring = kres.ring
    ext = ExtensionData(kres, pos, hook)
    gens = kres.module_generators()
    unit = {g: AlgebraElement.from_tree(ring, leaf(g)) for g in gens}
    for k, table in sorted(qk_tables.items()):
        for g in gens:
            subset = kres.subset_of_gen[g]
            if len(subset) == 1:
                value = table.get(g)
                if value and any(module_generator(m) is None for m in value.terms):
                    raise ValueError(f"Q{k} {g.label} is not one generator times positives")
            else:
                first, rest = (kres.gen_of_subset[part] for part in (subset[:1], subset[1:]))
                acc: dict = {}
                two_leaf_product(ext.q_level_on_gen(k, first), unit[rest], hook.element, acc)
                two_leaf_product(unit[first], ext.q_level_on_gen(k, rest), hook.element, acc, -1)
                value = collect(ring, acc)
            if value:
                ext.tables[(k, g)] = value
        ext.level_max = max(ext.level_max, k)
    failures = [(f"{a.label} * {b.label}", "hook product differs from the exterior product")
                for a in gens for b in gens
                if hook_product(hook, unit[a], unit[b]) != _exterior(kres, a, b)]
    report = CheckResult("koszul comparison", not failures,
                         f"{len(gens) ** 2} generator pairs", failures)
    return ext, report
