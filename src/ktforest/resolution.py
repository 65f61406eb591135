"""Finite free resolutions of quotient rings and the homology oracle.

A resolution holds free modules in homological degrees -1 .. -L over a
polynomial ring, a differential raising degree by one on generators of
degree <= -2, and an augmentation sending degree -1 generators to the
ideal generators.  The differential plus augmentation must compose to zero;
exactness is verified per polynomial-degree slice by exact rank counts.

Koszul complexes on an arbitrary list of polynomials can be built
automatically; they carry their exterior multiplication table, which the
extension layer uses for hook comparisons.  Every Koszul sign of a
reordering, here and in `forest`, comes from the signed merge `_merge`.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (Combination, Poly, RingSpec, linear_system, matrix_rank, slice_basis,
                   slice_dim, solve_lift)


def parity_sign(n: int) -> int:
    """(-1)**n computed by parity, safe for negative integers."""
    return -1 if n % 2 else 1


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


def signed_sort(factors: Iterable, order) -> Tuple[Optional[tuple], int]:
    """Sort factors by `_merge`'s `order`, merging them in one at a time.

    Returns (sorted tuple, Koszul sign), or (None, 0) when an odd factor
    repeats; equal keys keep their order.
    """
    out, parity = (), 0
    for factor in factors:
        out, p = _merge(out, (factor,), order)
        if out is None:
            return None, 0
        parity ^= p
    return out, parity_sign(parity)


class GeneratorId(tuple):
    """A basis element of one free module (or of the positive part).

    `module_degree` is the homological degree of the module the generator
    belongs to: negative for resolution generators, positive for the
    generators of the graded symmetric algebra being extended.

    An id is the tuple (module_degree, index, label) and compares and
    hashes as that tuple, in C: generators sit at the leaves of every tree
    key and monomial, which hash through them.  The sort key `key` is
    computed once.  Ids are immutable.
    """

    def __new__(cls, module_degree: int, index: int, label: str):
        self = tuple.__new__(cls, (module_degree, index, label))
        object.__setattr__(self, "key", (abs(module_degree), index, label))
        return self

    module_degree = property(itemgetter(0))
    index = property(itemgetter(1))
    label = property(itemgetter(2))

    def __setattr__(self, name, value):
        raise AttributeError(f"GeneratorId is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GeneratorId is immutable: cannot delete {name!r}")

    def __repr__(self):
        return self.label


class ModuleElement(Combination):
    """A finite O-linear combination of resolution generators."""

    __slots__ = ()

    @staticmethod
    def of_gen(ring: RingSpec, gen: GeneratorId, coeff: Optional[Poly] = None) -> "ModuleElement":
        return ModuleElement(ring, {gen: coeff if coeff is not None else Poly.one(ring)})

    def scale(self, p) -> "ModuleElement":
        if not isinstance(p, Poly):
            p = Poly.const(self.ring, p)
        if p.is_zero():
            return ModuleElement.zero(self.ring)
        return ModuleElement(self.ring, {g: p * q for g, q in self.terms.items()})

    def _chunks(self) -> list:
        return [self.terms[g].times_chunk(g.label)
                for g in sorted(self.terms, key=lambda g: g.key)]


class ComplexReport:
    def __init__(self, passed: bool, failures: list):
        self.passed = passed
        self.failures = failures  # (generator, residue ModuleElement or Poly)

    def witness(self) -> str:
        if self.passed:
            return "d*d = 0 on every generator"
        g, res = self.failures[0]
        return f"d*d != 0 on {g.label}: residue {res}"


class HomologyReport:
    def __init__(self, graded: bool, exact: bool = True):
        self.graded = graded
        # (homological_degree, internal_degree) -> (dim_kernel, dim_image, dim_homology)
        self.dims: dict = {}
        self.exact = exact

    def failures(self) -> list:
        return [k for k, v in self.dims.items() if v[2] != 0]


class ResolutionError(ValueError):
    pass


class FreeResolution:
    """Free modules in degrees -1..-L with differential and augmentation."""

    def __init__(self, ring: RingSpec, gens_by_degree: Dict[int, Sequence[GeneratorId]],
                 diff: Dict[GeneratorId, ModuleElement], augment: Dict[GeneratorId, Poly]):
        self.ring = ring
        self.gens_by_degree = {d: tuple(gs) for d, gs in gens_by_degree.items()}
        self.diff = dict(diff)
        self.augment = dict(augment)
        self._tree_basis_cache: dict = {}
        self._monomial_basis_cache: dict = {}
        self._sorted_trees_cache: dict = {}
        self._weights: Optional[dict] = None
        self._validate()

    def _validate(self):
        degrees = sorted(self.gens_by_degree)
        if not degrees:
            raise ResolutionError("resolution has no modules")
        if degrees != list(range(-len(degrees), 0)):
            raise ResolutionError(f"module degrees must be -1..-L, got {degrees}")
        seen = set()
        for d, gens in self.gens_by_degree.items():
            for i, g in enumerate(gens):
                if g.module_degree != d or g.index != i:
                    raise ResolutionError(f"generator {g} inconsistent with its slot ({d},{i})")
                if (d, i) in seen:
                    raise ResolutionError(f"duplicate generator slot ({d},{i})")
                seen.add((d, i))
        for g in self.gens_by_degree[-1]:
            if g not in self.augment:
                raise ResolutionError(f"missing augmentation for {g.label}")
        for d in degrees:
            if d == -1:
                continue
            for g in self.gens_by_degree[d]:
                img = self.diff.get(g)
                if img is None:
                    raise ResolutionError(f"missing differential for {g.label}")
                for h in img.terms:
                    if h.module_degree != d + 1:
                        raise ResolutionError(
                            f"d({g.label}) must raise homological degree by 1")

    # -- structure ----------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.gens_by_degree)

    def generators(self, depth: int) -> Tuple[GeneratorId, ...]:
        """Generators of the module in homological degree -depth."""
        return self.gens_by_degree.get(-depth, ())

    def module_generators(self) -> List[GeneratorId]:
        """Every generator, by increasing depth."""
        return [g for depth in range(1, self.length + 1) for g in self.generators(depth)]

    def rank(self, depth: int) -> int:
        return len(self.generators(depth))

    @property
    def ranks(self) -> List[int]:
        return [self.rank(i) for i in range(1, self.length + 1)]

    def gen_by_label(self, label: str) -> GeneratorId:
        for gens in self.gens_by_degree.values():
            for g in gens:
                if g.label == label:
                    return g
        raise ResolutionError(f"unknown generator {label!r}")

    def ideal_generators(self) -> List[Poly]:
        return [self.augment[g] for g in self.gens_by_degree[-1]]

    # -- applying the differential -------------------------------------------

    def apply_diff(self, elem: ModuleElement) -> Tuple[ModuleElement, Poly]:
        """Apply d; returns the module-valued part and the O-valued part."""
        mod = ModuleElement.zero(self.ring)
        scalar = Poly.zero(self.ring)
        for g, p in elem.terms.items():
            if g.module_degree == -1:
                scalar = scalar + p * self.augment[g]
            else:
                mod = mod + self.diff[g].scale(p)
        return mod, scalar

    # -- d^2 = 0 --------------------------------------------------------------

    def check_complex(self) -> ComplexReport:
        failures = []
        for d in sorted(self.gens_by_degree):
            if d == -1:
                continue
            for g in self.gens_by_degree[d]:
                mod, scalar = self.apply_diff(self.diff[g])
                if not mod.is_zero():
                    failures.append((g, mod))
                elif not scalar.is_zero():
                    failures.append((g, scalar))
        return ComplexReport(passed=not failures, failures=failures)

    # -- internal grading ------------------------------------------------------

    def internal_weights(self) -> Optional[dict]:
        """Polynomial-degree weights making d degree-preserving, if they exist.

        A nonzero augmentation value fixes its generator's weight, and each
        term c*h of d(g) ties w(g) = deg c + w(h); a zero value constrains
        nothing.  Weights spread along the ties from the fixed generators,
        then from the first generator of each component that nothing fixes,
        which starts at 0.  A conflict, or a coefficient that is not
        homogeneous, leaves the resolution ungraded (None).
        """
        if self._weights is not None:
            return self._weights or None
        self._weights = {}  # ungraded, unless the walk below completes
        fixed: dict = {}
        ties: dict = {g: [] for g in self.module_generators()}  # g -> [(h, w(h) - w(g))]
        for g in self.gens_by_degree[-1]:
            phi = self.augment[g]
            if not phi.is_zero():
                if not phi.is_homogeneous():
                    return None
                fixed[g] = phi.total_degree()
        for depth in range(2, self.length + 1):
            for g in self.generators(depth):
                for h, c in self.diff[g].terms.items():
                    if not c.is_homogeneous():
                        return None
                    ties[g].append((h, -c.total_degree()))
                    ties[h].append((g, c.total_degree()))
        weights: dict = {}
        for start in list(fixed) + list(ties):
            if start in weights:
                continue
            weights[start] = fixed.get(start, 0)
            stack = [start]
            while stack:
                g = stack.pop()
                for h, shift in ties[g]:
                    w = weights[g] + shift
                    if h not in weights:
                        weights[h] = w
                        stack.append(h)
                    if weights[h] != w or fixed.get(h, w) != w:
                        return None
        self._weights = {g: weights[g] for g in ties}  # by depth
        return self._weights

    # -- the differential as Poly columns ----------------------------------------

    def _columns(self, depth: int) -> list:
        """d on the module of degree -depth, one Poly column per generator.

        Rows are the generators of degree -depth+1, or the single row O of
        the augmentation at depth 1.
        """
        gens = self.generators(depth)
        if depth == 1:
            return [[self.augment[g]] for g in gens]
        zero = Poly.zero(self.ring)
        return [[self.diff[g].terms.get(h, zero) for h in self.generators(depth - 1)]
                for g in gens]

    # -- exactness oracle -------------------------------------------------------

    def check_exactness(self, poly_degree_max: int) -> HomologyReport:
        """Slice-by-slice homology dimensions for degrees -1 .. -L (at -L, dim ker d_L).

        Requires an internal grading; exactness is only claimed through the
        verified polynomial-degree window, which starts at the lowest weight
        when a weight is negative.  On the slice of internal degree k, d on
        the module of degree -depth has the unknowns (j, m) with
        deg m = k - weight(g_j).
        """
        weights = self.internal_weights()
        if weights is None:
            return HomologyReport(graded=False, exact=False)
        report = HomologyReport(graded=True)
        ranks = {}  # (depth, k) -> (rank of d on the slice, source dimension)
        lowest = min(0, *weights.values())
        for depth in range(1, self.length + 1):
            columns = self._columns(depth)
            gens = self.generators(depth)
            for k in range(lowest, poly_degree_max + 1):
                unknowns = [(j, m) for j, g in enumerate(gens) if weights[g] <= k
                            for m in slice_basis(self.ring, k - weights[g])]
                system = linear_system(columns, unknowns)
                ranks[depth, k] = (matrix_rank(list(system.values())), len(unknowns))
        for (depth, k), (rank_d, n_src) in ranks.items():
            dim_ker = n_src - rank_d
            rank_up = ranks[depth + 1, k][0] if depth < self.length else 0
            h = dim_ker - rank_up
            report.dims[(-depth, k)] = (dim_ker, rank_up, h)
            if h != 0:
                report.exact = False
        return report

    # -- lifting through the differential ----------------------------------------

    def lift(self, target, source_depth: int):
        """Solve d(x) = target for x in the module of degree -source_depth.

        `target` is a ModuleElement (for source_depth >= 2) or a Poly (for
        source_depth == 1, where d is the augmentation).  Returns a
        ModuleElement or None.
        """
        gens = self.generators(source_depth)
        if not gens:
            return ModuleElement.zero(self.ring) if target.is_zero() else None
        if source_depth == 1:
            tvec = [target]
        else:
            zero = Poly.zero(self.ring)
            tvec = [target.terms.get(h, zero) for h in self.generators(source_depth - 1)]
        sol = solve_lift(self._columns(source_depth), tvec)
        if sol is None:
            return None
        return ModuleElement(self.ring, dict(zip(gens, sol)))


# ---------------------------------------------------------------------------
# Koszul complexes
# ---------------------------------------------------------------------------

class KoszulComplex(FreeResolution):
    """The Koszul complex of a polynomial sequence, with its product table."""

    def __init__(self, ring, gens_by_degree, diff, augment, subset_of_gen):
        self.subset_of_gen = dict(subset_of_gen)
        self.gen_of_subset = {s: g for g, s in subset_of_gen.items()}
        super().__init__(ring, gens_by_degree, diff, augment)

    def wedge_gens(self, *gens: GeneratorId) -> Optional[Tuple[int, GeneratorId]]:
        """Exterior product of generators, in order: (sign, generator) or None,
        the indices of their subsets sorted as odd factors by `signed_sort`."""
        indices, sign = signed_sort([i for g in gens for i in self.subset_of_gen[g]],
                                    lambda i: (i, 1))
        return None if indices is None else (sign, self.gen_of_subset[indices])


def build_koszul_complex(phis: Sequence[Poly]) -> KoszulComplex:
    """Koszul complex on n polynomials: ranks C(n,i), d a contraction.

    d(e_S) = sum_j (-1)^(j-1) phi_{s_j} e_{S minus s_j}; the augmentation sends
    e_i to phi_i, and e_S is labelled e followed by the indices in S.  d*d = 0
    holds for any input, regular sequence or not.
    """
    if not phis:
        raise ResolutionError("need at least one polynomial")
    ring = phis[0].ring
    n = len(phis)
    gens_by_degree: dict = {}
    subset_of_gen: dict = {}
    for size in range(1, n + 1):
        gens = []
        for idx, subset in enumerate(combinations(range(1, n + 1), size)):
            g = GeneratorId(-size, idx, "e" + "".join(map(str, subset)))
            gens.append(g)
            subset_of_gen[g] = subset
        gens_by_degree[-size] = gens
    gen_of_subset = {s: g for g, s in subset_of_gen.items()}
    diff: dict = {}
    augment: dict = {}
    for g, subset in subset_of_gen.items():
        if len(subset) == 1:
            augment[g] = phis[subset[0] - 1]
            continue
        img = ModuleElement.zero(ring)
        for j, elt in enumerate(subset):
            rest = subset[:j] + subset[j + 1:]
            coeff = phis[elt - 1].scale(parity_sign(j))
            img = img + ModuleElement.of_gen(ring, gen_of_subset[rest], coeff)
        diff[g] = img
    return KoszulComplex(ring, gens_by_degree, diff, augment, subset_of_gen)


# ---------------------------------------------------------------------------
# quotient-ring slice dimensions
# ---------------------------------------------------------------------------

def quotient_dims(ring: RingSpec, ideal_gens: Sequence[Poly], poly_degree_max: int) -> List[int]:
    """dim of each polynomial-degree slice of O / <ideal_gens>.

    For homogeneous generators the ideal has honest slices: slice k is O_k
    modulo the multiples phi * x^m with deg m = k - deg phi.  Otherwise the
    entries are the dimension increments of the filtration quotient
    O_{<=k} / (multiples phi * x^m with deg m <= k - deg phi, deg phi the
    highest degree of phi), the best degreewise data available below the cap.
    """
    if not ideal_gens or any(p.is_zero() for p in ideal_gens):
        raise ValueError("ideal generators must be nonzero")
    homogeneous = all(p.is_homogeneous() for p in ideal_gens)

    def window(top):  # monomial degrees through `top`: only `top` itself when graded
        return range(max(top, 0) if homogeneous else 0, top + 1)

    columns = [[phi] for phi in ideal_gens]
    dims = []
    for k in range(poly_degree_max + 1):
        unknowns = [(j, m) for j, phi in enumerate(ideal_gens)
                    for d in window(k - phi.total_degree()) for m in slice_basis(ring, d)]
        rank = matrix_rank(list(linear_system(columns, unknowns).values()))
        dims.append(sum(slice_dim(ring.num_vars, d) for d in window(k)) - rank)
    if homogeneous:
        return dims
    return [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]


def ideal_member(ring: RingSpec, ideal_gens: Sequence[Poly], p: Poly,
                 poly_degree_cap: Optional[int] = None) -> bool:
    """Exact ideal membership by lifting through the generator columns."""
    if p.is_zero():
        return True
    cap = poly_degree_cap
    if cap is None:
        cap = p.total_degree()
    return solve_lift([[g] for g in ideal_gens], [p], cap) is not None
