"""Finite free resolutions of quotient rings and the homology oracle.

A resolution holds free modules in homological degrees -1 .. -L over a
polynomial ring, a differential raising degree by one on generators of
degree <= -2, and an augmentation sending degree -1 generators to the
ideal generators.  The differential plus augmentation must compose to zero;
exactness is verified per polynomial-degree slice by exact rank counts.

Koszul complexes on an arbitrary list of polynomials can be built
automatically; they carry their exterior multiplication table, which the
extension layer uses for hook comparisons.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (Poly, RingSpec, linear_system, matrix_rank, slice_basis, slice_dim,
                   solve_lift)


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


class ModuleElement:
    """A finite O-linear combination of resolution generators."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Optional[dict] = None):
        self.ring = ring
        self.terms = {g: p for g, p in (terms or {}).items() if not p.is_zero()}

    @staticmethod
    def zero(ring: RingSpec) -> "ModuleElement":
        return ModuleElement(ring, {})

    @staticmethod
    def of_gen(ring: RingSpec, gen: GeneratorId, coeff: Optional[Poly] = None) -> "ModuleElement":
        return ModuleElement(ring, {gen: coeff if coeff is not None else Poly.const(ring, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for g, p in other.terms.items():
            s = out.get(g, Poly.zero(self.ring)) + p
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
        return ModuleElement(self.ring, out)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.ring, {g: -p for g, p in self.terms.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, p) -> "ModuleElement":
        if not isinstance(p, Poly):
            p = Poly.const(self.ring, p)
        if p.is_zero():
            return ModuleElement.zero(self.ring)
        return ModuleElement(self.ring, {g: p * q for g, q in self.terms.items()})

    def degrees(self) -> set:
        return {g.module_degree for g in self.terms}

    def __eq__(self, other):
        return isinstance(other, ModuleElement) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for g in sorted(self.terms, key=lambda g: g.key):
            p = self.terms[g]
            if len(p.terms) > 1:
                body = f"({p})*{g.label}"
                sign = "+"
            else:
                text = str(p)
                if text.startswith("-"):
                    sign, text = "-", text[1:]
                else:
                    sign = "+"
                body = g.label if text == "1" else f"{text}*{g.label}"
            chunks.append((sign, body))
        out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"ModuleElement({self})"


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
    def __init__(self, graded: bool, poly_degree_max: int, dims: Optional[dict] = None,
                 exact: bool = True):
        self.graded = graded
        self.poly_degree_max = poly_degree_max
        # (homological_degree, internal_degree) -> (dim_kernel, dim_image, dim_homology)
        self.dims = {} if dims is None else dims
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
        """Polynomial-degree weights making d degree-preserving, if they exist."""
        if self._weights is not None:
            return self._weights or None
        weights: dict = {}
        for g in self.gens_by_degree[-1]:
            phi = self.augment[g]
            if phi.is_zero() or not phi.is_homogeneous():
                self._weights = {}
                return None
            weights[g] = phi.total_degree()
        for depth in range(2, self.length + 1):
            for g in self.generators(depth):
                w = None
                for h, c in self.diff[g].terms.items():
                    if not c.is_homogeneous():
                        self._weights = {}
                        return None
                    candidate = c.total_degree() + weights[h]
                    if w is None:
                        w = candidate
                    elif w != candidate:
                        self._weights = {}
                        return None
                if w is None:
                    self._weights = {}
                    return None
                weights[g] = w
        self._weights = weights
        return weights

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
        """Slice-by-slice homology dimensions for degrees -1 .. -(L-1).

        Requires an internal grading; exactness is only claimed through the
        verified polynomial-degree window.  On the slice of internal degree
        k, d on the module of degree -depth has the unknowns (j, m) with
        deg m = k - weight(g_j).
        """
        weights = self.internal_weights()
        if weights is None:
            return HomologyReport(graded=False, poly_degree_max=poly_degree_max,
                                  dims={}, exact=False)
        report = HomologyReport(graded=True, poly_degree_max=poly_degree_max)
        ranks = {}  # (depth, k) -> (rank of d on the slice, source dimension)
        for depth in range(1, self.length + 1):
            columns = self._columns(depth)
            gens = self.generators(depth)
            for k in range(poly_degree_max + 1):
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

    def wedge_gens(self, a: GeneratorId, b: GeneratorId):
        """Exterior product of two generators: (sign, generator) or None."""
        sa, sb = self.subset_of_gen[a], self.subset_of_gen[b]
        if set(sa) & set(sb):
            return None
        # sorting sa + sb passes each b of sb past the larger a of sa
        inversions = sum(1 for a in sa for b in sb if b < a)
        return (-1) ** inversions, self.gen_of_subset[tuple(sorted(sa + sb))]

    def wedge(self, a, b):
        """Product of module elements (Poly operands act as scalars)."""
        if isinstance(a, Poly) and isinstance(b, Poly):
            return a * b
        if isinstance(a, Poly):
            return b.scale(a)
        if isinstance(b, Poly):
            return a.scale(b)
        out = ModuleElement.zero(self.ring)
        for g, p in a.terms.items():
            for h, q in b.terms.items():
                w = self.wedge_gens(g, h)
                if w is None:
                    continue
                sign, gen = w
                out = out + ModuleElement.of_gen(self.ring, gen, (p * q).scale(sign))
        return out


def build_koszul_complex(phis: Sequence[Poly], labels: Optional[Sequence[str]] = None) -> KoszulComplex:
    """Koszul complex on n polynomials: ranks C(n,i), d a contraction.

    d(e_S) = sum_j (-1)^(j-1) phi_{s_j} e_{S minus s_j}; the augmentation sends
    e_i to phi_i.  d*d = 0 holds for any input, regular sequence or not.
    """
    if not phis:
        raise ResolutionError("need at least one polynomial")
    ring = phis[0].ring
    n = len(phis)
    if labels is None:
        labels = [f"e{i + 1}" for i in range(n)]
    gens_by_degree: dict = {}
    subset_of_gen: dict = {}
    gen_of_subset: dict = {}
    for size in range(1, n + 1):
        gens = []
        for idx, subset in enumerate(combinations(range(1, n + 1), size)):
            if size == 1:
                label = labels[subset[0] - 1]
            else:
                label = "e" + "".join(str(i) for i in subset)
            g = GeneratorId(-size, idx, label)
            gens.append(g)
            subset_of_gen[g] = subset
            gen_of_subset[subset] = g
        gens_by_degree[-size] = gens
    diff: dict = {}
    augment: dict = {}
    for g, subset in subset_of_gen.items():
        if len(subset) == 1:
            augment[g] = phis[subset[0] - 1]
            continue
        img = ModuleElement.zero(ring)
        for j, elt in enumerate(subset):
            rest = subset[:j] + subset[j + 1:]
            coeff = phis[elt - 1].scale((-1) ** j)
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
