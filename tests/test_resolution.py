"""Resolution validation, Koszul complexes, and the homology oracle."""

from __future__ import annotations

import pytest

from ktforest.poly import Poly, RingSpec, linear_system, matrix_rank, slice_basis
from ktforest.resolution import (FreeResolution, GeneratorId, ModuleElement,
                                 build_koszul_complex, ideal_member, quotient_dims)

from conftest import make_resolution
from sign_oracle import reference_koszul_sign


def test_quadratic_resolution_is_complex(quadratic_resolution):
    assert quadratic_resolution.check_complex().passed


def test_length_one_resolution_vacuous(ring_xy):
    res = make_resolution(ring_xy, [["e"]], {}, {"e": "x^2"})
    assert res.check_complex().passed


def test_broken_differential_detected(ring_xy):
    # d(pi) altered to x*pi2 - y*pi2: composing with the augmentation leaves
    # x*(x*y) - y*(x*y) != 0 and must be reported on pi
    res = make_resolution(
        ring_xy,
        layers=[["pi1", "pi2", "pi3"], ["pi", "pib"]],
        diff_lines={
            "pi": {"pi2": "x - y"},
            "pib": {"pi3": "x", "pi2": "-y"},
        },
        augment_lines={"pi1": "x^2", "pi2": "x*y", "pi3": "y^2"},
    )
    report = res.check_complex()
    assert not report.passed
    gen, residue = report.failures[0]
    assert gen.label == "pi"
    assert residue == Poly.parse("x^2*y - x*y^2", ring_xy)


def test_quadratic_exactness(quadratic_resolution):
    report = quadratic_resolution.check_exactness(6)
    assert report.graded
    assert report.exact
    for (deg, k), (_ker, _im, h) in report.dims.items():
        assert h == 0, (deg, k)


def test_koszul_regular_sequence_exact(ring_xy):
    res = build_koszul_complex([Poly.parse("x^2", ring_xy), Poly.parse("y^2", ring_xy)])
    assert res.check_complex().passed
    assert res.ranks == [2, 1]
    report = res.check_exactness(6)
    assert report.exact


def test_koszul_nonregular_pair_not_exact(ring_xy):
    res = build_koszul_complex([Poly.parse("x", ring_xy), Poly.parse("x", ring_xy)])
    assert res.check_complex().passed  # d*d = 0 regardless of regularity
    report = res.check_exactness(4)
    assert not report.exact
    assert any(h != 0 for (_d, _k), (_a, _b, h) in report.dims.items())


def test_koszul_differential_display(ring_xy):
    phis = [Poly.parse("x^2", ring_xy), Poly.parse("y^2", ring_xy)]
    res = build_koszul_complex(phis)
    e12 = res.gen_by_label("e12")
    d = res.diff[e12]
    e1, e2 = res.gen_by_label("e1"), res.gen_by_label("e2")
    assert d.terms[e2] == phis[0]
    assert d.terms[e1] == -phis[1]
    assert res.augment[e1] == phis[0]


def test_koszul_three_variables(ring_xyz):
    phis = [Poly.parse(v, ring_xyz) for v in ("x", "y", "z")]
    res = build_koszul_complex(phis)
    assert res.ranks == [3, 3, 1]
    assert res.check_complex().passed
    assert res.check_exactness(4).exact


def test_single_polynomial_koszul(ring_xy):
    res = build_koszul_complex([Poly.parse("x^2 + y^2", ring_xy)])
    assert res.ranks == [1]
    e = res.gen_by_label("e1")
    assert res.augment[e] == Poly.parse("x^2 + y^2", ring_xy)


def test_koszul_wedge_table(ring_xyz):
    res = build_koszul_complex([Poly.parse(v, ring_xyz) for v in ("x", "y", "z")])
    e1, e2 = res.gen_by_label("e1"), res.gen_by_label("e2")
    sign, gen = res.wedge_gens(e1, e2)
    assert sign == 1 and gen.label == "e12"
    sign, gen = res.wedge_gens(e2, e1)
    assert sign == -1 and gen.label == "e12"
    assert res.wedge_gens(e1, e1) is None


def test_wedge_gens_sign_is_the_koszul_sign_of_the_sorting_permutation(ring_xyz):
    phis = [Poly.parse(v, ring_xyz) for v in ("x", "y", "z", "x*y")]
    res = build_koszul_complex(phis)
    gens = [g for depth in range(1, 5) for g in res.generators(depth)]
    disjoint = 0
    for a in gens:
        for b in gens:
            sa, sb = res.subset_of_gen[a], res.subset_of_gen[b]
            if set(sa) & set(sb):
                assert res.wedge_gens(a, b) is None
                continue
            joined = sa + sb
            ordered = sorted(joined)
            # e_joined = sign * e_ordered, every index an odd factor
            perm = [ordered.index(i) for i in joined]
            sign = reference_koszul_sign([-1] * len(joined), perm)
            assert res.wedge_gens(a, b) == (sign, res.gen_of_subset[tuple(ordered)])
            disjoint += 1
    assert disjoint == 50  # 3^4 - 2 * 2^4 + 1 ordered pairs of disjoint nonempty subsets


def test_quotient_dims_quadratic(ring_xy):
    gens = [Poly.parse(t, ring_xy) for t in ("x^2", "x*y", "y^2")]
    assert quotient_dims(ring_xy, gens, 5) == [1, 2, 0, 0, 0, 0]


def test_quotient_dims_principal():
    ring1 = RingSpec(["x"])
    assert quotient_dims(ring1, [Poly.parse("x", ring1)], 4) == [1, 0, 0, 0, 0]


def test_quotient_dims_monomial3(ring_xyz):
    gens = [Poly.parse(t, ring_xyz) for t in ("x^2", "y*z", "x*z", "x*y")]
    # slices: constants; x,y,z; then only pure powers of y and z survive
    assert quotient_dims(ring_xyz, gens, 6) == [1, 3, 2, 2, 2, 2, 2]


def test_monomial3_resolution_exact(monomial3_resolution):
    assert monomial3_resolution.check_complex().passed
    report = monomial3_resolution.check_exactness(6)
    assert report.exact


def test_rank_nullity_per_slice(quadratic_resolution):
    report = quadratic_resolution.check_exactness(5)
    weights = quadratic_resolution.internal_weights()
    from ktforest.poly import slice_dim
    for (deg, k), (dim_ker, dim_im, _h) in report.dims.items():
        depth = -deg
        dim_slice = sum(
            slice_dim(quadratic_resolution.ring.num_vars, k - weights[g])
            for g in quadratic_resolution.generators(depth) if k >= weights[g])
        unknowns = [(j, m) for j, g in enumerate(quadratic_resolution.generators(depth))
                    if k >= weights[g]
                    for m in slice_basis(quadratic_resolution.ring, k - weights[g])]
        assert len(unknowns) == dim_slice
        system = linear_system(quadratic_resolution._columns(depth), unknowns)
        rank = matrix_rank(list(system.values()))
        assert dim_ker + rank == dim_slice
        if depth > 1:
            assert report.dims[(deg + 1, k)][1] == rank


@pytest.mark.parametrize("layers, diff_lines, augment_lines, expected", [
    # the quadratic resolution: every weight follows from the augmentation
    ([["pi1", "pi2", "pi3"], ["pi", "pib"]], {"pi": {"pi2": "x", "pi1": "-y"},
                                             "pib": {"pi3": "x", "pi2": "-y"}},
     {"pi1": "x^2", "pi2": "x*y", "pi3": "y^2"},
     {"pi1": 2, "pi2": 2, "pi3": 2, "pi": 3, "pib": 3}),
    # a zero value fixes nothing; the tie through pi fixes pi1 from pi2
    ([["pi1", "pi2"], ["pi"]], {"pi": {"pi1": "x^3", "pi2": "y"}},
     {"pi1": "0", "pi2": "x^2"}, {"pi1": 0, "pi2": 2, "pi": 3}),
    # a component that nothing fixes starts at 0, wherever it sits
    ([["pi1"], ["pi"], ["p"]], {"pi": {}, "p": {"pi": "x*y"}},
     {"pi1": "x"}, {"pi1": 1, "pi": 0, "p": 2}),
    # two ties that disagree
    ([["pi1", "pi2"], ["pi"]], {"pi": {"pi1": "y", "pi2": "x"}},
     {"pi1": "x", "pi2": "x^2"}, None),
    # a coefficient or a value that is not homogeneous
    ([["pi1"], ["pi"]], {"pi": {"pi1": "x + y^2"}}, {"pi1": "0"}, None),
    ([["pi1"]], {}, {"pi1": "x + y^2"}, None),
], ids=["quadratic", "zero-value", "unfixed-component", "conflict", "coefficient", "value"])
def test_internal_weights_spread_along_the_differential(ring_xy, layers, diff_lines,
                                                        augment_lines, expected):
    res = make_resolution(ring_xy, layers, diff_lines, augment_lines)
    weights = res.internal_weights()
    assert (None if weights is None else {g.label: w for g, w in weights.items()}) == expected
    assert res.internal_weights() is weights  # kept after the first call


def test_ideal_membership(ring_xy):
    gens = [Poly.parse("x^2", ring_xy), Poly.parse("x*y", ring_xy)]
    assert ideal_member(ring_xy, gens, Poly.parse("x^3 + x^2*y", ring_xy))
    assert not ideal_member(ring_xy, gens, Poly.parse("y^2", ring_xy))


def test_lift_through_differential(quadratic_resolution):
    res = quadratic_resolution
    ring = res.ring
    pi = res.gen_by_label("pi")
    target_mod, target_scalar = res.apply_diff(ModuleElement.of_gen(ring, pi))
    assert target_scalar.is_zero()
    lifted = res.lift(target_mod, 2)
    assert lifted is not None
    mod, scalar = res.apply_diff(lifted)
    assert mod == target_mod and scalar.is_zero()


def test_quotient_dims_inhomogeneous_filtration(ring_xy):
    # x^2 - y cuts out a graph; multiples of degree <= k have dimension
    # C(k,2), so the filtration quotient has cumulative dimension 2k+1
    gens = [Poly.parse("x^2 - y", ring_xy)]
    assert quotient_dims(ring_xy, gens, 5) == [1, 2, 2, 2, 2, 2]


def test_generator_id_contract():
    a, b = GeneratorId(-2, 1, "pi"), GeneratorId(-2, 1, "pi")
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    for other in (GeneratorId(-3, 1, "pi"), GeneratorId(-2, 0, "pi"), GeneratorId(-2, 1, "pib")):
        assert other != a
    assert (a.module_degree, a.index, a.label) == (-2, 1, "pi")
    assert a.key == (2, 1, "pi")
    assert GeneratorId(3, 0, "xi").key == (3, 0, "xi")
    for name in ("module_degree", "index", "label", "key"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.key == (2, 1, "pi")
