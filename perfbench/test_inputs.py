"""Tests of the benchmark's own inputs and checks, on cases known by hand.

    python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402

X2, XY, Y2 = (2, 0), (1, 1), (0, 2)


def test_standard_monomials_of_the_quadratic_ideal():
    # O/<x^2, xy, y^2> is spanned by 1, x, y
    assert inputs.standard_monomial_counts([X2, XY, Y2], 5) == [1, 2, 0, 0, 0, 0]


def test_standard_monomials_of_a_complete_intersection():
    # O/<x^2, y^2> is spanned by 1, x, y, xy
    assert inputs.standard_monomial_counts([(2, 0), (0, 2)], 4) == [1, 2, 1, 0, 0]


def test_standard_monomials_of_monomial_ideal_example():
    # <x^2, yz, xz, xy>: beyond degree 1 only the powers of y and of z survive
    gens = [(2, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert inputs.standard_monomial_counts(gens, 4) == [1, 3, 2, 2, 2]


def test_taylor_differential_of_two_generators():
    # d e12 = (x^2 y / x y) e2 ... for <x^2, xy>: m12 = x^2 y
    diff = inputs.taylor_differential([X2, XY])
    assert diff == {(0, 1): {(1,): (1, (1, 0)), (0,): (-1, (0, 1))}}


def test_taylor_square_is_zero():
    for seed in range(5):
        gens = inputs.random_minimal_monomials(random.Random(seed))
        square = inputs.taylor_square(gens, inputs.taylor_differential(gens))
        assert all(not terms for terms in square.values())


def test_taylor_square_sees_a_wrong_sign():
    gens = [X2, XY, Y2]
    diff = inputs.taylor_differential(gens)
    face, (sign, coeff) = next(iter(diff[(0, 1, 2)].items()))
    diff[(0, 1, 2)][face] = (-sign, coeff)
    assert inputs.taylor_square(gens, diff)[(0, 1, 2)]


def test_euler_characteristic_of_taylor_resolution():
    # Taylor of <x^2, xy, y^2>: ranks 3, 3, 1, lcm degrees 2,2,2 / 3,4,3 / 4
    gens = [X2, XY, Y2]
    assert inputs.taylor_rank_degrees(gens) == {1: [2, 2, 2], 2: [3, 4, 3], 3: [4]}
    assert inputs.euler_characteristic(gens, 6) == [1, 2, 0, 0, 0, 0, 0]
    for seed in range(5):
        gens = inputs.random_minimal_monomials(random.Random(seed))
        assert inputs.euler_characteristic(gens, 9) == inputs.standard_monomial_counts(gens, 9)


def test_random_monomials_are_minimal_generators():
    for seed in range(20):
        gens = inputs.random_minimal_monomials(random.Random(seed))
        assert len(set(gens)) == 4
        assert not any(a != b and inputs.divides(a, b) for a in gens for b in gens)


def test_tree_and_monomial_counts_by_hand():
    # ranks (3, 2): degree 3 trees are the C(3, 2) joins of two distinct
    # degree -1 leaves; degree 2 monomials are the 2 leaves plus C(3, 2)
    # products of distinct degree -1 leaves
    assert inputs.tree_counts([3, 2], 3) == {1: 3, 2: 2, 3: 3}
    assert inputs.monomial_counts([3, 2], 2) == {1: 3, 2: 2 + 3}
    # one even generator p in degree -2 repeats freely: p, p^2, p^3 and the
    # tree V(p,p) of degree -1 - 2 - 2 = -5
    assert inputs.tree_counts([0, 1], 6) == {1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0}
    assert inputs.monomial_counts([0, 1], 6) == {1: 0, 2: 1, 3: 0, 4: 1, 5: 1, 6: 1}


def test_expected_verdicts_of_quadratic_example():
    # the counts the engine's report states for quadratic.kt at K = 7
    facts = {"num_vars": 2, "ideal": [X2, XY, Y2], "ranks": [3, 2], "positives": 6,
             "neg_degree_max": 7, "poly_cap": 6}
    expected = inputs.expected_verdicts(facts)
    assert expected["homotopy retract"] == "759 algebra monomials through negative degree 7"
    assert expected["total differential square zero"] == \
        "214 sources, trees through negative degree 7"
    assert expected["inclusion/projection homotopy"] == \
        "292 monomials through negative degree 6"
    assert expected["hook product Leibniz"] == "25 generator pairs"


def test_check_report_flags_each_fault():
    facts = {"num_vars": 2, "ideal": [X2, XY, Y2], "ranks": [3, 2], "positives": 6,
             "neg_degree_max": 3, "poly_cap": 4}
    verdicts = [{"name": n, "checked": c, "passed": True}
                for n, c in inputs.expected_verdicts(facts).items()]
    good = {"result": "pass", "verdicts": verdicts, "quotient_dims": [1, 2, 0, 0, 0]}
    assert inputs.check_report(good, facts) == []
    assert inputs.check_report(dict(good, quotient_dims=[1, 2, 1, 0, 0]), facts)
    assert inputs.check_report(dict(good, result="fail"), facts)
    assert inputs.check_report(dict(good, verdicts=verdicts[1:]), facts)
    wrong_count = [dict(v, checked="1 generator pairs") if v["name"] == "hook product Leibniz"
                   else v for v in verdicts]
    assert inputs.check_report(dict(good, verdicts=wrong_count), facts)


def test_spec_facts_and_rename_keep_the_problem():
    text = run.workload_spec("taylor4-k5", seed=7)
    facts = inputs.spec_facts(text)
    assert facts["ranks"] == [4, 6, 4, 1]
    assert facts["positives"] == 3 and facts["neg_degree_max"] == 5
    gens = inputs.random_minimal_monomials(random.Random(run.TAYLOR_DRAW_SEED))
    assert facts["ideal"] == gens
    assert run.workload_spec("taylor4-k5", seed=7) == text
    renamed = inputs.symbols(text)
    assert len({name[:4] for name in renamed}) == 1
    assert sorted(renamed) == [inputs.seeded_prefix(7) + n
                               for n in sorted(n[4:] for n in renamed)]


def test_bundled_workload_options():
    facts = inputs.spec_facts(run.workload_spec("exactness-cap12", seed=1))
    assert (facts["neg_degree_max"], facts["poly_cap"]) == (4, 12)
    assert facts["ranks"] == [4, 4, 1]
    facts = inputs.spec_facts(run.workload_spec("quadratic-lr-k7", seed=1))
    assert (facts["neg_degree_max"], facts["ranks"], facts["positives"]) == (7, [3, 2], 6)


def test_piece_minima_take_each_piece_from_its_fastest_run():
    # piece 0 is fastest in the first run, piece 1 in the second; the odd
    # run cut into one piece only is left out
    assert run.piece_minima([[1.0, 5.0], [3.0, 2.0], [0.5]]) == [1.0, 2.0]
    assert run.piece_minima([[4.0]]) == [4.0]

