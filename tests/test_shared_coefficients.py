"""One shared Poly per one-term coefficient.

`forest.collect` wraps each sum that holds one nonzero term in the ring's
shared Poly of that exponent, value and type of value (`RingSpec.one_terms`;
`Poly.one` is its unit case), so the images a run keeps hold one
coefficient object per value.  The sharing is safe because no `terms` dict
is written after construction (`test_imports`).  The memory gate runs the
pipeline in a fresh interpreter, so that trees and tables interned by
other tests do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import ktforest
from ktforest import cli
from ktforest.cli import check_mode, parse_spec, run
from ktforest.forest import accumulate, collect, enumerate_monomial_basis
from ktforest.poly import Poly

SRC = Path(__file__).resolve().parent.parent / "src"
SPEC = parse_spec(ktforest.example_path("quadratic.kt"))
RING = SPEC.resolution.ring
MONO = enumerate_monomial_basis(SPEC.resolution, 2)[0]
EXP = (1, 0)


def test_kept_images_hold_one_coefficient_object_per_value(monkeypatch):
    solved = []

    def capture(*args, _solve=cli.solve_residues_explicit):
        solved.append(_solve(*args))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_residues_explicit", capture)
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    spec.options.update(mode="explicit", neg_degree_max=7)
    check_mode(spec)
    assert run(spec).all_passed()
    (ext,) = solved
    images = list(ext.hook.differential()._memo.values())
    images += [value for by_range in ext._tree_memo.values() for value in by_range.values()]
    objects: dict = {}
    for image in images:
        for c in image.terms.values():
            if len(c.terms) == 1:
                ((e, v),) = c.terms.items()
                objects.setdefault((e, v, type(v)), set()).add(id(c))
    assert len(objects) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_an_int_and_an_equal_fraction_stay_apart():
    whole = collect(RING, {MONO: {EXP: 2}}).terms[MONO]
    fraction = collect(RING, {MONO: {EXP: Fraction(2)}}).terms[MONO]
    assert whole is not fraction
    assert [type(v) for v in whole.terms.values()] == [int]
    assert [type(v) for v in fraction.terms.values()] == [Fraction]
    assert (str(whole), str(fraction)) == ("2*x", "2*x")
    assert collect(RING, {MONO: {EXP: 2}}).terms[MONO] is whole
    assert Poly.one(RING) is collect(RING, {MONO: {(0, 0): 1}}).terms[MONO]


def test_a_one_term_sum_that_cancels_is_dropped():
    acc: dict = {}
    accumulate(acc, MONO, {EXP: 3})
    accumulate(acc, MONO, {EXP: 3}, -1)
    assert acc == {MONO: {EXP: 0}}
    assert collect(RING, acc).is_zero()


def test_writing_to_the_accumulator_leaves_the_shared_poly():
    acc: dict = {}
    accumulate(acc, MONO, {EXP: 5})
    shared = collect(RING, acc).terms[MONO]
    accumulate(acc, MONO, {EXP: 1})
    accumulate(acc, MONO, {(0, 1): 1})
    assert shared.terms == {EXP: 5}
    assert collect(RING, {MONO: {EXP: 5}}).terms[MONO] is shared


PEAK = """
import tracemalloc
import ktforest
from ktforest.cli import check_mode, parse_spec, run
spec = parse_spec(ktforest.example_path("quadratic.kt"))
spec.options.update(mode="explicit", neg_degree_max=6)
check_mode(spec)
tracemalloc.start()
passed = run(spec).all_passed()
print(passed, tracemalloc.get_traced_memory()[1])
"""


def test_traced_peak_of_a_run_stays_under_one_megabyte():
    # quadratic.kt explicit at K = 6: 1.24 MB with a Poly per one-term
    # coefficient, 0.72 MB with the shared ones
    out = subprocess.run([sys.executable, "-S", "-c", PEAK], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"),
                         check=True, timeout=60)
    passed, peak = out.stdout.split()
    assert passed == "True"
    assert int(peak) <= 1_000_000
