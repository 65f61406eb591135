"""Shared fixtures: the bundled example data, built programmatically, the
command line run in this process, and helpers the tests share."""

from __future__ import annotations

import io
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ktforest.cli import main
from ktforest.extension import lift_delta_preimage
from ktforest.forest import AlgebraElement, Monomial, mono_pos_degree, tree_degree
from ktforest.kt import SolveError
from ktforest.poly import Poly, RingSpec
from ktforest.resolution import FreeResolution, GeneratorId, ModuleElement


def make_resolution(ring: RingSpec, layers, diff_lines, augment_lines) -> FreeResolution:
    """Build a resolution from label lists and textual d / augmentation rows.

    `layers` is a list of label lists for degrees -1, -2, ...; `diff_lines`
    maps labels to {label: poly-text}; `augment_lines` maps degree -1 labels
    to poly-text.
    """
    gens_by_degree = {}
    by_label = {}
    for depth, labels in enumerate(layers, start=1):
        gens = tuple(GeneratorId(-depth, i, name) for i, name in enumerate(labels))
        gens_by_degree[-depth] = gens
        for g in gens:
            by_label[g.label] = g
    diff = {}
    for label, row in diff_lines.items():
        g = by_label[label]
        terms = {by_label[target]: Poly.parse(text, ring) for target, text in row.items()}
        diff[g] = ModuleElement(ring, terms)
    augment = {by_label[label]: Poly.parse(text, ring) for label, text in augment_lines.items()}
    return FreeResolution(ring, gens_by_degree, diff, augment)


def mono_degree(mono: Monomial) -> int:
    """The homological degree of a monomial: its trees' and its positives'."""
    return sum(map(tree_degree, mono[0])) + mono_pos_degree(mono)


def boundary_equivalent(res: FreeResolution, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Whether two (module x positives) values differ by an exact term."""
    diff = a - b
    if diff.is_zero():
        return True
    if not diff.has_only_module_and_scalar():
        return False
    try:
        return lift_delta_preimage(res, diff) is not None
    except SolveError:
        return False


def source_kind(source) -> str:
    """The kind of an `ExtensionData.tables` source: a variable's index, a
    positive or module generator, or a tree."""
    if isinstance(source, int):
        return "variable"
    if isinstance(source, GeneratorId):
        return "positive" if source.module_degree > 0 else "module"
    return "tree"


def entries(ext, kind: str) -> dict:
    """The entries of `ext.tables` whose source is of one kind."""
    return {key: value for key, value in ext.tables.items() if source_kind(key[1]) == kind}


@pytest.fixture(scope="session")
def ring_xy():
    return RingSpec(["x", "y"])


@pytest.fixture(scope="session")
def ring_xyz():
    return RingSpec(["x", "y", "z"])


@pytest.fixture(scope="session")
def quadratic_resolution(ring_xy):
    """Length-2 resolution of K[x,y] / <x^2, xy, y^2>."""
    return make_resolution(
        ring_xy,
        layers=[["pi1", "pi2", "pi3"], ["pi", "pib"]],
        diff_lines={
            "pi": {"pi2": "x", "pi1": "-y"},
            "pib": {"pi3": "x", "pi2": "-y"},
        },
        augment_lines={"pi1": "x^2", "pi2": "x*y", "pi3": "y^2"},
    )


@pytest.fixture(scope="session")
def regular_resolution(ring_xy):
    """Length-2 resolution of K[x,y] / <x^2, y^2> (a Koszul complex)."""
    return make_resolution(
        ring_xy,
        layers=[["pi1", "pi2"], ["pi"]],
        diff_lines={"pi": {"pi2": "x^2", "pi1": "-y^2"}},
        augment_lines={"pi1": "x^2", "pi2": "y^2"},
    )


@pytest.fixture(scope="session")
def monomial3_resolution(ring_xyz):
    """Length-3 resolution of K[x,y,z] / <x^2, yz, xz, xy>, ranks 4,4,1."""
    return make_resolution(
        ring_xyz,
        layers=[["e1", "e2", "e3", "e4"], ["e13", "e14", "e24", "e34"], ["e134"]],
        diff_lines={
            "e13": {"e3": "x", "e1": "-z"},
            "e14": {"e4": "x", "e1": "-y"},
            "e24": {"e4": "z", "e2": "-x"},
            "e34": {"e4": "z", "e3": "-y"},
            "e134": {"e34": "x", "e14": "-z", "e13": "y"},
        },
        augment_lines={"e1": "x^2", "e2": "y*z", "e3": "x*z", "e4": "x*y"},
    )


def run_main(*argv):
    """(exit code, stdout, stderr) of `ktforest ARGV`, run in this process.

    An uncaught exception is printed to stderr as a traceback with exit
    code 1, as the interpreter would; argparse's exit gives its own code.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()
