"""The pipeline's shape pinned: exit code, (stage, status) list, failed stage
and the set of `--timings` keys.

Every bundled spec runs in each mode it accepts at K = 1..6, and six inputs
fail at six different stages.  The values were recorded from the pipeline
that timed, recorded and stopped each stage by hand.  A failing path may
differ from them only by gaining the timing key of the stage that failed
(the second entry of each `FAILING` value): that pipeline returned from a
failed user hook before timing it, and never timed a stage that raised
`SolveError`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import ktforest
import ktforest.cli as cli
from ktforest.cli import main, parse_spec, run
from ktforest.grammar import parse_hook_table
from ktforest.kt import HookMap, SolveError

SOLVED = [["check_complex", "pass"], ["check_exactness", "pass"], ["solve_hook", "pass"],
          ["solve_extension", "pass"]]
SOLVED_KEYS = ["check_complex", "check_exactness", "check_ideal_preserved", "extension",
               "extension_checks", "hook", "negative_part_checks", "quotient_dims"]

# (spec, mode) -> (exit code, stages, failed stage, timing keys), the same at K = 1..6
PASSING = {
    (name, mode): (0, SOLVED, None, SOLVED_KEYS)
    for name in ("koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt",
                 "quadratic.kt", "regular_sequence.kt", "taylor_shear.kt")
    for mode in ("explicit", "general")
}
PASSING["koszul_compare.kt", "koszul-compare"] = (
    0, [["check_complex", "pass"], ["check_exactness", "pass"], ["hook", "verified"],
        ["koszul_mode", "pass"]], None, SOLVED_KEYS)


def shape(code, report):
    return (code, [[s["stage"], s["status"]] for s in report["stages"]],
            report.get("failed_stage"), sorted(report["timings"]))


def run_main(capsys, path, *flags):
    capsys.readouterr()
    code = main(["run", str(path), "--format", "json", "--timings", *flags])
    return shape(code, json.loads(capsys.readouterr().out))


def test_every_bundled_spec_and_accepted_mode_is_pinned():
    examples = Path(ktforest.example_path("quadratic.kt")).parent
    accepted = {(p.name, mode) for p in examples.glob("*.kt") for mode in ("explicit", "general")}
    assert set(PASSING) == accepted | {("koszul_compare.kt", "koszul-compare")}


@pytest.mark.parametrize("name, mode", sorted(PASSING))
def test_passing_run_shape(capsys, name, mode):
    for depth in range(1, 7):
        assert run_main(capsys, ktforest.example_path(name), "--mode", mode,
                        "--neg-degree-max", str(depth)) == PASSING[name, mode], depth


BROKEN_COMPLEX = """
[ring]
vars = x, y
[resolution]
generators -1 = pi1, pi2, pi3
generators -2 = pi
d pi = x*pi2 - y*pi2
augment pi1 = x^2
augment pi2 = x*y
augment pi3 = y^2
"""

NOT_EXACT = """
[ring]
vars = x, y
[ideal]
gens = x, x
[resolution]
koszul = true
"""

NON_PRESERVING = """
[ring]
vars = x, y
[resolution]
generators -1 = pi1, pi2, pi3
generators -2 = pi, pib
d pi = x*pi2 - y*pi1
d pib = x*pi3 - y*pi2
augment pi1 = x^2
augment pi2 = x*y
augment pi3 = y^2
[positive]
generators 1 = xi
Q y = xi
"""

# taylor_shear.kt with Q^2(xi) = zeta outside the ideal: the extension
# solver raises SolveError at its positive-input check
TAYLOR_SQUARE = ("generators 1 = xi\nQ x = y*xi\n",
                 "generators 1 = xi\ngenerators 2 = eta\ngenerators 3 = zeta\n"
                 "Q xi = eta\nQ eta = zeta\nQ zeta = 0\n")

UP_TO_HOOK = [["check_complex", "pass"], ["check_exactness", "pass"]]
HOOK_KEYS = ["check_complex", "check_exactness", "quotient_dims"]
GATE_KEYS = ["check_complex", "check_exactness", "check_ideal_preserved", "hook",
             "negative_part_checks", "quotient_dims"]

# case -> (recorded shape, the timing key the case gains)
FAILING = {
    "broken complex": ((1, [["check_complex", "fail"]], "check_complex", ["check_complex"]),
                       None),
    "not exact": ((1, [["check_complex", "pass"], ["check_exactness", "fail"]],
                   "check_exactness", ["check_complex", "check_exactness"]), None),
    "user hook": ((1, UP_TO_HOOK + [["hook", "fail"]], "hook", HOOK_KEYS), "hook"),
    "ideal gate": ((1, UP_TO_HOOK + [["solve_hook", "pass"]], "check_ideal_preserved",
                    GATE_KEYS), None),
    "hook solver": ((3, UP_TO_HOOK + [["solve_hook", "no-solution"]], "solve_hook",
                     HOOK_KEYS), "hook"),
    "extension solver": ((3, UP_TO_HOOK + [["solve_hook", "pass"],
                                           ["positive input", "no-solution"]],
                          "positive input", GATE_KEYS), "extension"),
}


def failing_shape(case, tmp_path, capsys, monkeypatch):
    path = tmp_path / "spec.kt"
    if case == "user hook":
        spec = parse_spec(ktforest.example_path("quadratic.kt"))
        table = parse_hook_table(["V(pi1,pi2) -> y*pi", "V(pi2,pi3) -> y*pib",
                                  "V(pi1,pi3) -> y*pi + x*pib"], spec.symbols)
        report = run(spec, HookMap(spec.resolution, table))
        return shape(report.exit_code(), report.to_dict(include_timings=True))
    if case == "hook solver":
        def no_hook(res, depth):
            raise SolveError("solve_hook", "V(pi1,pi2)", "no preimage")
        monkeypatch.setattr(cli, "solve_hook", no_hook)
        return run_main(capsys, ktforest.example_path("quadratic.kt"), "--neg-degree-max", "4")
    if case == "extension solver":
        text = open(ktforest.example_path("taylor_shear.kt"), encoding="utf-8").read()
        path.write_text(text.replace(*TAYLOR_SQUARE))
        return run_main(capsys, path, "--neg-degree-max", "4")
    path.write_text({"broken complex": BROKEN_COMPLEX, "not exact": NOT_EXACT,
                     "ideal gate": NON_PRESERVING}[case])
    return run_main(capsys, path)


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_run_shape(tmp_path, capsys, monkeypatch, case):
    (code, stages, failed, keys), gained = FAILING[case]
    expected = (code, stages, failed, sorted(keys + ([gained] if gained else [])))
    assert failing_shape(case, tmp_path, capsys, monkeypatch) == expected
