"""Spec parsing, pipeline orchestration, report emission, exit codes."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ktforest
from ktforest.cli import ProblemSpec, SpecError, emit, main, parse_spec, run
from ktforest.extension import solve_residues_explicit
from ktforest.kt import SolveError, solve_hook


def spec_path(name):
    return ktforest.example_path(name)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ktforest.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_bundled_quadratic():
    spec = parse_spec(spec_path("quadratic.kt"))
    assert spec.mode == "explicit"
    assert spec.resolution.ranks == [3, 2]
    assert spec.positive is not None
    assert len(spec.positive.gens) == 6
    assert [str(p) for p in spec.ideal] == ["x^2", "x*y", "y^2"]


def test_parse_bundled_monomial_ideal():
    spec = parse_spec(spec_path("monomial_ideal.kt"))
    assert spec.resolution.ranks == [4, 4, 1]
    assert spec.neg_degree_max == 5


def test_unknown_label_reports_line():
    text = """
[ring]
vars = x, y
[resolution]
generators -1 = pi1
d nope = x*pi1
augment pi1 = x^2
"""
    with pytest.raises(SpecError) as err:
        parse_spec("inline.kt", text=text)
    assert "nope" in str(err.value)
    assert "line" in str(err.value)


def test_mode_validation():
    text = """
[ring]
vars = x
[resolution]
generators -1 = e
augment e = x
[options]
mode = bogus
"""
    with pytest.raises(SpecError):
        parse_spec("inline.kt", text=text)


def test_run_report_content():
    spec = parse_spec(spec_path("quadratic.kt"))
    report = run(spec)
    assert report.all_passed()
    assert "V(pi1,pi2) -> x*pi" in report.hook_lines
    records = {(r["level"], r["source"]): r["value"] for r in report.residues}
    assert records[(1, "pi1")] == "-2*eta1*pi"
    assert records[(0, "pi1")] == "2*xi1*pi1 + 2*xi2*pi2"


def test_reports_are_deterministic(tmp_path):
    spec1 = parse_spec(spec_path("regular_sequence.kt"))
    spec2 = parse_spec(spec_path("regular_sequence.kt"))
    text1 = emit(run(spec1), "json")
    text2 = emit(run(spec2), "json")
    assert text1 == text2
    data = json.loads(text1)
    assert data["result"] == "pass"
    assert "timings" not in data


def test_timings_list_quotient_dims_and_ideal_gate(capsys):
    assert main(["run", spec_path("koszul_function.kt"), "--timings"]) == 0
    text = capsys.readouterr().out
    section = text.split("\n[timings]\n", 1)[1].split("\n\n", 1)[0]
    keys = {line.split(":", 1)[0] for line in section.splitlines()}
    assert {"quotient_dims", "check_ideal_preserved"} <= keys
    assert main(["run", spec_path("koszul_function.kt"), "--timings",
                 "--format", "json"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert {"quotient_dims", "check_ideal_preserved"} <= set(timings)


def test_report_bytes_without_timings_are_unchanged(capsys):
    args = ["run", spec_path("koszul_function.kt"), "--mode", "explicit",
            "--neg-degree-max", "5"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    # the pin of this spec and mode in test_report_digests.py
    assert hashlib.sha256(plain.encode("utf-8")).hexdigest() == \
        "e4a9afcf769a7781d656c8c1f55ab7e334a83cb32fb49c731bffc7dd7293aed1"
    assert main(args + ["--timings"]) == 0
    timed = capsys.readouterr().out
    head, rest = timed.split("\n[timings]\n", 1)
    assert head + "\n" + rest.split("\n\n", 1)[1] == plain


def test_text_report_groups_residues_by_level():
    spec = parse_spec(spec_path("quadratic.kt"))
    text = emit(run(spec), "text")
    lines = [l for l in text.splitlines() if l.startswith("level ")]
    levels = [int(l.split()[1].rstrip(":")) for l in lines]
    assert levels == sorted(levels)


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


def test_non_preserving_derivation_fails_early():
    spec = parse_spec("inline.kt", text=NON_PRESERVING)
    report = run(spec)
    assert report.failed_stage == "check_ideal_preserved"
    assert not report.all_passed()


def test_general_mode_stops_at_the_ideal_gate(tmp_path, capsys):
    """A derivation that does not preserve the ideal has no level-0 lift, so
    general mode stops at the gate as explicit mode does: exit 1, no
    residue stage."""
    spec = parse_spec("inline.kt", text=NON_PRESERVING)
    spec.options.update(mode="general", neg_degree_max=4)
    report = run(spec)
    assert report.failed_stage == "check_ideal_preserved"
    stages = [s["stage"] for s in report.stages]
    assert stages[-1] == "solve_hook" and "solve_extension" not in stages
    assert not any(s.startswith("residue") for s in stages)
    path = tmp_path / "non_preserving.kt"
    path.write_text(NON_PRESERVING)
    capsys.readouterr()
    assert main(["run", str(path), "--mode", "general", "--neg-degree-max", "4"]) == 1
    out = capsys.readouterr().out
    assert "ideal preservation: FAIL" in out
    assert "residue level" not in out and "solve_extension" not in out


def test_explicit_solver_refuses_a_non_preserving_derivation():
    # the solver leaves the ideal gate to its caller, and still finds no
    # level 0 correction for this input
    spec = parse_spec("inline.kt", text=NON_PRESERVING)
    hook = solve_hook(spec.resolution, spec.neg_degree_max)
    with pytest.raises(SolveError) as info:
        solve_residues_explicit(spec.resolution, spec.positive, hook, spec.neg_degree_max)
    err = info.value
    assert (err.stage, err.item, err.detail) == \
        ("residue level 0", "pi2", "no preimage under the resolution differential")


def test_general_gate_checks_the_square_on_positive_generators(tmp_path, capsys):
    """taylor_shear.kt with Q xi = eta, Q eta = zeta and no Q x: Q^2(xi) =
    zeta has coefficient 1, outside the ideal.  General mode stops at its
    input gate and names xi, as explicit mode does."""
    text = open(spec_path("taylor_shear.kt"), encoding="utf-8").read()
    path = tmp_path / "taylor_shear.kt"
    path.write_text(text.replace(
        "generators 1 = xi\nQ x = y*xi\n",
        "generators 1 = xi\ngenerators 2 = eta\ngenerators 3 = zeta\n"
        "Q xi = eta\nQ eta = zeta\nQ zeta = 0\n"))
    spec = parse_spec(str(path))
    assert spec.positive.square_in_ideal(spec.ideal) == [
        "square on xi has coefficient 1 outside the ideal"]
    for mode in ("explicit", "general"):
        capsys.readouterr()
        assert main(["run", str(path), "--mode", mode, "--neg-degree-max", "4"]) == 3
        assert "positive input: no-solution (square on xi" in capsys.readouterr().out


def test_broken_complex_fails_with_stage():
    text = """
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
    spec = parse_spec("inline.kt", text=text)
    report = run(spec)
    assert report.failed_stage == "check_complex"


def test_cli_exit_codes(tmp_path):
    code, out, _err = run_cli("run", spec_path("koszul_function.kt"))
    assert code == 0 and "result: PASS" in out

    bad = tmp_path / "bad.kt"
    bad.write_text("[ring]\nvars = x\n[resolution]\nbogus key = 1\n")
    code, _out, err = run_cli("run", str(bad))
    assert code == 2 and "input error" in err

    nonpreserving = tmp_path / "np.kt"
    nonpreserving.write_text("""
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
""")
    code, out, _err = run_cli("run", str(nonpreserving))
    assert code == 1 and "result: FAIL" in out


def test_cli_verify_hook():
    code, out, _ = run_cli("verify", spec_path("quadratic.kt"),
                           "--hook", spec_path("quadratic_hook.txt"))
    assert code == 0 and "pass" in out


def test_cli_verify_bad_hook(tmp_path):
    table = tmp_path / "hook.txt"
    table.write_text("V(pi2,pi3) -> y*pib\nV(pi1,pi3) -> y*pi + x*pib\n")
    code, out, _ = run_cli("verify", spec_path("quadratic.kt"), "--hook", str(table))
    assert code == 1 and "FAIL" in out


def test_cli_basis():
    code, out, _ = run_cli("basis", spec_path("quadratic.kt"), "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["V(pi1,pi2)", "V(pi1,pi3)", "V(pi2,pi3)"]


def test_package_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "ktforest", "basis", spec_path("quadratic.kt"),
                           "--degree", "3"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["V(pi1,pi2)", "V(pi1,pi3)", "V(pi2,pi3)"]


def test_json_round_trip(tmp_path):
    spec = parse_spec(spec_path("koszul_function.kt"))
    path = tmp_path / "report.json"
    emit(run(spec), "json", str(path))
    data = json.loads(path.read_text())
    assert data["result"] == "pass"
    assert data["spec"] == "koszul_function.kt"


def test_koszul_compare_spec():
    spec = parse_spec(spec_path("koszul_compare.kt"))
    assert spec.mode == "koszul-compare"
    report = run(spec)
    assert report.all_passed(), emit(report, "text")


def test_verify_flags_restrict_verdicts():
    spec = parse_spec(spec_path("koszul_function.kt"))
    spec.options["verify"] = "square_zero extension"
    report = run(spec)
    names = {v["name"] for v in report.verdicts}
    assert "tree differential square zero" in names
    assert "total differential square zero" in names
    assert "homotopy retract" not in names
    # the ideal-preservation gate always runs
    assert "ideal preservation" in names


def test_exactness_failure_stops_pipeline():
    text = """
[ring]
vars = x, y
[ideal]
gens = x, x
[resolution]
koszul = true
"""
    spec = parse_spec("inline.kt", text=text)
    report = run(spec)
    assert report.failed_stage == "check_exactness"
    assert not report.all_passed()


def test_json_values_round_trip_grammar():
    spec = parse_spec(spec_path("quadratic.kt"))
    report = run(spec)
    data = json.loads(emit(report, "json"))
    from ktforest.grammar import parse_element, parse_module_element, parse_tree

    for record in data["residues"]:
        parsed = parse_element(record["value"], spec.symbols)
        assert str(parsed) == record["value"]
    for line in data["hook"]:
        tree_text, value_text = line.split("->")
        assert parse_tree(tree_text.strip(), spec.symbols) is not None
        value = parse_module_element(value_text.strip(), spec.symbols)
        assert str(value) == value_text.strip()


def test_run_with_pinned_hook_table():
    from ktforest.grammar import parse_hook_table
    from ktforest.kt import HookMap

    spec = parse_spec(spec_path("quadratic.kt"))
    with open(spec_path("quadratic_hook.txt"), "r", encoding="utf-8") as handle:
        table = parse_hook_table(handle.read().splitlines(), spec.symbols)
    hook = HookMap(spec.resolution, table)
    report = run(spec, hook_table=hook)
    assert report.all_passed()
    assert any(s["stage"] == "hook" and s["status"] == "verified"
               for s in report.stages)


def test_koszul_compare_requires_sections():
    text = """
[ring]
vars = x, y
[ideal]
gens = x^2, y^2
[resolution]
koszul = true
[options]
mode = koszul-compare
"""
    with pytest.raises(SpecError):
        parse_spec("inline.kt", text=text)


def _quadratic_hook_check(lines):
    from ktforest.grammar import parse_hook_table
    from ktforest.kt import HookMap, verify_hook

    spec = parse_spec(spec_path("quadratic.kt"))
    table = parse_hook_table(lines, spec.symbols)
    hook = HookMap(spec.resolution, table)
    return verify_hook(spec.resolution, hook, spec.neg_degree_max)


def test_hook_line_with_permuted_children_keeps_its_sign():
    # V(pi2,pi1) = -V(pi1,pi2): both odd leaves, so the swap costs a sign
    rest = ["V(pi2,pi3) -> y*pib", "V(pi1,pi3) -> y*pi + x*pib"]
    assert _quadratic_hook_check(["V(pi2,pi1) -> -x*pi"] + rest).passed
    assert not _quadratic_hook_check(["V(pi2,pi1) -> x*pi"] + rest).passed


def test_duplicate_hook_line_is_rejected():
    from ktforest.grammar import ParseError, parse_hook_table

    spec = parse_spec(spec_path("quadratic.kt"))
    lines = ["# header", "V(pi1,pi2) -> x*pi", "V(pi2,pi3) -> y*pib",
             "V(pi2,pi1) -> -x*pi"]
    with pytest.raises(ParseError) as err:
        parse_hook_table(lines, spec.symbols)
    assert "line 4" in str(err.value) and "line 2" in str(err.value)


def test_cli_mode_override_is_checked():
    code, out, err = run_cli("run", spec_path("quadratic.kt"), "--mode", "koszul-compare")
    assert code == 2 and out == ""
    assert "input error" in err and "koszul = true" in err


BUNDLED_SPECS = ["koszul_compare.kt", "koszul_function.kt", "monomial_ideal.kt",
                 "quadratic.kt", "regular_sequence.kt", "taylor_shear.kt"]


def test_bundled_specs_are_every_example_spec():
    examples = Path(spec_path("quadratic.kt")).parent
    assert sorted(BUNDLED_SPECS) == sorted(p.name for p in examples.glob("*.kt"))


@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_cli_every_spec_and_mode_ends_in_a_report_or_input_error(name):
    koszul_ready = name == "koszul_compare.kt"
    for mode in ("explicit", "general", "koszul-compare"):
        code, out, err = run_cli("run", spec_path(name), "--mode", mode,
                                 "--neg-degree-max", "4")
        assert "Traceback" not in err, (mode, err)
        if mode == "koszul-compare" and not koszul_ready:
            assert code == 2 and "input error" in err
        else:
            assert code == 0 and "result: PASS" in out, (mode, out)


@pytest.mark.parametrize("depth", [4, 5, 6])
@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_general_mode_passes_with_trees_checked_through_the_truncation(capsys, name, depth):
    assert main(["run", spec_path(name), "--mode", "general",
                 "--neg-degree-max", str(depth)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert f"sources, trees through negative degree {depth})" in out


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("mode", ["explicit", "general"])
def test_low_truncation_product_defect_reads_solved_tree_tables(capsys, mode, depth):
    """Tree tables are solved through length - k at every K, so the level-1
    product defect reads a solved V(e1,e2) even at K = 1 and 2."""
    assert main(["run", spec_path("taylor_shear.kt"), "--mode", mode,
                 "--neg-degree-max", str(depth)]) == 0
    out = capsys.readouterr().out
    assert "level-1 product defect: pass (49 generator pairs)" in out
    residues = out.split("[residues]\n")[1].split("\n\n")[0].splitlines()
    assert "level 0: V(e1,e2) = xi*e123" in residues


@pytest.mark.parametrize("depth", range(1, 7))
def test_explicit_and_general_reports_differ_only_in_the_mode(capsys, depth):
    reports = []
    for mode in ("explicit", "general"):
        assert main(["run", spec_path("taylor_shear.kt"), "--mode", mode,
                     "--neg-degree-max", str(depth)]) == 0
        reports.append(capsys.readouterr().out.splitlines())
    differing = [(a, b) for a, b in zip(*reports) if a != b]
    assert len(reports[0]) == len(reports[1])
    assert [a.split(":")[0] for a, _ in differing] == ["mode", "solve_extension"]


def test_unselected_verifiers_do_not_run(monkeypatch):
    import ktforest.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("an unselected verifier ran")

    for name in ("verify_retract", "verify_hook_product_leibniz", "verify_incl_proj",
                 "verify_product_defect"):
        monkeypatch.setattr(cli, name, boom)
    spec = parse_spec(spec_path("koszul_function.kt"))
    spec.options["verify"] = "square_zero extension"
    report = run(spec)
    assert report.all_passed(), emit(report, "text")
    assert [v["name"] for v in report.verdicts] == [
        "tree differential square zero", "ideal preservation",
        "total differential square zero"]


def _quadratic_with_options(tmp_path, *option_lines):
    text = open(spec_path("quadratic.kt"), encoding="utf-8").read()
    head = text.split("[options]")[0]
    path = tmp_path / "spec.kt"
    path.write_text(head + "[options]\n" + "".join(f"{line}\n" for line in option_lines))
    return str(path)


def test_zero_denominator_is_an_input_error(tmp_path):
    text = open(spec_path("quadratic.kt"), encoding="utf-8").read()
    bad = tmp_path / "bad.kt"
    bad.write_text(text.replace("gens = x^2, x*y, y^2", "gens = x^2, 1/0*y^2"))
    code, out, err = run_cli("run", str(bad))
    assert code == 2 and out == "" and "Traceback" not in err
    assert "input error" in err and "zero denominator" in err

    table = tmp_path / "hook.txt"
    table.write_text("V(pi1,pi2) -> 1/0*x*pi\n")
    code, out, err = run_cli("verify", spec_path("quadratic.kt"), "--hook", str(table))
    assert code == 2 and out == "" and "Traceback" not in err
    assert "input error" in err and "zero denominator" in err


@pytest.mark.parametrize("options,flags", [
    (["neg_degree_max = abc"], []),
    (["poly_cap = x"], []),
    (["poly_cap = -1"], []),
    (["neg_degree_max = 0"], []),
    ([], ["--neg-degree-max", "0"]),
    ([], ["--poly-cap", "-1"]),
])
def test_bad_truncation_is_an_input_error(tmp_path, options, flags):
    path = _quadratic_with_options(tmp_path, *options)
    code, out, err = run_cli("run", path, *flags)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "input error" in err
    assert "neg_degree_max" in err or "poly_cap" in err


def test_unknown_verifier_name_is_an_input_error(tmp_path):
    path = _quadratic_with_options(tmp_path, "neg_degree_max = 4", "verify = square_zero retrac")
    code, out, err = run_cli("run", path)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "input error" in err and "retrac" in err


def test_repeated_option_is_rejected(tmp_path):
    path = _quadratic_with_options(tmp_path, "mode = explicit", "poly_cap = 4",
                                   "poly_cap = 5")
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    lines = open(path, encoding="utf-8").read().splitlines()
    first, second = [i + 1 for i, line in enumerate(lines) if line.startswith("poly_cap")]
    assert str(err.value) == f"line {second}: option 'poly_cap' already given on line {first}"
    code, out, err_text = run_cli("run", path)
    assert code == 2 and out == "" and "input error" in err_text


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cli_basis_degree_below_one_is_an_input_error(degree):
    code, out, err = run_cli("basis", spec_path("quadratic.kt"), "--degree", degree)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "input error" in err


@pytest.mark.parametrize("name, depth, checked", [
    ("monomial_ideal.kt", 3, "81 generator pairs"),
    ("quadratic.kt", 1, "25 generator pairs"),
    ("quadratic.kt", 2, "25 generator pairs"),
])
def test_hook_product_leibniz_below_the_resolution_length(capsys, name, depth, checked):
    # the hook is solved through length + 1 whatever K is, so every pair is
    # checked: 9 x 9 generators on monomial_ideal.kt (ranks 4, 4, 1), 5 x 5
    # on quadratic.kt (ranks 3, 2)
    assert main(["run", spec_path(name), "--neg-degree-max", str(depth)]) == 0
    out = capsys.readouterr().out
    assert f"hook product Leibniz: pass ({checked})" in out
    assert "solve_hook: pass (0 nonzero values)" not in out


@pytest.mark.parametrize("depth", [1, 2])
def test_koszul_comparison_below_the_product_window(capsys, depth):
    # koszul_hook fills trees through length + 1 = 3 whatever K is, so all
    # 9 pairs of the 3 generators are checked, the 4 pairs of depth-1
    # generators (two-leaf trees of degree -3) among them
    assert main(["run", spec_path("koszul_compare.kt"), "--neg-degree-max", str(depth)]) == 0
    out = capsys.readouterr().out
    assert ("koszul comparison: pass (hook recursion + product table through degree 3)"
            in out)
    assert "V(e1,e2) -> e12" in out


def test_verify_checks_the_hook_through_length_plus_one_at_low_truncation(tmp_path):
    # monomial_ideal.kt has length 3: at K = 2 the 26 basis trees of degrees
    # -3 and -4 are checked, which a window of K would leave out
    hook = spec_path("monomial_ideal_hook.txt")
    code, out, _ = run_cli("verify", spec_path("monomial_ideal.kt"), "--hook", hook,
                           "--neg-degree-max", "2")
    assert code == 0
    assert out == "hook recursion: pass (26 basis trees through negative degree 4)\n"

    text = open(hook, encoding="utf-8").read()
    assert "V(e1,e3) -> x*e13\n" in text
    wrong = tmp_path / "hook.txt"
    wrong.write_text(text.replace("V(e1,e3) -> x*e13\n", "V(e1,e3) -> y*e13\n"))
    code, out, _ = run_cli("verify", spec_path("monomial_ideal.kt"), "--hook", str(wrong),
                           "--neg-degree-max", "2")
    assert code == 1
    assert out.startswith("hook recursion: FAIL (26 basis trees through negative degree 4)\n")
    assert "V(e1,e3): d(hook) = " in out


def _edited_spec(tmp_path, name, line, replacement):
    """A bundled spec with one of its lines replaced; also returns the line
    number of the replacement's last line."""
    lines = open(spec_path(name), encoding="utf-8").read().splitlines()
    at = lines.index(line)
    new = replacement.splitlines()
    lines[at:at + 1] = new
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path), at + len(new)


REPEATED_ROWS = [
    ("quadratic.kt", "vars = x, y", "vars = x, y\nvars = x, y, z"),
    ("quadratic.kt", "Q x = x*xi1 + y*xi2", "Q x = x*xi1 + y*xi2\nQ x = x*xi1"),
    ("quadratic.kt", "Q xi1 = -y*eta1 + xi2*xi3", "Q xi1 = -y*eta1 + xi2*xi3\nQ  xi1 = 0"),
    ("quadratic.kt", "d pi = x*pi2 - y*pi1", "d pi = x*pi2 - y*pi1\nd pi = x*pi2"),
    ("quadratic.kt", "augment pi1 = x^2", "augment pi1 = x^2\naugment pi1 = x^3"),
    ("quadratic.kt", "generators -2 = pi, pib", "generators -2 = pi\ngenerators -2 = pib"),
    ("koszul_compare.kt", "Q0 e1 = -2*x*e1*xi11 - 2*x*e2*xi12",
     "Q0 e1 = -2*x*e1*xi11 - 2*x*e2*xi12\nQ0 e1 = 0"),
]


@pytest.mark.parametrize("name, line, replacement", REPEATED_ROWS,
                         ids=["vars", "Q-variable", "Q-generator", "d", "augment",
                              "resolution-generators", "koszul-Q0"])
def test_repeated_row_is_an_input_error(tmp_path, name, line, replacement):
    path, second = _edited_spec(tmp_path, name, line, replacement)
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    assert str(err.value).startswith(f"line {second}: ")
    assert f"already given on line {second - 1}" in str(err.value)
    code, out, err_text = run_cli("run", path)
    assert code == 2 and out == "" and "input error" in err_text


@pytest.mark.parametrize("line, replacement", [
    ("gens = x^2, x*y, y^2", "gens = x^2, x*y\ngens = y^2"),
    ("generators 1 = xi1, xi2, xi3, xi4", "generators 1 = xi1, xi2\ngenerators 1 = xi3, xi4"),
], ids=["ideal-gens", "positive-generators"])
def test_appending_rows_stay_accepted(tmp_path, line, replacement):
    bundled = parse_spec(spec_path("quadratic.kt"))
    spec = parse_spec(_edited_spec(tmp_path, "quadratic.kt", line, replacement)[0])
    assert spec.ideal == bundled.ideal
    assert spec.positive.gens == bundled.positive.gens


def test_row_without_a_key_is_an_input_error(tmp_path):
    path, number = _edited_spec(tmp_path, "quadratic.kt", "d pi = x*pi2 - y*pi1", " = x*pi2")
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    assert str(err.value) == f"line {number}: expected 'key = value', got '= x*pi2'"
    code, out, err_text = run_cli("run", path)
    assert code == 2 and out == "" and "Traceback" not in err_text


@pytest.mark.parametrize("line, replacement", [
    ("generators -2 = pi, pib", "generators -x = pi, pib"),
    ("generators 2 = eta1, eta2", "generators two = eta1, eta2"),
], ids=["resolution", "positive"])
def test_non_integer_generator_degree_names_its_line(tmp_path, line, replacement):
    path, number = _edited_spec(tmp_path, "quadratic.kt", line, replacement)
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    assert str(err.value).startswith(f"line {number}: generator degree must be an integer")


@pytest.mark.parametrize("replacement", ["d pi = x*pi2 - y*pi1 + x^3",
                                         "d pi = x*pi2 - y*pi1 + pi1*pi2"],
                         ids=["scalar", "tree-product"])
def test_d_row_with_a_non_module_term_names_its_line(tmp_path, replacement):
    path, number = _edited_spec(tmp_path, "quadratic.kt", "d pi = x*pi2 - y*pi1", replacement)
    value = replacement.split("=", 1)[1].strip()
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    assert str(err.value) == f"line {number}: not a module element: {value!r}"
    code, out, err_text = run_cli("run", path)
    assert code == 2 and out == "" and f"line {number}: not a module element" in err_text


@pytest.mark.parametrize("value", ["x*pi + 1", "xi1*pi"], ids=["scalar", "positive"])
def test_hook_line_with_a_non_module_term_names_its_line(tmp_path, value):
    table = tmp_path / "hook.txt"
    table.write_text(f"# header\nV(pi1,pi2) -> {value}\n")
    code, out, err = run_cli("verify", spec_path("quadratic.kt"), "--hook", str(table))
    assert code == 2 and out == ""
    assert f"input error: line 2: not a module element: {value!r}" in err
