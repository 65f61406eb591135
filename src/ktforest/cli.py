"""Problem-spec ingestion, pipeline orchestration, and report emission.

A problem spec is a sectioned text file: the ring, the ideal, a resolution
(explicit rows or `koszul = true`), an optional positive part, optional
ingested level tables for the Koszul comparison, and options.  The `run`
command executes the full pipeline (complex and exactness checks, hook
solving, the requested extension mode, and every verifier) and emits a
deterministic text or JSON report.  Exit codes: 0 all verdicts pass,
1 verification failure, 2 input error, 3 a lifting step had no solution.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from .extension import (PositivePart, check_ideal_preserved, koszul_hook, koszul_mode,
                        solve_general_extension, solve_residues_explicit, verify_extension,
                        verify_incl_proj, verify_product_defect)
from .forest import AlgebraElement, Node, enumerate_tree_basis, is_leaf, tree_str
from .grammar import (ParseError, SymbolTable, parse_element, parse_hook_table,
                      parse_module_element)
from .kt import (HookMap, SolveError, solve_hook, verify_hook, verify_hook_product_leibniz,
                 verify_retract, verify_square_zero)
from .poly import Poly, RingSpec
from .resolution import (FreeResolution, GeneratorId, KoszulComplex, ModuleElement,
                         build_koszul_complex, ideal_member, quotient_dims)


class SpecError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ProblemSpec:
    def __init__(self, name: str, ring: RingSpec, ideal: List[Poly],
                 resolution: FreeResolution, positive: Optional[PositivePart],
                 symbols: SymbolTable,
                 koszul_tables: Dict[int, Dict[GeneratorId, AlgebraElement]],
                 options: Optional[dict] = None):
        self.name = name
        self.ring = ring
        self.ideal = ideal
        self.resolution = resolution
        self.positive = positive
        self.symbols = symbols
        self.koszul_tables = koszul_tables
        self.options = {} if options is None else options

    @property
    def mode(self) -> str:
        return self.options.get("mode", "explicit")

    @property
    def neg_degree_max(self) -> int:
        return int(self.options.get("neg_degree_max", 6))

    @property
    def poly_cap(self) -> int:
        return int(self.options.get("poly_cap", 6))


SECTIONS = ("ring", "ideal", "resolution", "positive", "koszul_q", "options")
# rows that add to the rows before them; any other key is given once
APPENDING_ROWS = {("ideal", "gens"), ("positive", "generators")}


def _read_sections(text: str):
    """Split into sections of (line_number, key, value) rows."""
    sections: Dict[str, list] = {}
    first_line: Dict[tuple, int] = {}
    current = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current not in SECTIONS:
                raise SpecError(f"unknown section [{current}]; known: {' '.join(SECTIONS)}",
                                number)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise SpecError("content before the first section header", number)
        key, equals, value = line.partition("=")
        key = " ".join(key.split())
        if not equals or not key:
            raise SpecError(f"expected 'key = value', got {stripped!r}", number)
        if (current, key.split(" ")[0]) not in APPENDING_ROWS:
            if (current, key) in first_line:
                what = "option" if current == "options" else f"[{current}] row"
                raise SpecError(f"{what} {key!r} already given on line "
                                f"{first_line[current, key]}", number)
            first_line[current, key] = number
        sections[current].append((number, key, value.strip()))
    return sections


def _on_line(number: Optional[int], build, *args):
    """build(*args), its ValueError raised as a SpecError naming line `number`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SpecError(str(exc), number) from None


def _degree(word: str, number: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise SpecError(f"generator degree must be an integer, got {word!r}", number) from None


def _split_names(value: str) -> List[str]:
    return [t for chunk in value.split(",") for t in chunk.split() if t]


def parse_spec(path: str, text: Optional[str] = None) -> ProblemSpec:
    """Parse and validate a problem spec; errors carry line numbers."""
    if text is None:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    sections = _read_sections(text)

    if "ring" not in sections:
        raise SpecError("missing [ring] section")
    ring = None
    for number, key, value in sections["ring"]:
        if key == "vars":
            ring = RingSpec(_split_names(value))
        else:
            raise SpecError(f"unknown ring key {key!r}", number)
    if ring is None:
        raise SpecError("missing vars in [ring]")

    ideal: List[Poly] = []
    ideal_lines: List[int] = []  # the gens line of each generator
    for number, key, value in sections.get("ideal", []):
        if key != "gens":
            raise SpecError(f"unknown ideal key {key!r}", number)
        for chunk in value.split(","):
            gen = _on_line(number, Poly.parse, chunk, ring)
            if gen.is_zero():
                raise SpecError(f"ideal generator {chunk.strip()!r} is zero", number)
            ideal.append(gen)
            ideal_lines.append(number)

    resolution, res_symbols = _parse_resolution(sections, ring, ideal)
    # the augmentation's image; a zero value generates nothing
    augmented = [p for p in resolution.ideal_generators() if not p.is_zero()]
    if not ideal:
        ideal = augmented
        if not ideal:
            raise SpecError("the augmentation is zero on every generator: no ideal to resolve")
    elif ideal != augmented:
        _check_same_ideal(ring, ideal, ideal_lines, augmented)

    positive, symbols = _parse_positive(sections, ring, res_symbols)
    koszul_tables = _parse_koszul_tables(sections, resolution, symbols)

    options = {}
    for number, key, value in sections.get("options", []):
        if key not in OPTIONS:
            raise SpecError(f"unknown option {key!r}; known: {' '.join(OPTIONS)}", number)
        options[key] = value

    name = path.rsplit("/", 1)[-1]
    spec = ProblemSpec(name, ring, ideal, resolution, positive, symbols,
                       koszul_tables, options)
    check_mode(spec)
    return spec


def _check_same_ideal(ring: RingSpec, ideal: List[Poly], lines: List[int],
                      augmented: List[Poly]) -> None:
    """Each [ideal] generator in the ideal of the augmentation values, and
    each of those in the [ideal]; a SpecError names the gens line."""
    for gen, number in zip(ideal, lines):
        if not ideal_member(ring, augmented, gen):
            raise SpecError(f"ideal generator {gen} is not in the ideal of the "
                            "resolution's augmentation values", number)
    for value in augmented:
        if not ideal_member(ring, ideal, value):
            raise SpecError(f"augmentation value {value} is not in the ideal "
                            "of the [ideal] generators", lines[0])


OPTIONS = ("mode", "neg_degree_max", "poly_cap", "verify")
VERIFIERS = ("square_zero", "retract", "hook_product", "extension", "incl_proj", "star")


def check_mode(spec: ProblemSpec) -> None:
    """Reject a mode, truncation or verifier name, from the spec or the command line."""
    for key, least in (("neg_degree_max", 1), ("poly_cap", 0)):
        try:
            valid = getattr(spec, key) >= least
        except ValueError:
            valid = False
        if not valid:
            raise SpecError(f"{key} must be an integer of at least {least}, "
                            f"got {spec.options[key]!r}")
    unknown = sorted(set(spec.options.get("verify", "").split()) - set(VERIFIERS))
    if unknown:
        raise SpecError(f"unknown verifier name(s) {', '.join(unknown)}; "
                        f"known: {' '.join(VERIFIERS)}")
    mode = spec.mode
    if mode not in ("explicit", "general", "koszul-compare"):
        raise SpecError(f"unknown mode {mode!r}")
    if mode == "koszul-compare":
        if not isinstance(spec.resolution, KoszulComplex):
            raise SpecError("koszul-compare mode needs `koszul = true` in [resolution]")
        if spec.positive is None or not spec.koszul_tables:
            raise SpecError("koszul-compare mode needs [positive] and [koszul_q] sections")


def _parse_resolution(sections, ring, ideal):
    rows = sections.get("resolution")
    if rows is None:
        raise SpecError("missing [resolution] section")
    use_koszul = any(key == "koszul" and value.lower() in ("true", "yes", "1")
                     for _n, key, value in rows)
    if use_koszul:
        explicit = [key for _n, key, _v in rows if key != "koszul"]
        if explicit:
            raise SpecError("exactly one resolution source: drop the explicit "
                            f"rows ({explicit[0]!r} ...) or `koszul = true`")
        if not ideal:
            raise SpecError("koszul resolution needs [ideal] generators")
        res = build_koszul_complex(ideal)
        return res, {g.label: g for gens in res.gens_by_degree.values() for g in gens}
    gens_by_degree: Dict[int, list] = {}
    by_label: Dict[str, GeneratorId] = {}
    value_rows = []  # (line, "d" or "augment", generator label, value)
    for number, key, value in rows:
        parts = key.split()
        if parts[0] == "generators" and len(parts) == 2:
            degree = _degree(parts[1], number)
            if degree >= 0:
                raise SpecError("resolution degrees are negative", number)
            labels = _split_names(value)
            gens = []
            for i, label in enumerate(labels):
                if label in by_label:
                    raise SpecError(f"duplicate generator {label!r}", number)
                g = GeneratorId(degree, i, label)
                by_label[label] = g
                gens.append(g)
            gens_by_degree[degree] = gens
        elif parts[0] in ("d", "augment") and len(parts) == 2:
            value_rows.append((number, parts[0], parts[1], value))
        elif parts[0] == "koszul":
            continue
        else:
            raise SpecError(f"unknown resolution key {key!r}", number)
    symbols = SymbolTable(ring, by_label)
    diff: Dict[GeneratorId, ModuleElement] = {}
    augment: Dict[GeneratorId, Poly] = {}
    for number, kind, label, value in value_rows:
        gen = by_label.get(label)
        if gen is None:
            raise SpecError(f"unknown generator {label!r} in {kind} row", number)
        if kind == "augment":
            if gen.module_degree != -1:
                raise SpecError(f"augment is given on depth-1 generators, not {label}", number)
            augment[gen] = _on_line(number, Poly.parse, value, ring)
        elif gen.module_degree == -1:
            raise SpecError(f"d is given on generators of depth at least 2, not {label}", number)
        else:
            diff[gen] = _on_line(number, parse_module_element, value, symbols)
    res = _on_line(None, FreeResolution, ring, gens_by_degree, diff, augment)
    return res, dict(by_label)


def _parse_positive(sections, ring, res_symbols):
    rows = sections.get("positive")
    all_symbols = dict(res_symbols)
    if rows is None:
        return None, SymbolTable(ring, all_symbols)
    gens: List[GeneratorId] = []
    q_rows = []
    for number, key, value in rows:
        parts = key.split()
        if parts[0] == "generators" and len(parts) == 2:
            degree = _degree(parts[1], number)
            if degree < 1:
                raise SpecError("positive degrees start at 1", number)
            index0 = sum(1 for g in gens if g.module_degree == degree)
            for i, label in enumerate(_split_names(value)):
                if label in all_symbols:
                    raise SpecError(f"duplicate label {label!r}", number)
                g = GeneratorId(degree, index0 + i, label)
                gens.append(g)
                all_symbols[label] = g
        elif parts[0] == "Q" and len(parts) == 2:
            q_rows.append((number, parts[1], value))
        else:
            raise SpecError(f"unknown positive key {key!r}", number)
    symbols = SymbolTable(ring, all_symbols)
    q_on_vars: Dict[int, AlgebraElement] = {}
    q_on_gens: Dict[GeneratorId, AlgebraElement] = {}
    by_label = {g.label: g for g in gens}
    for number, target, value in q_rows:
        elem = _on_line(number, parse_element, value, symbols)
        if target in ring.names:
            q_on_vars[ring.var_index(target)] = elem
        elif target in by_label:
            q_on_gens[by_label[target]] = elem
        else:
            raise SpecError(f"unknown derivation target {target!r}", number)
    for g in gens:
        q_on_gens.setdefault(g, AlgebraElement.zero(ring))
    positive = _on_line(None, PositivePart, ring, gens, q_on_vars, q_on_gens)
    return positive, symbols


def _parse_koszul_tables(sections, resolution, symbols):
    rows = sections.get("koszul_q")
    if not rows:
        return {}
    tables: Dict[int, Dict[GeneratorId, AlgebraElement]] = {}
    for number, key, value in rows:
        parts = key.split()
        if len(parts) != 2 or not parts[0].startswith("Q"):
            raise SpecError(f"expected 'Q<level> <generator>', got {key!r}", number)
        try:
            level = int(parts[0][1:])
        except ValueError:
            raise SpecError(f"bad level in {key!r}", number) from None
        if level < 0:
            raise SpecError(f"level must be nonnegative in {key!r}", number)
        gen = _on_line(number, resolution.gen_by_label, parts[1])
        if gen.module_degree != -1:
            raise SpecError(f"tables are given on depth-1 generators, not {gen.label}", number)
        elem = _on_line(number, parse_element, value, symbols)
        if any(len(trees) != 1 or not is_leaf(trees[0]) for trees, _pos in elem.terms):
            raise SpecError(f"not one generator times positives in each term: {value!r}", number)
        tables.setdefault(level, {})[gen] = elem
    return tables


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class RunReport:
    def __init__(self, spec_name: str, mode: str, options: dict):
        self.spec_name = spec_name
        self.mode = mode
        self.options = options
        self.stages: list = []
        self.quotient: list = []
        self.hook_lines: list = []
        self.residues: list = []
        self.verdicts: list = []
        self.timings: Dict[str, float] = {}
        self.truncation: dict = {}
        self.failed_stage: Optional[str] = None

    def all_passed(self) -> bool:
        return self.failed_stage is None and all(v["passed"] for v in self.verdicts)

    def exit_code(self) -> int:
        """0 all verdicts pass, 3 a lifting step had no solution, 1 any other failure."""
        if any(stage["status"] == "no-solution" for stage in self.stages):
            return 3
        return 0 if self.all_passed() else 1

    def add_stage(self, name: str, status: str, detail: str = "") -> None:
        self.stages.append({"stage": name, "status": status, "detail": detail})

    @contextmanager
    def timed(self, key: str):
        """Time the block under `key`, also when it raises or returns early."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.timings[key] = time.monotonic() - start

    def add_verdict(self, check):
        self.verdicts.append({
            "name": check.name,
            "passed": check.passed,
            "checked": check.checked,
            "failures": [f"{item}: {detail}" for item, detail in check.failures],
        })

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "spec": self.spec_name,
            "mode": self.mode,
            "options": {k: str(v) for k, v in sorted(self.options.items())},
            "stages": self.stages,
            "quotient_dims": self.quotient,
            "hook": self.hook_lines,
            "residues": self.residues,
            "verdicts": self.verdicts,
            "truncation": self.truncation,
            "result": "pass" if self.all_passed() else "fail",
        }
        if self.failed_stage:
            out["failed_stage"] = self.failed_stage
        if include_timings:
            out["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True) + "\n"

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"ktforest report: {self.spec_name}",
                 f"mode: {self.mode}"]
        if self.truncation:
            lines.append("truncation: " + ", ".join(
                f"{k} = {v}" for k, v in sorted(self.truncation.items())))
        lines.append("")
        lines.append("[stages]")
        for stage in self.stages:
            lines.append(f"{stage['stage']}: {stage['status']}"
                         + (f" ({stage['detail']})" if stage.get("detail") else ""))
        if self.quotient:
            lines.append("")
            lines.append("[quotient dims]")
            lines.append(", ".join(str(d) for d in self.quotient))
        if self.hook_lines:
            lines.append("")
            lines.append("[hook]")
            lines.extend(self.hook_lines)
        if self.residues:
            lines.append("")
            lines.append("[residues]")
            for rec in self.residues:
                lines.append(f"level {rec['level']}: {rec['source']} = {rec['value']}")
        lines.append("")
        lines.append("[verdicts]")
        for v in self.verdicts:
            status = "pass" if v["passed"] else "FAIL"
            lines.append(f"{v['name']}: {status} ({v['checked']})")
            for failure in v["failures"][:5]:
                lines.append(f"  {failure}")
        if include_timings:
            lines.append("")
            lines.append("[timings]")
            for k, v in sorted(self.timings.items()):
                lines.append(f"{k}: {v:.3f}s")
        lines.append("")
        lines.append("result: " + ("PASS" if self.all_passed() else "FAIL"))
        return "\n".join(lines) + "\n"


def run(spec: ProblemSpec, hook_table: Optional[HookMap] = None) -> RunReport:
    """Execute the full pipeline on a parsed spec.

    Every mode runs the same stages.  The hook stage solves the hook or
    checks a given table: `hook_table`, or in koszul-compare mode the
    exterior product (`koszul_hook`).  Only the extension stage differs by
    mode: it solves (explicit or general) or ingests (`koszul_mode`).
    Each stage is timed under its `--timings` key, a stage that fails too.
    The first stage that fails, or a lifting step with no solution, ends
    the run.  The optional `verify` option (space-separated names) restricts
    the verifiers that run; everything applicable runs by default, and the
    ideal-preservation gate always.  Every pipeline function is called
    through its module-global name, which `perfbench/tracing.py` rebinds.
    """
    report = RunReport(spec.name, spec.mode, dict(spec.options))
    res, depth, cap = spec.resolution, spec.neg_degree_max, spec.poly_cap
    report.truncation = {"neg_degree_max": depth, "poly_degree_max": cap}
    wanted = set(spec.options.get("verify", "").split() or VERIFIERS)
    timed, stage = report.timed, report.add_stage

    def stop(name):
        report.failed_stage = name
        return report

    try:
        with timed("check_complex"):
            complex_report = res.check_complex()
        stage("check_complex", "pass" if complex_report.passed else "fail",
              complex_report.witness())
        if not complex_report.passed:
            return stop("check_complex")

        with timed("check_exactness"):
            homology = res.check_exactness(cap)
        if not homology.graded:
            stage("check_exactness", "skipped", "resolution is not internally graded")
        elif homology.exact:
            stage("check_exactness", "pass",
                  f"H = 0 in degrees -1..-{res.length} through polynomial degree {cap}")
        else:
            stage("check_exactness", "fail", f"nonzero homology at {homology.failures()[:3]}")
            return stop("check_exactness")

        with timed("quotient_dims"):
            report.quotient = quotient_dims(spec.ring, spec.ideal, cap)

        hook, given = hook_table, "user-supplied table"
        if spec.mode == "koszul-compare":  # the given table is the exterior product
            hook, given = koszul_hook(res, depth), "exterior product on corollas"
        if hook is not None:
            with timed("hook"):
                check = verify_hook(res, hook, depth)
            report.add_verdict(check)  # a given table is always checked
            stage("hook", "verified" if check.passed else "fail", given)
            if not check.passed:
                return stop("hook")
        else:
            with timed("hook"):
                hook = solve_hook(res, depth)
            stage("solve_hook", "pass", f"{len(hook.table)} nonzero values")

        report.hook_lines = hook.lines()
        with timed("negative_part_checks"):
            if "square_zero" in wanted:
                report.add_verdict(verify_square_zero(hook.differential(), depth))
            if "retract" in wanted:
                report.add_verdict(verify_retract(res, hook, depth))
            if "hook_product" in wanted:
                report.add_verdict(verify_hook_product_leibniz(res, hook))

        if spec.positive is None:
            return report
        with timed("check_ideal_preserved"):
            gate = check_ideal_preserved(spec.positive, spec.ideal, cap)
        report.add_verdict(gate)
        if not gate.passed:
            return stop("check_ideal_preserved")
        with timed("extension"):
            if spec.mode == "koszul-compare":
                ext, comparison = koszul_mode(res, spec.positive, hook, spec.koszul_tables)
                report.add_verdict(comparison)
                stage("koszul_mode", "pass" if comparison.passed else "fail",
                      "ingested tables extended through the exterior product")
            else:
                solve = (solve_general_extension if spec.mode == "general"
                         else solve_residues_explicit)
                ext = solve(res, spec.positive, hook, depth)
                stage("solve_extension", "pass",
                      f"levels 0..{ext.level_max} ({spec.mode} mode)")

        with timed("extension_checks"):
            report.residues = ext.residue_records()
            if "extension" in wanted:
                report.add_verdict(verify_extension(ext, depth))
            if "incl_proj" in wanted:
                report.add_verdict(verify_incl_proj(ext, max(depth - 1, 1)))
            if "star" in wanted and (ext.level_max >= 1
                                     or any(isinstance(s, Node) for _k, s in ext.tables)):
                report.add_verdict(verify_product_defect(ext, 1))
    except SolveError as exc:
        stage(exc.stage, "no-solution", f"{exc.item}: {exc.detail}")
        report.options["solver_error"] = str(exc)
        return stop(exc.stage)
    return report


def emit(report: RunReport, fmt: str = "text", include_timings: bool = False) -> str:
    return report.to_json(include_timings) if fmt == "json" else report.to_text(include_timings)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _apply_overrides(spec: ProblemSpec, args) -> None:
    if args.mode:
        spec.options["mode"] = args.mode
    if args.neg_degree_max is not None:
        spec.options["neg_degree_max"] = args.neg_degree_max
    if args.poly_cap is not None:
        spec.options["poly_cap"] = args.poly_cap


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ktforest",
        description="exact tree-based Koszul-Tate resolutions and graded extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="problem spec file")
        p.add_argument("--mode", choices=["explicit", "general", "koszul-compare"])
        p.add_argument("--neg-degree-max", dest="neg_degree_max", type=int)
        p.add_argument("--poly-cap", dest="poly_cap", type=int)

    p_run = sub.add_parser("run", help="run the full pipeline")
    common(p_run)
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.add_argument("--out", help="write the report to a file")
    p_run.add_argument("--timings", action="store_true",
                       help="include timings (breaks byte-stability)")

    p_verify = sub.add_parser("verify", help="verify a hook table against a spec")
    common(p_verify)
    p_verify.add_argument("--hook", required=True, help="hook table file")

    p_basis = sub.add_parser("basis", help="print the tree basis of one degree")
    common(p_basis)
    p_basis.add_argument("--degree", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        spec = parse_spec(args.spec)
        _apply_overrides(spec, args)
        check_mode(spec)
    except (SpecError, ParseError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    if args.command == "basis":
        if args.degree < 1:
            print(f"input error: --degree must be at least 1, got {args.degree}",
                  file=sys.stderr)
            return 2
        for node in enumerate_tree_basis(spec.resolution, args.degree):
            print(tree_str(node))
        return 0

    if args.command == "verify":
        try:
            with open(args.hook, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            table = parse_hook_table(lines, spec.symbols)
            hook = HookMap(spec.resolution, table)
        except (ParseError, OSError, ValueError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        check = verify_hook(spec.resolution, hook, spec.neg_degree_max)
        print(check.summary())
        return 0 if check.passed else 1

    try:  # before the run, so that an unwritable path costs no pipeline
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    with out as handle:
        report = run(spec)
        handle.write(emit(report, args.format, include_timings=args.timings))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
