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
from typing import Dict, List, Optional

from .extension import (ExtensionData, PositivePart, check_ideal_preserved, koszul_mode,
                        solve_general_extension, solve_residues_explicit, verify_extension,
                        verify_incl_proj, verify_product_defect)
from .forest import AlgebraElement, enumerate_tree_basis, tree_str
from .grammar import ParseError, SymbolTable, parse_element, parse_hook_table
from .kt import (HookMap, SolveError, solve_hook, tree_basis_elements, verify_hook,
                 verify_hook_product_leibniz, verify_retract, verify_square_zero)
from .poly import Poly, RingSpec
from .resolution import (FreeResolution, GeneratorId, KoszulComplex, ModuleElement,
                         build_koszul_complex, quotient_dims)


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
    for number, key, value in sections.get("ideal", []):
        if key != "gens":
            raise SpecError(f"unknown ideal key {key!r}", number)
        for chunk in value.split(","):
            try:
                ideal.append(Poly.parse(chunk, ring))
            except ValueError as exc:
                raise SpecError(str(exc), number) from None

    resolution, res_symbols = _parse_resolution(sections, ring, ideal)
    if not ideal:
        ideal = resolution.ideal_generators()

    positive, symbols = _parse_positive(sections, ring, res_symbols)
    koszul_tables = _parse_koszul_tables(sections, resolution, symbols)

    options = {key: value for _n, key, value in sections.get("options", [])}

    name = path.rsplit("/", 1)[-1]
    spec = ProblemSpec(name, ring, ideal, resolution, positive, symbols,
                       koszul_tables, options)
    check_mode(spec)
    return spec


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
    diff_rows, augment_rows = [], []
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
        elif parts[0] == "d" and len(parts) == 2:
            diff_rows.append((number, parts[1], value))
        elif parts[0] == "augment" and len(parts) == 2:
            augment_rows.append((number, parts[1], value))
        elif parts[0] == "koszul":
            continue
        else:
            raise SpecError(f"unknown resolution key {key!r}", number)
    symbols = SymbolTable(ring, by_label)
    diff: Dict[GeneratorId, ModuleElement] = {}
    augment: Dict[GeneratorId, Poly] = {}
    for number, label, value in diff_rows:
        if label not in by_label:
            raise SpecError(f"unknown generator {label!r} in d row", number)
        try:
            elem = parse_element(value, symbols)
            diff[by_label[label]] = elem.module_part()
        except ValueError as exc:
            raise SpecError(str(exc), number) from None
    for number, label, value in augment_rows:
        if label not in by_label:
            raise SpecError(f"unknown generator {label!r} in augment row", number)
        try:
            augment[by_label[label]] = Poly.parse(value, ring)
        except ValueError as exc:
            raise SpecError(str(exc), number) from None
    try:
        res = FreeResolution(ring, gens_by_degree, diff, augment)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
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
        try:
            elem = parse_element(value, symbols)
        except ValueError as exc:
            raise SpecError(str(exc), number) from None
        if target in ring.names:
            q_on_vars[ring.var_index(target)] = elem
        elif target in by_label:
            q_on_gens[by_label[target]] = elem
        else:
            raise SpecError(f"unknown derivation target {target!r}", number)
    for g in gens:
        q_on_gens.setdefault(g, AlgebraElement.zero(ring))
    try:
        positive = PositivePart(ring, gens, q_on_vars, q_on_gens)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
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
        try:
            gen = resolution.gen_by_label(parts[1])
            elem = parse_element(value, symbols)
        except ValueError as exc:
            raise SpecError(str(exc), number) from None
        tables.setdefault(level, {})[gen] = elem
    return tables


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class RunReport:
    def __init__(self, spec_name: str, mode: str, options: dict,
                 stages: Optional[list] = None, quotient: Optional[list] = None,
                 hook_lines: Optional[list] = None, residues: Optional[list] = None,
                 verdicts: Optional[list] = None, timings: Optional[dict] = None,
                 truncation: Optional[dict] = None, failed_stage: Optional[str] = None):
        self.spec_name = spec_name
        self.mode = mode
        self.options = options
        self.stages = [] if stages is None else stages
        self.quotient = [] if quotient is None else quotient
        self.hook_lines = [] if hook_lines is None else hook_lines
        self.residues = [] if residues is None else residues
        self.verdicts = [] if verdicts is None else verdicts
        self.timings = {} if timings is None else timings
        self.truncation = {} if truncation is None else truncation
        self.failed_stage = failed_stage

    def all_passed(self) -> bool:
        return self.failed_stage is None and all(v["passed"] for v in self.verdicts)

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

    The optional `verify` option (space-separated names) restricts the
    verifiers that run; everything applicable runs by default, and the
    ideal-preservation gate always.
    """
    report = RunReport(spec.name, spec.mode, dict(spec.options))
    selected = spec.options.get("verify")
    selected = set(selected.split()) if selected else None

    def wanted(tag):
        return selected is None or tag in selected
    depth = spec.neg_degree_max
    cap = spec.poly_cap
    report.truncation = {"neg_degree_max": depth, "poly_degree_max": cap}
    res = spec.resolution
    clock = time.monotonic

    def stage(name, status, detail=""):
        report.stages.append({"stage": name, "status": status, "detail": detail})

    t0 = clock()
    complex_report = res.check_complex()
    report.timings["check_complex"] = clock() - t0
    stage("check_complex", "pass" if complex_report.passed else "fail",
          complex_report.witness())
    if not complex_report.passed:
        report.failed_stage = "check_complex"
        return report

    t0 = clock()
    homology = res.check_exactness(cap)
    report.timings["check_exactness"] = clock() - t0
    if not homology.graded:
        stage("check_exactness", "skipped", "resolution is not internally graded")
    else:
        bad = homology.failures()
        stage("check_exactness",
              "pass" if homology.exact else "fail",
              f"H = 0 in degrees -1..-{res.length} through polynomial degree {cap}"
              if homology.exact else f"nonzero homology at {bad[:3]}")
        if not homology.exact:
            report.failed_stage = "check_exactness"
            return report
    t0 = clock()
    try:
        report.quotient = quotient_dims(spec.ring, spec.ideal, cap)
    except ValueError:
        report.quotient = []
    report.timings["quotient_dims"] = clock() - t0

    try:
        t0 = clock()
        if hook_table is not None:
            hook = hook_table
            check = verify_hook(res, hook, depth)
            report.add_verdict(check)  # a user table is always checked
            stage("hook", "verified" if check.passed else "fail", "user-supplied table")
            if not check.passed:
                report.failed_stage = "hook"
                return report
        elif spec.mode == "koszul-compare":
            hook = None
        else:
            hook = solve_hook(res, depth)
            stage("solve_hook", "pass", f"{len(hook.table)} nonzero values")
        report.timings["hook"] = clock() - t0

        if hook is not None:
            report.hook_lines = hook.lines()
            t0 = clock()
            if wanted("square_zero"):
                report.add_verdict(verify_square_zero(
                    hook.differential().apply, tree_basis_elements(res, depth),
                    label="tree differential square zero",
                    checked=f"basis trees through negative degree {depth}"))
            if wanted("retract"):
                report.add_verdict(verify_retract(res, hook, depth))
            if wanted("hook_product"):
                report.add_verdict(verify_hook_product_leibniz(res, hook))
            report.timings["negative_part_checks"] = clock() - t0

        ext: Optional[ExtensionData] = None
        if spec.mode == "koszul-compare":
            t0 = clock()
            ext, comparison = koszul_mode(res, spec.positive, spec.koszul_tables, depth)
            report.hook_lines = ext.hook.lines()
            report.add_verdict(comparison)
            stage("koszul_mode", "pass" if comparison.passed else "fail",
                  "ingested tables extended through the exterior product")
            report.timings["extension"] = clock() - t0
        elif spec.positive is not None:
            t0 = clock()
            gate = check_ideal_preserved(spec.positive, spec.ideal, cap)
            report.timings["check_ideal_preserved"] = clock() - t0
            report.add_verdict(gate)
            if not gate.passed:
                report.failed_stage = "check_ideal_preserved"
                return report
            t0 = clock()
            if spec.mode == "general":
                ext = solve_general_extension(res, spec.positive, hook, depth)
            else:
                ext = solve_residues_explicit(res, spec.positive, hook, depth)
            report.timings["extension"] = clock() - t0
            stage("solve_extension", "pass",
                  f"levels 0..{ext.level_max} ({spec.mode} mode)")

        if ext is not None:
            t0 = clock()
            report.residues = ext.residue_records()
            checks = [("extension", verify_extension, depth),
                      ("incl_proj", verify_incl_proj, max(depth - 1, 1))]
            if ext.level_max >= 1 or ext.chi:
                checks.append(("star", verify_product_defect, 1))
            for tag, verifier, bound in checks:
                if wanted(tag):
                    report.add_verdict(verifier(ext, bound))
            report.timings["extension_checks"] = clock() - t0
    except SolveError as exc:
        stage(exc.stage, "no-solution", f"{exc.item}: {exc.detail}")
        report.failed_stage = exc.stage
        report.options["solver_error"] = str(exc)
        return report

    return report


def emit(report: RunReport, fmt: str = "text", path: Optional[str] = None,
         include_timings: bool = False) -> str:
    text = report.to_json(include_timings) if fmt == "json" \
        else report.to_text(include_timings)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


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

    try:
        report = run(spec)
    except SolveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    text = emit(report, args.format, args.out, include_timings=args.timings)
    if not args.out:
        sys.stdout.write(text)
    if report.failed_stage is not None:
        solver_stages = [s for s in report.stages if s["status"] == "no-solution"]
        return 3 if solver_stages else 1
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
