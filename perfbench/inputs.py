"""Workload inputs and the engine-independent output checks.

Everything here uses its own integer arithmetic on exponent tuples and
never imports `ktforest`, so a check cannot share a fault with the engine.
"""

from __future__ import annotations

import itertools
import random
import re
from math import comb
from typing import Dict, List, Sequence, Tuple

Exponent = Tuple[int, ...]
VARS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# monomial arithmetic
# ---------------------------------------------------------------------------

def divides(a: Exponent, b: Exponent) -> bool:
    return all(p <= q for p, q in zip(a, b))


def lcm(monomials: Sequence[Exponent]) -> Exponent:
    return tuple(max(col) for col in zip(*monomials))


def monomial_text(exp: Exponent, names: Sequence[str] = VARS) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    return "*".join(factors) if factors else "1"


def exponents_of_degree(num_vars: int, degree: int) -> List[Exponent]:
    if num_vars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in exponents_of_degree(num_vars - 1, degree - first)]


def standard_monomial_counts(gens: Sequence[Exponent], cap: int) -> List[int]:
    """dim (O/I)_k for a monomial ideal: monomials of degree k outside I."""
    num_vars = len(gens[0])
    return [sum(1 for m in exponents_of_degree(num_vars, k)
                if not any(divides(g, m) for g in gens))
            for k in range(cap + 1)]


# ---------------------------------------------------------------------------
# Taylor resolutions
# ---------------------------------------------------------------------------

def random_minimal_monomials(rng: random.Random, count: int = 4, num_vars: int = 3,
                             max_degree: int = 3) -> List[Exponent]:
    """`count` distinct monomials, none dividing another, no constant."""
    pool = [e for d in range(2, max_degree + 1) for e in exponents_of_degree(num_vars, d)]
    while True:
        picked = rng.sample(pool, count)
        if not any(a != b and divides(a, b) for a in picked for b in picked):
            return sorted(picked, key=lambda e: (sum(e), tuple(-v for v in e)))


def taylor_subsets(count: int) -> List[Tuple[int, ...]]:
    return [s for size in range(1, count + 1)
            for s in itertools.combinations(range(count), size)]


def taylor_label(subset: Tuple[int, ...]) -> str:
    return "e" + "".join(str(i + 1) for i in subset)


def taylor_differential(gens: Sequence[Exponent]) -> Dict[Tuple[int, ...], Dict[Tuple[int, ...], Tuple[int, Exponent]]]:
    """d(e_S) = sum_j (-1)^j (m_S / m_{S - s_j}) e_{S - s_j}, j counted from 0."""
    diff = {}
    for subset in taylor_subsets(len(gens)):
        if len(subset) < 2:
            continue
        top = lcm([gens[i] for i in subset])
        terms = {}
        for j in range(len(subset)):
            face = subset[:j] + subset[j + 1:]
            low = lcm([gens[i] for i in face])
            terms[face] = (-1 if j % 2 else 1, tuple(a - b for a, b in zip(top, low)))
        diff[subset] = terms
    return diff


def taylor_square(gens: Sequence[Exponent], diff: Dict) -> Dict[Tuple[int, ...], Dict]:
    """d∘d of the differential `diff` on every generator, with the augmentation
    at the bottom; all zero for `taylor_differential(gens)`."""
    out = {}
    for subset, terms in diff.items():
        acc: Dict = {}
        for face, (sign, coeff) in terms.items():
            if len(face) == 1:
                mono = tuple(a + b for a, b in zip(coeff, gens[face[0]]))
                acc[("O", mono)] = acc.get(("O", mono), 0) + sign
                continue
            for face2, (sign2, coeff2) in diff[face].items():
                mono = tuple(a + b for a, b in zip(coeff, coeff2))
                acc[(face2, mono)] = acc.get((face2, mono), 0) + sign * sign2
        out[subset] = {k: v for k, v in acc.items() if v}
    return out


def taylor_rank_degrees(gens: Sequence[Exponent]) -> Dict[int, List[int]]:
    """Internal degrees deg(m_S) of the generators of each homological degree."""
    out: Dict[int, List[int]] = {}
    for subset in taylor_subsets(len(gens)):
        out.setdefault(len(subset), []).append(sum(lcm([gens[i] for i in subset])))
    return out


def euler_characteristic(gens: Sequence[Exponent], cap: int) -> List[int]:
    """sum_i (-1)^i dim (F_i)_k on every slice k, F_0 = O, from the lcm degrees."""
    num_vars = len(gens[0])
    shifts = {0: [0], **taylor_rank_degrees(gens)}

    def free_dim(k, shift):
        return comb(k - shift + num_vars - 1, num_vars - 1) if k >= shift else 0

    return [sum((-1) ** i * free_dim(k, s) for i, degs in shifts.items() for s in degs)
            for k in range(cap + 1)]


def taylor_spec(gens: Sequence[Exponent], neg_degree_max: int, poly_cap: int) -> str:
    """The Taylor resolution of <gens> with the torus action Q x_i = x_i xi_i."""
    num_vars = len(gens[0])
    names = VARS[:num_vars]
    diff = taylor_differential(gens)
    lines = [f"# Taylor resolution of <{', '.join(monomial_text(g, names) for g in gens)}>",
             "", "[ring]", "vars = " + ", ".join(names),
             "", "[ideal]", "gens = " + ", ".join(monomial_text(g, names) for g in gens),
             "", "[resolution]"]
    for size in range(1, len(gens) + 1):
        labels = [taylor_label(s) for s in taylor_subsets(len(gens)) if len(s) == size]
        lines.append(f"generators -{size} = " + ", ".join(labels))
    for subset, terms in diff.items():
        parts = []
        for face, (sign, coeff) in terms.items():
            factor = taylor_label(face) if not any(coeff) else \
                f"{monomial_text(coeff, names)}*{taylor_label(face)}"
            parts.append(("- " if sign < 0 else "+ ") + factor)
        # the first face, j = 0, has sign +
        lines.append(f"d {taylor_label(subset)} = " + " ".join(parts)[2:])
    for i, g in enumerate(gens):
        lines.append(f"augment e{i + 1} = {monomial_text(g, names)}")
    lines += ["", "[positive]", "generators 1 = " + ", ".join(f"xi{i + 1}" for i in range(num_vars))]
    lines += [f"Q {n} = {n}*xi{i + 1}" for i, n in enumerate(names)]
    lines += ["", "[options]", "mode = explicit",
              f"neg_degree_max = {neg_degree_max}", f"poly_cap = {poly_cap}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# spec text: the facts the checks need, and seeded renaming
# ---------------------------------------------------------------------------

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MONOMIAL_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?")


def _sections(text: str) -> Dict[str, List[Tuple[str, str]]]:
    out: Dict[str, List[Tuple[str, str]]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1].strip(), [])
        elif "=" in line:
            key, value = line.split("=", 1)
            current.append((key.strip(), value.strip()))
    return out


def _names(value: str) -> List[str]:
    return [t for t in re.split(r"[\s,]+", value) if t]


def parse_monomial(text: str, names: Sequence[str]) -> Exponent:
    """A coefficient-free monomial such as `x^2*y`."""
    exp = [0] * len(names)
    for factor in text.replace(" ", "").split("*"):
        match = MONOMIAL_FACTOR.fullmatch(factor)
        if match is None:
            raise ValueError(f"not a monomial: {text!r}")
        exp[names.index(match.group(1))] += int(match.group(2) or 1)
    return tuple(exp)


def spec_facts(text: str) -> dict:
    """Ring, monomial ideal, ranks and options, read from a spec's text."""
    sections = _sections(text)
    names = _names(dict(sections["ring"])["vars"])
    ideal = [parse_monomial(m, names) for m in dict(sections["ideal"])["gens"].split(",")]
    ranks: Dict[int, int] = {}
    for key, value in sections["resolution"]:
        parts = key.split()
        if parts[0] == "generators":
            ranks[-int(parts[1])] = len(_names(value))
    positives = sum(len(_names(value)) for key, value in sections.get("positive", [])
                    if key.split()[0] == "generators")
    options = dict(sections.get("options", []))
    return {
        "num_vars": len(names),
        "ideal": ideal,
        "ranks": [ranks[d] for d in range(1, max(ranks) + 1)],
        "positives": positives,
        "neg_degree_max": int(options.get("neg_degree_max", 6)),
        "poly_cap": int(options.get("poly_cap", 6)),
    }


def symbols(text: str) -> List[str]:
    """Variable names and generator labels declared by a spec."""
    out = []
    for section, rows in _sections(text).items():
        for key, value in rows:
            if (section, key) == ("ring", "vars") or key.split()[0] == "generators":
                out.extend(_names(value))
    return out


def rename(text: str, prefix: str) -> str:
    """Prefix every variable and generator name.

    A common prefix keeps the lexicographic order of the names, the last
    tie-break of the engine's canonical orders, so the engine does the same
    work on the renamed spec.
    """
    declared = set(symbols(text))
    return IDENT.sub(lambda m: prefix + m.group(0) if m.group(0) in declared else m.group(0),
                     text)


def set_options(text: str, **options) -> str:
    """Replace or add `key = value` rows of the [options] section."""
    head, _, tail = text.partition("[options]")
    rows = [line for line in tail.splitlines()
            if line.strip() and line.split("=", 1)[0].strip() not in options]
    rows += [f"{key} = {value}" for key, value in options.items()]
    return head + "[options]\n" + "\n".join(r for r in rows if r.strip()) + "\n"


def seeded_prefix(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3)) + "_"


# ---------------------------------------------------------------------------
# basis sizes counted from the ranks
# ---------------------------------------------------------------------------

def _symmetric_series(counts: Dict[int, int], upto: int) -> List[int]:
    """Coefficients of prod_d (1 + t^d)^c_d (d odd) * (1 - t^d)^-c_d (d even).

    Odd factors anticommute, so they never repeat in a monomial.
    """
    series = [1] + [0] * upto
    for d, c in counts.items():
        for _ in range(c):
            if d % 2:
                for n in range(upto, d - 1, -1):
                    series[n] += series[n - d]
            else:
                for n in range(d, upto + 1):
                    series[n] += series[n - d]
    return series


def tree_counts(ranks: Sequence[int], upto: int) -> Dict[int, int]:
    """Canonical decorated trees of each negative degree n.

    A tree of degree -n is a leaf over the rank-n module, or a root joining
    a multiset of at least two trees whose degrees add up to -(n - 1).
    """
    counts: Dict[int, int] = {}
    for n in range(1, upto + 1):
        leaves = ranks[n - 1] if n <= len(ranks) else 0
        lower = {d: counts[d] for d in range(1, n - 1)}
        counts[n] = leaves + (_symmetric_series(lower, n - 1)[n - 1] if n >= 3 else 0)
    return counts


def monomial_counts(ranks: Sequence[int], upto: int) -> Dict[int, int]:
    """Monomials in basis trees of each negative degree n."""
    series = _symmetric_series(tree_counts(ranks, upto), upto)
    return {n: series[n] for n in range(1, upto + 1)}


def expected_verdicts(facts: dict) -> Dict[str, str]:
    """The `checked` string of every explicit-mode verdict, from basis sizes."""
    ranks, k = facts["ranks"], facts["neg_degree_max"]
    trees, monos = tree_counts(ranks, k), monomial_counts(ranks, k)
    gens = sum(ranks)
    joins = sum(trees[n] - (ranks[n - 1] if n <= len(ranks) else 0) for n in range(3, k + 1))
    sources = facts["num_vars"] + facts["positives"] + gens + joins
    window = max(k - 1, 1)
    core = sum(monos[n] for n in range(1, window + 1)) + gens + facts["positives"]
    return {
        "tree differential square zero": f"basis trees through negative degree {k}",
        "homotopy retract": f"{sum(monos.values())} algebra monomials through negative degree {k}",
        "hook product Leibniz": f"{gens * gens} generator pairs",
        "ideal preservation": f"{len(facts['ideal'])} ideal generators",
        "total differential square zero": f"{sources} sources, trees through negative degree {k}",
        "inclusion/projection homotopy": f"{core} monomials through negative degree {window}",
        "level-1 product defect": f"{gens * gens} generator pairs",
    }


def check_report(parsed: dict, facts: dict) -> List[str]:
    """Problems found in one parsed report; empty when every check holds."""
    problems = []
    if parsed.get("result") != "pass" or parsed.get("failed_stage"):
        problems.append(f"result {parsed.get('result')}, failed stage {parsed.get('failed_stage')}")
    for verdict in parsed.get("verdicts", []):
        if not verdict["passed"]:
            problems.append(f"verdict failed: {verdict['name']}")
    expected = expected_verdicts(facts)
    got = {v["name"]: v["checked"] for v in parsed.get("verdicts", [])}
    if got != expected:
        problems.append(f"checked counts {got} != {expected}")
    dims = standard_monomial_counts(facts["ideal"], facts["poly_cap"])
    if parsed.get("quotient_dims") != dims:
        problems.append(f"quotient dims {parsed.get('quotient_dims')} != {dims}")
    if facts.get("taylor") and euler_characteristic(facts["ideal"], facts["poly_cap"]) != dims:
        problems.append("Euler characteristic of the Taylor resolution != quotient dims")
    return problems
