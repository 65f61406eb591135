"""Each operator evaluated once per run.

The final hook's level -1 evaluator is shared by every reader of the table,
so a run computes each tree image once; `HookMap.set_value` discards it.
The retract residues keep the image of each joined tree through the
truncation, so verifiers called without the square-zero check do so too.
`ExtensionData` has one evaluator for Q summed over a range of levels:
`apply_level(k)` must equal the former per-level evaluator, kept below as
the oracle, at every level, and `apply` the sum of its levels; in general
mode the oracle reads the tables of the former reach-loop solver
(`test_homotopy_corrections`), where they are solved.
`verify_retract` and `verify_incl_proj` compute h(x) once per monomial;
their verdicts, failure lists included, are compared with the former
implementations, kept below as the oracle.  Their residues are built with
no intermediate element: h x is the joined tree, and h delta x and h Q+ x
are joined straight from the Leibniz accumulator (`forest.join_sums`); each
monomial's residue must equal the former composition of collected
elements, kept below as the oracle.
The level -1 residues, delta delta t per basis tree and the retract residue
per basis monomial, are computed once per run and kept on the evaluator
where they do not cancel; `verify_extension` and `verify_incl_proj` add
only the terms of level >= 0 to them, and must equal the unsplit Q Q x
loop and the full run, kept below as the oracles, with the square-zero
check run before them (a run) or not at all (the verifiers called directly).
"""

from __future__ import annotations

from collections import Counter

import pytest

import ktforest
from ktforest import cli, extension, forest, kt
from ktforest.cli import check_mode, parse_spec, run
from ktforest.extension import (koszul_hook, koszul_mode, solve_general_extension,
                                solve_residues_explicit, verify_extension, verify_incl_proj)
from ktforest.forest import (AlgebraElement, accumulate, apply_derivation, canonicalize_node,
                             collect, enumerate_monomial_basis, enumerate_tree_basis, is_leaf,
                             join_sums, leaf, mono_label, node, sum_elements, tree_degree,
                             tree_str)
from ktforest.grammar import parse_hook_table
from ktforest.kt import (CheckResult, HookMap, TreeDifferential, homotopy,
                         project_to_resolution, solve_hook, verify_retract)
from ktforest.poly import Poly
from ktforest.resolution import GeneratorId
from conftest import entries
from test_cli import BUNDLED_SPECS
from test_extension import MONOMIAL3_HOOK_LINES, make_positive
from test_failing_reports import (double_first_gen_q_entry, double_last_hook_entry,
                                  double_one_tree_image)
from test_homotopy_corrections import Unsolved, reach_loop_extension
from test_vertex_walk import former_add_tree_formula

K = 5


def example(name):
    return parse_spec(ktforest.example_path(name))


def basis_trees(res, neg_degree_max):
    return [t for degree in range(1, neg_degree_max + 1)
            for t in enumerate_tree_basis(res, degree)]


def basis_monomials(res, neg_degree_max):
    return [m for degree in range(1, neg_degree_max + 1)
            for m in enumerate_monomial_basis(res, degree)]


def basis_elements(res, neg_degree_max):
    """Every basis monomial with coefficient 1 and with coefficient 1 + x_0."""
    ring = res.ring
    one = Poly.const(ring, 1)
    for coeff in (one, one + Poly.variable(ring, 0)):
        for degree in range(1, neg_degree_max + 1):
            for mono in enumerate_monomial_basis(res, degree):
                yield mono, AlgebraElement(ring, {mono: coeff})


# ---------------------------------------------------------------------------
# the shared level -1 evaluator
# ---------------------------------------------------------------------------

def checks_without_square_zero(spec, *verifiers):
    """The checks of `verifiers` (among retract, extension and incl_proj),
    called directly, in the order and with the arguments of `cli.run`, on a
    freshly solved hook and extension of `spec`.  The square-zero walk is
    left out, and the retract walk unless named: each verifier starts with
    the residues of the walks left out still unwalked, read on demand."""
    res, depth = spec.resolution, spec.neg_degree_max
    hook = cli.solve_hook(res, depth)
    solve = (cli.solve_general_extension if spec.mode == "general"
             else cli.solve_residues_explicit)
    ext = solve(res, spec.positive, hook, depth)
    delta = hook.differential()
    calls = {"retract": lambda: cli.verify_retract(res, hook, depth),
             "extension": lambda: cli.verify_extension(ext, depth),
             "incl_proj": lambda: cli.verify_incl_proj(ext, max(depth - 1, 1))}
    checks = []
    for name, call in calls.items():
        if name in verifiers:
            assert delta.squares_through == 0
            assert delta.retracts_through == 0 or "retract" in verifiers
            checks.append(call())
    return checks


def images_computed_twice(monkeypatch, neg_degree_max, passing):
    """The trees through the truncation whose image `passing()`, which must
    return True, computes more than once; the joined trees of degree K + 1
    are not kept."""
    computed = Counter()
    image = TreeDifferential._image

    def counting(self, node, *args):
        computed[node] += 1
        return image(self, node, *args)

    monkeypatch.setattr(TreeDifferential, "_image", counting)
    assert passing()
    assert computed
    return [node for node, n in computed.items()
            if n > 1 and tree_degree(node) >= -neg_degree_max]


@pytest.mark.parametrize("name", ["quadratic.kt", "monomial_ideal.kt"])
def test_each_tree_image_is_computed_once_per_run(monkeypatch, name):
    spec = example(name)
    spec.options.update(neg_degree_max=K)
    check_mode(spec)
    assert not images_computed_twice(monkeypatch, K, lambda: run(spec).all_passed())


@pytest.mark.parametrize("verify", ["retract extension", "incl_proj", "extension"])
def test_tree_images_are_kept_without_the_square_zero_check(monkeypatch, verify):
    # the retract residues keep each joined tree through K: before, these
    # verifiers computed 173 and 47 basis-tree images twice
    spec = example("quadratic.kt")
    spec.options.update(mode="explicit", neg_degree_max=7)
    check_mode(spec)

    def passing():
        return all(c.passed for c in checks_without_square_zero(spec, *verify.split()))

    assert not images_computed_twice(monkeypatch, 7, passing)


def test_set_value_discards_the_shared_evaluator():
    res = example("quadratic.kt").resolution
    hook = solve_hook(res, K)
    node = max(hook.table, key=tree_degree)
    before = hook.differential().on_tree(node)
    hook.set_value(node, hook.value(node).scale(2))
    after = hook.differential().on_tree(node)
    assert after != before
    assert after == TreeDifferential(res, hook).on_tree(node)


# ---------------------------------------------------------------------------
# the one evaluator against the former per-level evaluator
# ---------------------------------------------------------------------------

def former_apply_level(ext):
    """The per-level evaluator before the levels shared one: level -1 is a
    fresh tree differential, and each level k >= 0 reads its own tables with
    one tree-formula walk per tree, unmemoized.  In general mode, `ext` is
    the reach-loop reference, and a tree table outside its window is
    `Unsolved`.  Kept as the oracle."""
    ring = ext.res.ring
    zero = AlgebraElement.zero(ring)
    delta = TreeDifferential(ext.res, ext.hook)

    def level_image(k, node):
        if is_leaf(node):
            return ext.tables.get((k, node[1]), zero)
        if not ext.by_step:
            acc = {}
            former_add_tree_formula(acc, node, lambda g: ext.tables.get((k, g), zero),
                                    lambda t: ext.tables.get((k, t), zero))
            return collect(ring, acc)
        if (k, node) in ext.tree_q:
            return ext.tree_q[(k, node)]
        if k - tree_degree(node) > ext.neg_degree_max:
            raise Unsolved(f"level {k} table not solved for {tree_str(node)}")
        return zero

    def on_coeff(k, c):
        if k == 0:
            return ext.pos.qplus_poly(c)
        out = zero
        for (kk, j), val in entries(ext, "variable").items():
            if kk == k and not c.partial(j).is_zero():
                out = out + val.scale(c.partial(j))
        return out

    def apply_level(k, elem):
        if k == -1:
            return delta.apply(elem)
        return apply_derivation(
            elem, on_tree=lambda node: level_image(k, node),
            on_positive=lambda g: ext.pos.q_on_gens[g] if k == 0
            else ext.tables.get((k, g), zero),
            on_coeff=lambda c: on_coeff(k, c))

    return apply_level


def outcome(evaluate, *args):
    """The value, or the message of the `Unsolved` raised instead."""
    try:
        return evaluate(*args)
    except Unsolved as missing:
        return str(missing)


def solved_extension(name, mode):
    """The solved extension, and what the oracle reads: the extension
    itself, or in general mode the reach-loop reference on the same input."""
    spec = example(name)
    res, positive = spec.resolution, spec.positive
    if mode == "koszul-compare":
        ext = koszul_mode(res, positive, koszul_hook(res, K), spec.koszul_tables)[0]
        return ext, ext
    if name == "quadratic.kt" and mode == "general":
        # squares to zero only modulo the ideal: corrections on the variables
        positive, _ = make_positive(res.ring, {1: ["z1", "z2"]},
                                    q_vars={"x": "y^2*z1", "y": "x^2*z2"},
                                    q_gens={"z1": "0*z1", "z2": "0*z2"})
    if name == "monomial_ideal.kt":
        # the printed hook table, whose extension has a tree correction
        hook = HookMap(res, parse_hook_table(MONOMIAL3_HOOK_LINES, spec.symbols))
    else:
        hook = solve_hook(res, K)
    if mode == "general":
        return (solve_general_extension(res, positive, hook, K),
                reach_loop_extension(res, positive, hook, K))
    ext = solve_residues_explicit(res, positive, hook, K)
    return ext, ext


@pytest.mark.parametrize("name, mode", [("quadratic.kt", "explicit"),
                                        ("monomial_ideal.kt", "explicit"),
                                        ("koszul_function.kt", "general"),
                                        ("quadratic.kt", "general"),
                                        ("koszul_compare.kt", "koszul-compare")])
def test_total_differential_is_the_sum_of_its_levels(name, mode):
    ext, tables = solved_extension(name, mode)
    res = ext.res
    assert ext.level_max >= 1
    if name in ("quadratic.kt", "koszul_compare.kt"):
        assert any(k == 1 for k, _g in entries(ext, "module"))  # a nonzero level-1 table
    if name == "monomial_ideal.kt":
        assert entries(ext, "tree")
    if mode == "general" and name == "quadratic.kt":
        assert entries(ext, "variable")
    former = former_apply_level(tables)
    compared = 0
    for mono, x in basis_elements(res, K):
        levels = [outcome(former, k, x) for k in range(-1, ext.level_max + 1)]
        for k, level in enumerate(levels, start=-1):
            if not isinstance(level, str):  # not outside the reference's window
                assert ext.apply_level(k, x) == level, (k, mono_label(mono))
                compared += 1
        if not any(isinstance(level, str) for level in levels):
            assert ext.apply(x) == sum_elements(res.ring, levels), mono_label(mono)
    assert compared


def test_apply_derivation_skips_constant_coefficients():
    res = example("quadratic.kt").resolution
    ring = res.ring
    pi1, pi2 = (leaf(res.gen_by_label(label)) for label in ("pi1", "pi2"))
    y = Poly.variable(ring, 1)
    x = AlgebraElement.from_tree(ring, pi1, Poly.const(ring, 3)) \
        + AlgebraElement.from_tree(ring, pi2, y)
    seen = []

    def on_coeff(c):
        seen.append(c)
        return AlgebraElement.zero(ring)

    apply_derivation(x, on_tree=lambda _t: None, on_coeff=on_coeff)
    assert seen == [y]


# ---------------------------------------------------------------------------
# h(x) once per monomial: the former verifiers as the oracle
# ---------------------------------------------------------------------------

def former_verify_retract(res, hook, neg_degree_max):
    differential = TreeDifferential(res, hook)
    ring = res.ring
    failures = []
    monos = []
    for degree in range(1, neg_degree_max + 1):
        monos.extend(enumerate_monomial_basis(res, degree))
    for mono in monos:
        x = AlgebraElement(ring, {mono: Poly.const(ring, 1)})
        lhs = differential.apply(homotopy(x)) + homotopy(differential.apply(x))
        rhs = x - project_to_resolution(hook.element, x)
        if lhs != rhs:
            failures.append((mono_label(mono), f"lhs - rhs = {lhs - rhs}"))
    return CheckResult("homotopy retract", not failures,
                       f"{len(monos)} algebra monomials through negative degree {neg_degree_max}",
                       failures)


def former_projection(ext):
    """The projection through the hook plus every correction table."""
    ring = ext.res.ring

    def hook_total(node):
        out = AlgebraElement.zero(ring)
        for k in range(-1, ext.level_max + 1):
            out = out + ext.chi_level(k, node)
        return out

    return lambda elem: project_to_resolution(hook_total, elem)


def former_verify_incl_proj(ext, neg_degree_max):
    ring = ext.res.ring
    proj = former_projection(ext)

    failures = []
    count = 0
    monos = []
    for degree in range(1, neg_degree_max + 1):
        monos.extend(enumerate_monomial_basis(ext.res, degree))
    for mono in monos:
        count += 1
        x = AlgebraElement(ring, {mono: Poly.const(ring, 1)})
        lhs = proj(x)
        rhs = x - homotopy(ext.apply(x)) - ext.apply(homotopy(x))
        if not homotopy(homotopy(x)).is_zero():
            failures.append((mono_label(mono), "h h != 0"))
        if lhs != rhs:
            failures.append((mono_label(mono), f"Incl Proj mismatch: {lhs - rhs}"))
    for depth in range(1, ext.res.length + 1):
        for g in ext.res.generators(depth):
            count += 1
            x = AlgebraElement.from_tree(ring, leaf(g))
            if proj(x) != x:
                failures.append((g.label, "Proj Incl != Id"))
            if not homotopy(x).is_zero():
                failures.append((g.label, "h Incl != 0"))
    for g in ext.pos.gens:
        count += 1
        x = AlgebraElement.from_positive(ring, g)
        if proj(x) != x:
            failures.append((g.label, "Proj Incl != Id"))
    for mono in monos:
        x = AlgebraElement(ring, {mono: Poly.const(ring, 1)})
        h = homotopy(x)
        if not h.is_zero() and not proj(h).is_zero():
            failures.append((mono_label(mono), "Proj h != 0"))
    return CheckResult("inclusion/projection homotopy", not failures,
                       f"{count} monomials through negative degree {neg_degree_max}",
                       failures)


def verdict(check):
    return check.passed, check.checked, check.failures


def test_retract_matches_the_former_verifier():
    res = example("quadratic.kt").resolution
    hook = solve_hook(res, K)
    retract = verify_retract(res, hook, K)
    assert retract.passed
    assert verdict(retract) == verdict(former_verify_retract(res, hook, K))


@pytest.mark.parametrize("corrupt", [False, True])
def test_incl_proj_matches_the_former_verifier(corrupt):
    spec = example("quadratic.kt")
    res = spec.resolution
    ext = solve_residues_explicit(res, spec.positive, solve_hook(res, K), K)
    if corrupt:
        # the identity holds for any tables that the differential and the
        # projection read alike, so the projection alone gets a doubled hook
        chi_level = ext.chi_level
        ext.chi_level = lambda k, node: chi_level(k, node).scale(2 if k == -1 else 1)
    incl_proj = verify_incl_proj(ext, K - 1)
    assert verdict(incl_proj) == verdict(former_verify_incl_proj(ext, K - 1))
    assert incl_proj.passed == (not corrupt)
    if corrupt:
        assert len(incl_proj.failures) > 1


# ---------------------------------------------------------------------------
# the residues without intermediate elements: the former composition
# ---------------------------------------------------------------------------

def former_retract_residue(differential, x):
    """delta h x + h delta x - x + iota p x composed from collected
    elements, or None where it cancels.  Kept as the oracle."""
    r = differential.apply(homotopy(x)) + homotopy(differential.apply(x)) - x \
        + project_to_resolution(differential.hook.element, x)
    return None if r.is_zero() else r


def former_incl_proj_residue(ext, proj, x):
    """Proj x - (x - h Q x - Q h x), or None where it cancels.  Kept as the
    oracle."""
    r = proj(x) - x + homotopy(ext.apply(x)) + ext.apply(homotopy(x))
    return None if r.is_zero() else r


def walked_residues(monkeypatch, module, verify, *args):
    """The verdict of `verify` and each basis monomial's residue (collected,
    or None) as the walk of `module._retract_failures` computes it."""
    residues = {}
    walk = module._retract_failures

    def capturing(res, neg_degree_max, residue_of, mismatch):
        for mono in basis_monomials(res, neg_degree_max):
            residues[mono] = residue_of(mono, neg_degree_max)
        return walk(res, neg_degree_max, lambda mono, _k: residues[mono], mismatch)

    monkeypatch.setattr(module, "_retract_failures", capturing)
    return verify(*args), residues


def assert_joins_match(ring, sums):
    """A Leibniz accumulator joined in place equals homotopy of its element."""
    assert collect(ring, join_sums(sums, {})) == homotopy(collect(ring, sums))


RESIDUE_CASES = [(name, mode) for name in ("quadratic.kt", "monomial_ideal.kt",
                                           "taylor_shear.kt", "regular_sequence.kt",
                                           "koszul_function.kt", "koszul_compare.kt")
                 for mode in ("explicit", "general")]


@pytest.mark.parametrize("name, mode", RESIDUE_CASES + [("quadratic.kt", "scaled image"),
                                                       ("quadratic.kt", "doubled projection")])
def test_residues_match_the_former_composition(monkeypatch, name, mode):
    spec = example(name)
    res, ring = spec.resolution, spec.resolution.ring
    one = Poly.one(ring)
    hook = solve_hook(res, K)
    delta = hook.differential()
    oracle = TreeDifferential(res, hook)
    if mode == "scaled image":
        # one doubled tree image, read by the kernel and the oracle alike,
        # inside the degree K + 1 joins as well
        pi1, pi2 = res.generators(1)[:2]
        tree = canonicalize_node(node((leaf(pi1), leaf(pi2))))[0]
        for evaluator in (delta, oracle):
            evaluator._memo[tree] = evaluator.on_tree(tree).scale(2)
    retract, residues = walked_residues(monkeypatch, kt, verify_retract, res, hook, K)
    assert retract.passed == (mode != "scaled image")
    assert delta.retracts_through == K
    # only the residues that do not cancel are kept
    assert delta._retracts == {m: r for m, r in residues.items() if r is not None}
    for mono, r in residues.items():
        x = AlgebraElement(ring, {mono: one})
        assert r == former_retract_residue(oracle, x), mono_label(mono)
        assert_joins_match(ring, oracle.apply(x, {}))
    if mode == "scaled image":
        return
    solve = solve_general_extension if mode == "general" else solve_residues_explicit
    ext = solve(res, spec.positive, hook, K)
    proj = former_projection(ext)
    if mode == "doubled projection":
        # the projection alone reads a doubled hook
        chi_level = ext.chi_level
        ext.chi_level = lambda k, node: chi_level(k, node).scale(2 if k == -1 else 1)
    incl_proj, residues = walked_residues(monkeypatch, extension, verify_incl_proj, ext, K)
    assert incl_proj.passed == (mode != "doubled projection")
    levels = range(0, ext.level_max + 1)
    for mono, r in residues.items():
        x = AlgebraElement(ring, {mono: one})
        assert r == former_incl_proj_residue(ext, proj, x), mono_label(mono)
        assert_joins_match(ring, ext._apply_levels(levels, x, acc={}))


def test_a_cancelled_sum_is_not_joined():
    ring = example("quadratic.kt").resolution.ring
    one = Poly.one(ring).terms
    # two leaves on generators of no resolution: their join is not interned
    trees = (leaf(GeneratorId(-2, 0, "probe_a")), leaf(GeneratorId(-2, 1, "probe_b")))
    sums = {}
    for sign in (1, -1):
        accumulate(sums, (trees, ()), one, sign)
    acc = {}
    assert join_sums(sums, acc) is acc
    assert acc == {} and trees not in forest._joins
    accumulate(sums, (trees, ()), one)
    assert collect(ring, join_sums(sums, acc)) == AlgebraElement.from_tree(ring, node(trees))


# ---------------------------------------------------------------------------
# level -1 once: the residues kept on the evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_a_passing_run_keeps_no_square_residue(monkeypatch, name):
    # the square-zero check walks every basis tree through K, so a tree
    # without a kept residue reads None: a passing run keeps none
    walked = []
    verify = cli.verify_square_zero

    def walking(differential, neg_degree_max):
        walked.append(differential)
        return verify(differential, neg_degree_max)

    monkeypatch.setattr(cli, "verify_square_zero", walking)
    spec = example(name)
    check_mode(spec)
    assert run(spec).all_passed()
    [delta] = walked
    assert delta.squares_through == spec.neg_degree_max
    assert delta._squares == {}


def test_level_minus_one_residues_are_computed_once_per_run(monkeypatch):
    computed = {"_square": Counter(), "_retract": Counter()}
    for name, seen in computed.items():
        def counting(self, key, *args, _compute=getattr(TreeDifferential, name), _seen=seen):
            _seen[key] += 1
            return _compute(self, key, *args)
        monkeypatch.setattr(TreeDifferential, name, counting)
    # the Leibniz passes of Q's verifiers that read the tree images of delta
    delta_passes = Counter()
    verifying = []

    def counting_derivation(elem, on_tree, *args, **kwargs):
        if verifying and isinstance(getattr(on_tree, "__self__", None), TreeDifferential):
            delta_passes[verifying[-1]] += 1
        return apply_derivation(elem, on_tree, *args, **kwargs)

    monkeypatch.setattr(extension, "apply_derivation", counting_derivation)
    for name in ("verify_extension", "verify_incl_proj"):
        def in_verifier(*args, _verify=getattr(cli, name), _name=name):
            verifying.append(_name)
            try:
                return _verify(*args)
            finally:
                verifying.pop()
        monkeypatch.setattr(cli, name, in_verifier)
    spec = example("quadratic.kt")
    spec.options.update(mode="explicit", neg_degree_max=K)
    check_mode(spec)
    report = run(spec)
    assert report.all_passed()
    res = spec.resolution
    assert computed["_square"] == Counter(basis_trees(res, K))
    assert computed["_retract"] == Counter(basis_monomials(res, K))
    # delta enters Q's verifiers only in Q Q+ x, once per source
    [checked] = [v["checked"] for v in report.verdicts
                 if v["name"] == "total differential square zero"]
    assert delta_passes == Counter({"verify_extension": int(checked.split()[0])})


def former_verify_extension(ext, neg_degree_max):
    """`verify_extension` before the level split: Q Q x in two passes of Q on
    every source.  Kept as the oracle."""
    ring = ext.res.ring
    gens = ext.res.module_generators()
    items = [(ring.names[j], AlgebraElement.scalar(Poly.variable(ring, j)))
             for j in range(ring.num_vars)]
    items += [(g.label, AlgebraElement.from_positive(ring, g)) for g in ext.pos.gens]
    items += [(g.label, AlgebraElement.from_tree(ring, leaf(g))) for g in gens]
    items += [(tree_str(t), AlgebraElement.from_tree(ring, t))
              for degree in range(3, neg_degree_max + 1)
              for t in enumerate_tree_basis(ext.res, degree) if not is_leaf(t)]
    failures = []
    for label, x in items:
        square = ext.apply(ext.apply(x))
        if not square.is_zero():
            failures.append((label, f"square residue {square}"))
    levels = range(0, ext.level_max + 1)
    failures += [(g.label, "image leaves module x positives") for g in gens
                 if not ext.q_level_on_tree(levels, leaf(g)).has_only_module_and_scalar()]
    return CheckResult("total differential square zero", not failures,
                       f"{len(items)} sources, trees through negative degree {neg_degree_max}",
                       failures)


def general_only_spec(depth):
    from test_report_digests_general_only import GENERAL_ONLY, GIVEN

    with open(ktforest.example_path("quadratic.kt"), encoding="utf-8") as handle:
        text = handle.read()
    spec = parse_spec("general_only.kt", text.replace(GIVEN, GENERAL_ONLY))
    spec.options.update(mode="general", neg_degree_max=depth)
    return spec


@pytest.mark.parametrize("case, target, perturb", [
    ("solved", None, None),
    ("doubled hook entry", "solve_hook", double_last_hook_entry),
    ("doubled gen_q entry", "solve_residues_explicit", double_first_gen_q_entry),
    ("general-only input", None, None),
    # without the square-zero check, which keeps the residues it walks
    ("extension alone", None, None),
    ("extension alone, doubled hook entry", "solve_hook", double_last_hook_entry)])
def test_extension_matches_the_unsplit_square(monkeypatch, case, target, perturb):
    if perturb is not None:
        monkeypatch.setattr(cli, target, perturb(getattr(cli, target)))
    compared = []

    def both(ext, depth):
        split = verify_extension(ext, depth)
        compared.append((verdict(split), verdict(former_verify_extension(ext, depth))))
        return split

    monkeypatch.setattr(cli, "verify_extension", both)
    spec = general_only_spec(3) if case == "general-only input" else example("quadratic.kt")
    check_mode(spec)
    if case.startswith("extension alone"):
        checks_without_square_zero(spec, "extension")
    else:
        run(spec)
    [(split, unsplit)] = compared
    assert split == unsplit
    assert split[0] == (case in ("solved", "extension alone"))


@pytest.mark.parametrize("perturb", [None, double_one_tree_image])
def test_incl_proj_alone_gives_the_full_run_verdict(monkeypatch, perturb):
    if perturb is not None:
        monkeypatch.setattr(cli, "solve_hook", perturb(cli.solve_hook))
    checks = []

    def recorded(*args, _verify=cli.verify_incl_proj):
        checks.append(_verify(*args))
        return checks[-1]

    monkeypatch.setattr(cli, "verify_incl_proj", recorded)
    run(example("quadratic.kt"))
    checks_without_square_zero(example("quadratic.kt"), "incl_proj")
    full, alone = checks
    assert verdict(alone) == verdict(full)
    assert full.passed == (perturb is None)


def test_set_value_discards_the_residue_memos():
    res = example("quadratic.kt").resolution
    hook = solve_hook(res, K)
    trees, monos = basis_trees(res, K), basis_monomials(res, K)
    # a stale evaluator: one doubled tree image breaks both identities
    stale = hook.differential()
    pi1, pi2 = res.generators(1)[:2]
    tree = canonicalize_node(node((leaf(pi1), leaf(pi2))))[0]
    stale._memo[tree] = stale.on_tree(tree).scale(2)
    assert any(stale.square_residue(t) is not None for t in trees)
    assert any(stale.retract_residue(m, K) is not None for m in monos)
    hook.set_value(tree, hook.value(tree))
    fresh = hook.differential()
    assert all(fresh.square_residue(t) is None for t in trees)
    assert all(fresh.retract_residue(m, K) is None for m in monos)
