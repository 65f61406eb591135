"""Report bytes pinned for runs whose verdicts fail.

The passing digests (`test_report_digests.py`) print no residue: a failing
verdict prints the first five of its failures, each with the residue of its
identity.  These pins hold that text for `quadratic.kt` with its bundled
options, run with one solved value doubled:

  * the last hook entry, after `solve_hook`: the tree differential, the
    hook product, the total differential and the level-1 product defect
    fail;
  * the first level table entry on a module generator, after
    `solve_residues_explicit`: the total differential and the level-1
    product defect fail;
  * the memoized level -1 image of V(pi1,pi2), after `solve_hook`: the
    tree differential, the homotopy retract, the total differential and
    the inclusion/projection homotopy fail.

The digests were recorded with verifiers that built each side of their
identity as separate elements and printed the collected difference.  The
doubled-image digest was recorded again once tree images were built from
their children's memoized images: the doubled image now also enters the
image of every tree built on V(pi1,pi2) after it, so the same four
verdicts fail with other residues.
"""

from __future__ import annotations

import hashlib

import ktforest
from ktforest import cli
from ktforest.cli import check_mode, emit, parse_spec, run
from ktforest.forest import canonicalize_node, leaf, node
from ktforest.resolution import GeneratorId


def double_last_hook_entry(solve):
    def perturbed(*args):
        hook = solve(*args)
        tree, value = hook.entries()[-1]
        hook.set_value(tree, value.scale(2))
        return hook
    return perturbed


def double_first_gen_q_entry(solve):
    def perturbed(*args):
        ext = solve(*args)
        key = next(key for key in ext.tables if isinstance(key[1], GeneratorId))
        ext.tables[key] = ext.tables[key].scale(2)
        return ext
    return perturbed


def double_one_tree_image(solve):
    def perturbed(*args):
        hook = solve(*args)
        pi1, pi2 = hook.res.generators(1)[:2]
        tree = canonicalize_node(node((leaf(pi1), leaf(pi2))))[0]
        differential = hook.differential()
        differential._memo[tree] = differential.on_tree(tree).scale(2)
        return hook
    return perturbed


def failing_report(monkeypatch, target, perturb):
    monkeypatch.setattr(cli, target, perturb(getattr(cli, target)))
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    check_mode(spec)
    report = run(spec)
    failed = [v["name"] for v in report.verdicts if not v["passed"]]
    return failed, hashlib.sha256(emit(report, "text").encode("utf-8")).hexdigest()


def test_doubled_hook_entry_report(monkeypatch):
    failed, digest = failing_report(monkeypatch, "solve_hook", double_last_hook_entry)
    assert failed == ["tree differential square zero", "hook product Leibniz",
                      "total differential square zero", "level-1 product defect"]
    assert digest == "6bf28d3f054047e23ac9fa6232c67484f153f7f9ea99a40814c262dc85f2f3b7"


def test_doubled_gen_q_entry_report(monkeypatch):
    failed, digest = failing_report(monkeypatch, "solve_residues_explicit",
                                    double_first_gen_q_entry)
    assert failed == ["total differential square zero", "level-1 product defect"]
    assert digest == "8b6141cdcc8778516d171b358bdf5970f8127eb6b17bce89fd450910680206e3"


def test_doubled_tree_image_report(monkeypatch):
    failed, digest = failing_report(monkeypatch, "solve_hook", double_one_tree_image)
    assert failed == ["tree differential square zero", "homotopy retract",
                      "total differential square zero", "inclusion/projection homotopy"]
    assert digest == "3a5857fb81cd307d16437d383ef01f398c3b09c9e712992afe70a63b502fee55"
