"""Every name a module of the package imports is used in that module.

A stand-in for a linter's unused-import rule, with the standard library
only.  Uses count in code and in annotations, quoted ones included;
`__init__.py` re-exports its imports and is left out.  Also: no module
raises -1 to a power, since every sign comes from `resolution.parity_sign`
or the signed merge; no module writes to a `terms` dict in place, since
`forest.collect` shares one Poly per one-term coefficient among every
element that holds it; every process-global cache (`functools.lru_cache`
or `cache`) is on a named allowlist with its reason; a cold start of the command line imports neither
`dataclasses` nor `inspect`; every module parses under the grammar of
Python 3.10, the oldest version `pyproject.toml` accepts (grammar only, not
library APIs); and every underscore-named function, method or class is
named somewhere in the package outside its own def.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "ktforest"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for node in list(ast.walk(tree)) + [n for a in annotations if a is not None
                                        for n in _quoted(a)]:
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _quoted(annotation: ast.AST) -> list:
    """The nodes of the string annotations inside an annotation."""
    out = []
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend(ast.walk(ast.parse(node.value, mode="eval")))
    return out


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_parses_as_python_3_10(module):
    ast.parse((PACKAGE / module).read_text(encoding="utf-8"), feature_version=(3, 10))


def test_python_3_11_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


def test_unused_import_is_found():
    tree = ast.parse("from typing import Dict, List\nimport os\n"
                     "def f(x: 'Dict[str, int]') -> None:\n    pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"List", "os"}


def powers_of_minus_one(tree: ast.Module) -> list:
    """Lines of every `(-1) ** n` and `pow(-1, n)` in the module."""
    def minus_one(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant) and node.operand.value == 1)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and minus_one(node.left):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow" and node.args and minus_one(node.args[0])):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_power_of_minus_one(module):
    lines = powers_of_minus_one(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
    assert not lines, f"{module}: (-1) ** n on lines {lines}; use parity_sign(n)"


def test_power_of_minus_one_is_found():
    tree = ast.parse("a = (-1) ** n\nb = pow(-1, n)\nc = -1 ** n\nd = 2 ** n\n")
    assert powers_of_minus_one(tree) == [1, 2]


TERMS_WRITERS = {"update", "pop", "popitem", "setdefault", "clear"}


def terms_writes(tree: ast.Module) -> list:
    """Lines of every in-place write to a `.terms` dict: a subscript store
    or `del`, and a call of one of its mutating methods."""
    def terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and terms(node.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in TERMS_WRITERS and terms(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_write_to_terms(module):
    lines = terms_writes(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
    assert not lines, f"{module}: in-place write to a terms dict on lines {lines}"


def test_write_to_terms_is_found():
    tree = ast.parse("p.terms[e] = 1\np.terms[e] += 1\ndel p.terms[e]\np.terms.update(d)\n"
                     "p.terms.pop(e)\np.terms.popitem()\np.terms.setdefault(e, 0)\n"
                     "p.terms.clear()\nv = p.terms[e]\np.terms.get(e)\nacc[e] = 1\n"
                     "acc.pop(e)\nq.terms = {}\n")
    assert terms_writes(tree) == list(range(1, 9))


# A cache of functools lives as long as the process and, keyed by trees,
# holds every tree it has seen: each one needs a reason to exist.
PROCESS_CACHES = {
    "poly._slice": "keyed by (variables, degree), not by trees: one exponent tuple per slice",
    "forest._tree_order": "the one store of tree_key and tree_degree, built on first read "
                          "from the children's pairs: most interned trees are never compared",
    "forest.canonicalize_node": "perfbench/tracing.py reads its cache_info()",
}
CACHE_NAMES = {"lru_cache", "cache"}


def process_caches(module: str, tree: ast.Module) -> list:
    """`module.function` of every function a functools cache decorates
    (`module.Class.method` for a method), and `module:line` of every other
    call of one, such as a cache wrapped around a function."""
    def cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id in CACHE_NAMES
                or isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES)

    found, decorators = [], set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                cached = [d for d in child.decorator_list if cache(d)]
                decorators.update(map(id, cached))
                if cached:
                    found.append(name)
            walk(child, name)

    walk(tree, module)
    return found + [f"{module}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and cache(node) and id(node) not in decorators]


def test_every_process_global_cache_is_allowed():
    found = [name for module in MODULES + ["__init__.py"] for name in process_caches(
        module[:-3], ast.parse((PACKAGE / module).read_text(encoding="utf-8")))]
    assert sorted(found) == sorted(PROCESS_CACHES)


def test_process_global_cache_is_found():
    tree = ast.parse("from functools import cache, lru_cache\nimport functools\n"
                     "@lru_cache(maxsize=None)\ndef f(t):\n    pass\n"
                     "@functools.lru_cache\ndef g(t):\n    pass\n"
                     "class C:\n    @cache\n    def h(self):\n        pass\n"
                     "    def k(self):\n        pass\n"
                     "w = lru_cache(maxsize=4)(len)\n"
                     "if w:\n    @cache\n    def j():\n        pass\n")
    assert process_caches("m", tree) == ["m.f", "m.g", "m.C.h", "m.j", "m:15"]


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # they pull in ast, dis and tokenize, compiled afresh at every start
    # that has no bytecode cache
    code = "import sys, ktforest.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def unreferenced_private_names(trees: dict) -> list:
    """`module:line name` of every underscore-named function, method or class
    (dunders aside) that no code in `trees` names outside its own def."""
    def named(root):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(root)
                if isinstance(n, (ast.Name, ast.Attribute))]

    everywhere = [name for tree in trees.values() for name in named(tree)]
    unused = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and everywhere.count(node.name) == named(node).count(node.name)):
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(trees) == []


def test_unused_private_helper_is_found():
    trees = {"a.py": ast.parse("def _helper(n):\n    return _helper(n - 1)\n\n"
                               "def _used():\n    pass\n\n"
                               "class _Kept:\n    def _method(self):\n        pass\n\n"
                               "    def __init__(self):\n        pass\n"),
             "b.py": ast.parse("from a import _used\n_used()\nk = _Kept()\n")}
    assert unreferenced_private_names(trees) == ["a.py:1 _helper", "a.py:8 _method"]
