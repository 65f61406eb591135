"""Every name a module of the package imports is used in that module.

A stand-in for a linter's unused-import rule, with the standard library
only.  Uses count in code and in annotations, quoted ones included;
`__init__.py` re-exports its imports and is left out.  Also: no module
raises -1 to a power, since every sign comes from `resolution.parity_sign`
or the signed merge; above `resolution`, only the modules on a named
allowlist import `ModuleElement`, since a module value there is an
algebra element on trivial trees; no module writes to a `terms` dict in place, since
`forest.collect` shares one Poly per one-term coefficient among every
element that holds it; every process-global cache (`functools.lru_cache`
or `cache`) is on a named allowlist with its reason; a cold start of the command line imports neither
`dataclasses` nor `inspect`; every module parses under the grammar of
Python 3.10, the oldest version `pyproject.toml` accepts (grammar only, not
library APIs); every underscore-named function, method or class is
named somewhere in the package outside its own def; and every defaulted
parameter is passed by some call in the package, or is on a named
allowlist with its reason.
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


# Above `resolution`, a module value is held as its image on trivial trees,
# an `AlgebraElement`; the resolution's own vector type is met only here.
MODULE_ELEMENT_IMPORTERS = {
    "forest": "the inclusion on trivial trees (`from_module_element`)",
    "grammar": "the spec rows of the resolution's differential (`parse_module_element`)",
    "kt": "the lift boundary: `lift_delta_preimage` lifts through the resolution",
}


def test_module_element_is_imported_only_at_the_resolution_boundary():
    importers = {module[:-3] for module in MODULES if "ModuleElement" in imported_names(
        ast.parse((PACKAGE / module).read_text(encoding="utf-8")))}
    assert "extension" not in importers
    assert importers == set(MODULE_ELEMENT_IMPORTERS)


# Every preimage under the differential, a hook value or a correction, is
# lifted through one routine: `FreeResolution.lift` has one caller.
LIFT_CALLERS = {"kt.lift_delta_preimage"}


def lift_callers(module: str, tree: ast.Module) -> set:
    """`module.function` of the innermost function around every `.lift(` call
    (`module.Class.method` for a method, `module:line` outside any function)."""
    found = set()

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where or module}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lift"):
            found.add(where or f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, None)
    return found


def test_the_resolution_is_lifted_through_one_routine():
    callers = set()
    for module in MODULES:
        callers |= lift_callers(module[:-3], ast.parse((PACKAGE / module).read_text(
            encoding="utf-8")))
    assert callers == LIFT_CALLERS


def test_lift_caller_is_found():
    tree = ast.parse("class A:\n    def f(self, res):\n        return res.lift(t, 1)\n"
                     "def g(res):\n    def inner():\n        return res.lift(t, 2)\n"
                     "    return inner\nres.lift(t, 3)\nlift(t, 4)\nres.lifted(t)\n")
    assert lift_callers("m", tree) == {"m.A.f", "m.g.inner", "m:8"}


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


# A defaulted parameter that no call in the package passes, with the reason
# it stays: it is set from outside the package.
UNPASSED_PARAMETERS = {
    "cli.parse_spec(text)": "tests parse spec text without a file",
    "cli.run(hook_table)": "a pinned hook table, checked instead of solved; the command line "
                           "has no flag for it yet (ROADMAP item 11)",
    "cli.main(argv)": "the entry point: the console script passes none, tests pass theirs",
    "forest.AlgebraElement.from_positive(coeff)": "a public constructor",
}


def unpassed_parameters(trees: dict) -> list:
    """`module.function(parameter)` of every defaulted parameter of a
    function or method in `trees` that no call in `trees` passes, by
    keyword or by position.  Calls are matched by name, so a shared name
    counts as a use, and a constructor is called by its class name; a
    function also named other than as a callee (an alias, a `partial`, a
    callback) counts as passing everything."""
    calls, escaped = {}, set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                calls.setdefault(_name_of(node.func), []).append(node)
        escaped.update(_name_of(n) for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees)

    def passed(name, index, param, kwonly):
        for call in calls.get(name, []):
            keywords = {k.arg for k in call.keywords}
            if param in keywords or None in keywords:  # None: a ** argument
                return True
            if not kwonly and (len(call.args) > index
                               or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                name = cls if child.name == "__init__" else child.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                offset = 1 if cls and not static else 0  # self or cls is bound
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = [(i - offset, a.arg, False) for i, a in enumerate(positional)
                             if i >= len(positional) - len(args.defaults)]
                defaulted += [(0, a.arg, True) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                if name not in escaped:
                    found.extend(f"{qualname}({param})" for index, param, kwonly in defaulted
                                 if not passed(name, index, param, kwonly))
                visit(child, qualname, None)
            else:
                visit(child, prefix, cls)

    found = []
    for module, tree in sorted(trees.items()):
        visit(tree, module[:-3], None)
    return found


def _name_of(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_defaulted_parameter_is_passed():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert sorted(unpassed_parameters(trees)) == sorted(UNPASSED_PARAMETERS)


def test_unpassed_parameter_is_found():
    trees = {"a.py": ast.parse(
        "def f(x, acc=None, sign=1, *, labels=None):\n    pass\n\n"
        "def g(x, y=0):\n    pass\n\n"
        "def h(x, z=0):\n    pass\n\n"
        "class C:\n    def __init__(self, n=0, m=1):\n        pass\n\n"
        "    def apply(self, elem, sign=1):\n        pass\n\n"
        "    @staticmethod\n    def s(a, b=2):\n        pass\n\n"
        "def nested():\n    def inner(v=0):\n        pass\n    return inner\n"),
        "b.py": ast.parse(
            "from a import C, f, g, h\n"
            "f(1, {})\nf(1, labels=[])\ng(*rest)\nalias = h\n"
            "C(3).apply(x, -1)\nC(2).s(1)\n")}
    assert unpassed_parameters(trees) == ["a.f(sign)", "a.C.__init__(m)", "a.C.s(b)"]
