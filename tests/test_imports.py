"""Every name a module of the package imports is used in that module.

A stand-in for a linter's unused-import rule, with the standard library
only.  Uses count in code and in annotations, quoted ones included;
`__init__.py` re-exports its imports and is left out.  Also: a cold start
of the command line imports neither `dataclasses` nor `inspect`.
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


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # they pull in ast, dis and tokenize, compiled afresh at every start
    # that has no bytecode cache
    code = "import sys, ktforest.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60)
    assert out.stdout.strip() == "[]"
