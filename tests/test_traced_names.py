"""The names the benchmark's tracer reads still exist.

`perfbench/tracing.py` wraps each function named in its `SPANNED` table and
reads the memos `TreeDifferential._memo` and `ExtensionData._tree_memo` and
the counts of `forest.canonicalize_node.cache_info()` after a run.  A
rename would otherwise surface only as a failed traced benchmark run.  The
table is read without calling `instrument()`, which would patch the
modules.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ktforest
from ktforest import extension, forest, kt
from ktforest.cli import check_mode, parse_spec, run

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def spanned():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.SPANNED.items() for name in names]


@pytest.mark.parametrize("layer, name", spanned())
def test_spanned_name_resolves(layer, name):
    module = importlib.import_module(f"ktforest.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        assert inspect.isfunction(getattr(module, cls_name).__dict__.get(attr))
    else:
        assert inspect.isfunction(getattr(module, name, None))


def test_traced_memos_exist_after_a_run(monkeypatch):
    instances = {kt.TreeDifferential: [], extension.ExtensionData: []}
    for cls, kept in instances.items():
        def init(obj, *args, _init=cls.__init__, _kept=kept, **kwargs):
            _init(obj, *args, **kwargs)
            _kept.append(obj)
        monkeypatch.setattr(cls, "__init__", init)
    spec = parse_spec(ktforest.example_path("quadratic.kt"))
    spec.options["neg_degree_max"] = 4
    check_mode(spec)
    before = forest.canonicalize_node.cache_info()
    assert run(spec).all_passed()
    after = forest.canonicalize_node.cache_info()
    assert after.hits > before.hits and after.currsize >= before.currsize
    assert instances[kt.TreeDifferential] and instances[extension.ExtensionData]
    assert all(isinstance(t._memo, dict) for t in instances[kt.TreeDifferential])
    assert all(isinstance(e._tree_memo, dict) for e in instances[extension.ExtensionData])
