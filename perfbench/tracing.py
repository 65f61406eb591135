"""Spans and counters around calls into each `ktforest` module, from outside.

`instrument()` replaces the named functions and methods with wrappers, in
the module that defines them and in every module that imported them by
name, so calls between layers and inside a layer both pass a wrapper.
Each call adds to a per-function count and inclusive time; each layer
(module) accumulates self time, its spans' time minus the time of the spans
nested inside them.  Inclusive time of a recursive function counts only the
outermost call.  Stage-level calls are also kept as individual spans with
their parent, and written to the trace file.

Arithmetic on `Poly` and `Fraction` carries no span: it runs millions of
times, and its time is part of the self time of whichever layer called it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# layer -> functions ("name" or "Class.method") that get a span
SPANNED = {
    "cli": ["parse_spec", "run", "emit"],
    "grammar": ["parse_element", "parse_hook_table"],
    "poly": ["solve_lift", "rref_solve", "matrix_rank"],
    "resolution": ["FreeResolution.check_complex", "FreeResolution.check_exactness",
                   "FreeResolution.lift", "quotient_dims", "ideal_member"],
    "forest": ["AlgebraElement.__mul__", "AlgebraElement.__add__",
               "AlgebraElement.__sub__", "make_monomial", "apply_derivation",
               "root_join", "root_split", "substitute_at_path",
               "enumerate_tree_basis", "enumerate_monomial_basis"],
    "kt": ["solve_hook", "verify_hook", "verify_square_zero", "verify_retract",
           "verify_hook_product_leibniz", "TreeDifferential.on_tree",
           "TreeDifferential.apply", "homotopy", "project_to_resolution", "hook_product"],
    "extension": ["check_ideal_preserved", "solve_residues_explicit",
                  "solve_general_extension", "verify_extension", "verify_incl_proj",
                  "verify_product_defect", "koszul_mode", "lift_delta_preimage",
                  "ExtensionData.apply", "ExtensionData.apply_level",
                  "ExtensionData.q_level_on_tree"],
}

# spans kept one by one; the rest are only aggregated
STAGES = {
    "cli.parse_spec", "cli.run", "cli.emit", "poly.solve_lift", "poly.matrix_rank",
    "resolution.FreeResolution.check_complex", "resolution.FreeResolution.check_exactness",
    "resolution.FreeResolution.lift", "resolution.quotient_dims",
    "kt.solve_hook", "kt.verify_hook", "kt.verify_square_zero", "kt.verify_retract",
    "kt.verify_hook_product_leibniz", "extension.check_ideal_preserved",
    "extension.solve_residues_explicit", "extension.solve_general_extension",
    "extension.verify_extension", "extension.verify_incl_proj",
    "extension.verify_product_defect", "extension.koszul_mode",
}


def _matrix_cells(columns):
    return len(columns) * len(columns[0]) if columns else 0


def _system_cells(rows, rhs, num_unknowns):
    return len(rows) * num_unknowns


# function -> (counter name, size of one call's work from its arguments)
CELLS = {
    "poly.matrix_rank": ("poly.matrix_rank_cells", _matrix_cells),
    # rref_solve is reached only through solve_lift
    "poly.rref_solve": ("poly.solve_lift_cells", _system_cells),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.counters = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self.originals = {}
        self.instances = defaultdict(list)
        self._stack = []  # [child time, id of the enclosing stage span]
        self._depth = Counter()

    def wrap(self, layer: str, key: str, fn):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        stack, depth, spans = self._stack, self._depth, self.spans
        clock = time.perf_counter
        is_stage = key in STAGES
        cells = CELLS.get(key)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if cells is not None:
                self.counters[cells[0]] += cells[1](*args, **kwargs)
            depth[key] += 1
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if is_stage else parent
            if is_stage:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                depth[key] -= 1
                if not depth[key]:
                    inclusive[key] += elapsed
                if is_stage:
                    spans[span_id] = {"name": key, "start": start, "end": start + elapsed,
                                      "parent": parent}

        return wrapper

    def track_instances(self, cls, name: str):
        """Keep every instance of `cls`, to read its memo after the run."""
        init = cls.__init__
        kept = self.instances[name]

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            kept.append(obj)

        cls.__init__ = __init__


def instrument() -> Tracer:
    """Wrap every function in SPANNED; returns the tracer collecting them."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"ktforest.{layer}") for layer in SPANNED}
    package = importlib.import_module("ktforest")
    for layer, names in SPANNED.items():
        module = modules[layer]
        for name in names:
            key = f"{layer}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                tracer.originals[key] = original
                setattr(cls, attr, tracer.wrap(layer, key, original))
                continue
            original = getattr(module, name)
            tracer.originals[key] = original
            wrapped = tracer.wrap(layer, key, original)
            for other in list(modules.values()) + [package]:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)
    tracer.track_instances(modules["kt"].TreeDifferential, "TreeDifferential")
    tracer.track_instances(modules["extension"].ExtensionData, "ExtensionData")
    return tracer


def layer_metrics(tracer: Tracer, spec) -> dict:
    """The per-layer metrics of one traced pipeline run."""
    forest = importlib.import_module("ktforest.forest")
    inc, calls = tracer.inclusive, tracer.calls
    res, depth = spec.resolution, spec.neg_degree_max
    tree_basis = tracer.originals["forest.enumerate_tree_basis"]
    monomial_basis = tracer.originals["forest.enumerate_monomial_basis"]
    cache = forest.canonicalize_node.cache_info()
    seconds = {
        "cli.parse_spec_s": inc["cli.parse_spec"],
        "cli.emit_s": inc["cli.emit"],
        "poly.matrix_rank_s": inc["poly.matrix_rank"],
        "poly.solve_lift_s": inc["poly.solve_lift"],
        "poly.self_s": tracer.self_time["poly"],
        "resolution.check_exactness_s": inc["resolution.FreeResolution.check_exactness"],
        "resolution.quotient_dims_s": inc["resolution.quotient_dims"],
        "resolution.lift_s": inc["resolution.FreeResolution.lift"],
        "resolution.self_s": tracer.self_time["resolution"],
        "forest.self_s": tracer.self_time["forest"],
        "kt.solve_hook_s": inc["kt.solve_hook"],
        "kt.verify_square_zero_s": inc["kt.verify_square_zero"],
        "kt.verify_retract_s": inc["kt.verify_retract"],
        "kt.verify_hook_product_s": inc["kt.verify_hook_product_leibniz"],
        "kt.self_s": tracer.self_time["kt"],
        "extension.solve_s": (inc["extension.solve_residues_explicit"]
                              + inc["extension.solve_general_extension"]),
        "extension.verify_extension_s": inc["extension.verify_extension"],
        "extension.verify_incl_proj_s": inc["extension.verify_incl_proj"],
        "extension.verify_product_defect_s": inc["extension.verify_product_defect"],
        "extension.ideal_gate_s": inc["extension.check_ideal_preserved"],
        "extension.self_s": tracer.self_time["extension"],
    }
    counts = {
        "grammar.parse_element_calls": calls["grammar.parse_element"],
        "poly.matrix_rank_calls": calls["poly.matrix_rank"],
        "poly.matrix_rank_cells": tracer.counters["poly.matrix_rank_cells"],
        "poly.solve_lift_calls": calls["poly.solve_lift"],
        "poly.solve_lift_cells": tracer.counters["poly.solve_lift_cells"],
        "resolution.lift_calls": calls["resolution.FreeResolution.lift"],
        "forest.algebra_mul_calls": calls["forest.AlgebraElement.__mul__"],
        "forest.make_monomial_calls": calls["forest.make_monomial"],
        "forest.apply_derivation_calls": calls["forest.apply_derivation"],
        "forest.canonicalize_hits": cache.hits,
        "forest.canonicalize_misses": cache.misses,
        "forest.tree_basis_size": sum(len(tree_basis(res, d)) for d in range(1, depth + 1)),
        "forest.monomial_basis_size": sum(len(monomial_basis(res, d))
                                          for d in range(1, depth + 1)),
        "kt.on_tree_memo_size": sum(len(t._memo)
                                    for t in tracer.instances["TreeDifferential"]),
        "extension.tree_memo_size": sum(len(e._tree_memo)
                                        for e in tracer.instances["ExtensionData"]),
    }
    return {"seconds": seconds, "counts": counts}


def aggregate(tracer: Tracer) -> dict:
    """Per-function calls and inclusive time, per-layer self time, stage spans."""
    return {
        "functions": {key: {"calls": tracer.calls[key], "inclusive_s": tracer.inclusive[key]}
                      for key in sorted(tracer.calls)},
        "self_s": dict(sorted(tracer.self_time.items())),
        "spans": tracer.spans,
    }
