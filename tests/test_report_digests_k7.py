"""Report bytes of the benchmark's claimed workload, pinned before renaming.

`quadratic.kt` in explicit mode at K = 7 is the input of the benchmark's
`quadratic-lr-k7` workload: the spec text with its options rewritten, whose
symbols the benchmark then renames by seed.  The spec is read here from that
text, as the benchmark reads it.  The digests were recorded before the
Leibniz and tree-formula paths built their monomials directly; they equal
the K = 7 pin of `test_report_digests.py`, which sets the same options on
the parsed spec instead.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import ktforest
from ktforest.cli import check_mode, emit, parse_spec, run

TEXT_DIGEST = "840c378aea077b6a3c05cbb34bb038777d44b887dca07a719549002e355e6037"
JSON_DIGEST = "331c58a56d2cbad2afacf4eb6e19c67847625f7136c0d62f4462ceaf64bb6aa8"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_quadratic_k7_report_bytes_unchanged():
    path = ktforest.example_path("quadratic.kt")
    text = Path(path).read_text(encoding="utf-8")
    assert "mode = explicit" in text and "neg_degree_max = 6" in text
    spec = parse_spec(path, text.replace("neg_degree_max = 6", "neg_degree_max = 7"))
    check_mode(spec)
    report = run(spec)
    assert (sha256(emit(report, "text")), sha256(emit(report, "json"))) \
        == (TEXT_DIGEST, JSON_DIGEST)
