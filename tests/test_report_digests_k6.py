"""Report bytes pinned at K = 6: `monomial_ideal.kt` in explicit mode and
`koszul_function.kt` in general mode.

The explicit digest was recorded with the evaluators that built one tree
differential per verifier and summed the level -1 images into the
extension's level sums, before the shared evaluator and the split images.
The general digest was recorded once general mode evaluated Q on trees by
the homotopy formula, which checks trees through K = 6 rather than through
K - 2 level_max = 4.
"""

from __future__ import annotations

import hashlib

import pytest

import ktforest
from ktforest.cli import check_mode, emit, parse_spec, run

# (spec, mode, K) -> sha256 of the text report, of the JSON report
DIGESTS = {
    ("koszul_function.kt", "general", 6): (
        "d7ea1f5bc05a19e192e04c30d561a2750cc603c743c1a277f3aba1655240ebfd",
        "204d63b3752ce92208e26465811b6670df28bf84da0414be601faf53de09bbff"),
    ("monomial_ideal.kt", "explicit", 6): (
        "9271a48855cb03d9f5eb344132aaad798c5e8a377eac061bf9115e7ea54295bf",
        "3e4c64f8e7adfb768fc16106ea5bd8a99f1e81a29bae996de882bbaafdb9c843"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,mode,depth", sorted(DIGESTS))
def test_report_bytes_unchanged_at_k6(name, mode, depth):
    spec = parse_spec(ktforest.example_path(name))
    spec.options["mode"] = mode
    spec.options["neg_degree_max"] = depth
    check_mode(spec)
    report = run(spec)
    digests = sha256(emit(report, "text")), sha256(emit(report, "json"))
    assert digests == DIGESTS[name, mode, depth]
