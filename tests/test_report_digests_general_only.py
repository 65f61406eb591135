"""Report bytes pinned on the general-only input at K = 1..5, both modes.

The input is `quadratic.kt` with `Q x = x*xi1 + y*xi2 + x^2*xi1`: its
derivation squares to zero modulo the ideal but not on O, so it is the one
input that reaches the tree step on demand (`by_step`) and the entries of
`ExtensionData.tables` on variables and positive generators above level 0.
Explicit mode stops at its gate (exit 3); general mode solves, and fails its
square-zero and inclusion/projection verdicts (exit 1; the paper's general
construction is still open).  The digests and exit codes were recorded with the solver
that re-evaluated every closed element on the module generators after each
level, and with the verifiers that each wrote out their own residue loop.
"""

from __future__ import annotations

import hashlib

import pytest

import ktforest
from ktforest.cli import check_mode, emit, parse_spec, run

GIVEN = "Q x = x*xi1 + y*xi2"
GENERAL_ONLY = "Q x = x*xi1 + y*xi2 + x^2*xi1"

# (mode, K) -> sha256 of the text report, exit code
DIGESTS = {
    ("explicit", 1): ("a79cdf3a891221361a36b61180208134ccbd937108448b4cac8bddc804f8dafe", 3),
    ("explicit", 2): ("8b14ad424e5de34341975bc0ee4df838f7a50629d3b0d6ef807b833d571aed7d", 3),
    ("explicit", 3): ("093e45ba8ec80fb074f91c4ba42103cf6b1492a3e21a624555e0642d192af1d6", 3),
    ("explicit", 4): ("62470680e2e2babc8501505da616de5dcf503ed5f9baa1074615366b881ff39f", 3),
    ("explicit", 5): ("839d10e110c52a08e205790213d9902a7cc193386857aa5879d9fa363c627d81", 3),
    ("general", 1): ("9b0324c2944ae6adb732982d89da36548eb8a2e6cdd0eb191a03e7b717627593", 1),
    ("general", 2): ("f8076fa678b72ec2e04ea0d543823dd2a6d83f06c100e551ada072064e8c0df0", 1),
    ("general", 3): ("2728826d505406ca160a378125bafefd792f4e3f0d98a510a0dcfc9499e371c8", 1),
    ("general", 4): ("32cfc2551f1c5943878f9dfe2b71c9b8dcba533c3e6091835ae1e682f84cad7c", 1),
    ("general", 5): ("ce50b5ef077d6f381924e1cc460f4540c3300a1bcd389a93fff59556e53d590a", 1),
}


@pytest.mark.parametrize("mode,depth", sorted(DIGESTS))
def test_general_only_report_bytes_unchanged(mode, depth):
    with open(ktforest.example_path("quadratic.kt"), encoding="utf-8") as handle:
        text = handle.read()
    assert GIVEN in text
    spec = parse_spec("general_only.kt", text.replace(GIVEN, GENERAL_ONLY))
    spec.options["mode"] = mode
    spec.options["neg_degree_max"] = depth
    check_mode(spec)
    report = run(spec)
    digest = hashlib.sha256(emit(report, "text").encode("utf-8")).hexdigest()
    assert (digest, report.exit_code()) == DIGESTS[mode, depth]
