"""Report bytes pinned: every bundled spec in each mode it runs, at K = 5,
and the Lie-Rinehart example `quadratic.kt` at K = 7, the benchmark's shape.

The digests were recorded with the single dense elimination over all
unknowns that `poly` used before it split systems into components, so a
change of the linear algebra that moves any byte of a report fails here.
The general-mode reports of specs whose level tables run out before the
verifiers do end in a failed `verify_incl_proj` stage; those were recorded
with the same dense elimination and the failed-stage report of `cli.run`.
The K = 7 pin was recorded with the Leibniz evaluator that formed every
term as left * image * right and summed the levels one by one.
"""

from __future__ import annotations

import hashlib

import pytest

import ktforest
from ktforest.cli import check_mode, emit, parse_spec, run

K = 5

# (spec, mode) -> sha256 of the text report, of the JSON report
DIGESTS = {
    ("koszul_compare.kt", "explicit"): (
        "af5fd3d23190337ce4479c066ca6dfb0ae8ba0a3e3d3f9795133f74daa91a8d0",
        "9502d0f39c120583b6983e7fb336154191cc6ad64cb4f2977d1116bd23d1a6db"),
    ("koszul_compare.kt", "general"): (
        "1e15fd88623e92d06ea958ee5d1f55e4838758a681191d4c4324ca1583aacc2d",
        "28d6535ec43526e00a7187b547d6859490b8709007439da4cb752d75bc888f5d"),
    ("koszul_compare.kt", "koszul-compare"): (
        "52adb246c453641347c1b7dc885149e183d134576ef415274d067e4c0a5bd018",
        "97689de05ab3e144b1f062ddfaad88033a68d4e4ddf865a98dc02ae49b068a66"),
    ("koszul_function.kt", "explicit"): (
        "e4a9afcf769a7781d656c8c1f55ab7e334a83cb32fb49c731bffc7dd7293aed1",
        "0aee26c9f10a356e08b41881b6004bfc5e5face3f3cd8b0b0f2cfb7067cc9ff5"),
    ("koszul_function.kt", "general"): (
        "2758fefa018408d851d80e171a3b61029a1536b6bbc5102aa45d6391321f7a39",
        "29395ec7157343bdd993f193284ecd9aa8a924d8963d32bce99282b68bde4a55"),
    ("monomial_ideal.kt", "explicit"): (
        "d10c7a870e20154db6e7453cb3690642f61079958388938264355913d82f00c9",
        "e25db11f79e19c25c71cf25c761464c685647b4ca6620d26029341c9f0c86650"),
    ("monomial_ideal.kt", "general"): (
        "58d822b89e31716b5a2930a3726d9495e912a0880b1b5bceede414c03c8f828e",
        "46a5b3222299f03ac2ee81d33caa1f74fcd39f075817160c0b54b65c1f4c7c86"),
    ("quadratic.kt", "explicit"): (
        "9fd1e35ff58d732946551829c71ec4109fe3267849f231b6d977b617b111053a",
        "3e0c49c6d131afe154352f500cdabf6b9d43c5a3909ba8098fd5c40121fc254b"),
    ("quadratic.kt", "general"): (
        "6ca4e6e19ba1acc63ca347851a1b07020261299a5e8c064db37c066c3c4d1e21",
        "ffc7ae38c137e3bf8ae51952c94be052920ad894fb14a31db6ef0569bb1e9197"),
    ("regular_sequence.kt", "explicit"): (
        "d74752f681f5fb1c08c4fc6e80f58eeeb51a33b9a90c6cb7cd8a064d2e903769",
        "d39dfefedfccbfe44752ae1c26548b0265ddda0ada754ed911f6afda5e1001d9"),
    ("regular_sequence.kt", "general"): (
        "4e3d1467c4ba5803d05c848292d16ded11ea8f839e9735b53e2cf4579a75f589",
        "71f0f85756168e8129ff6d0cbe3d92a3caa1049394f88a8c132a7163866fd072"),
}


# (spec, mode, K) -> sha256 of the text report, of the JSON report
DIGESTS_DEEP = {
    ("quadratic.kt", "explicit", 7): (
        "840c378aea077b6a3c05cbb34bb038777d44b887dca07a719549002e355e6037",
        "331c58a56d2cbad2afacf4eb6e19c67847625f7136c0d62f4462ceaf64bb6aa8"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(name: str, mode: str, depth: int):
    spec = parse_spec(ktforest.example_path(name))
    spec.options["mode"] = mode
    spec.options["neg_degree_max"] = depth
    check_mode(spec)
    report = run(spec)
    return sha256(emit(report, "text")), sha256(emit(report, "json"))


@pytest.mark.parametrize("name,mode", sorted(DIGESTS))
def test_report_bytes_unchanged(name, mode):
    assert report_digests(name, mode, K) == DIGESTS[name, mode]


@pytest.mark.parametrize("name,mode,depth", sorted(DIGESTS_DEEP))
def test_deep_report_bytes_unchanged(name, mode, depth):
    assert report_digests(name, mode, depth) == DIGESTS_DEEP[name, mode, depth]
