"""Report bytes pinned: every bundled spec in each mode it runs, at K = 5,
and the Lie-Rinehart example `quadratic.kt` at K = 7, the benchmark's shape.

The digests were recorded with the single dense elimination over all
unknowns that `poly` used before it split systems into components, so a
change of the linear algebra that moves any byte of a report fails here.
The general-mode reports were recorded later, once general mode solved only
the finite tables and evaluated Q on trees by the homotopy formula: every
one passes, with trees checked through K.  The `taylor_shear.kt` pins were
recorded once both modes solved the tree tables by one step; its explicit
report is the one the former explicit solver printed.
The K = 7 pin was recorded with the Leibniz evaluator that formed every
term as left * image * right and summed the levels one by one.
The koszul-compare pin was recorded once that mode ran the common stages:
its hook checked as a given table, the negative-part checks and the ideal
gate before the comparison.
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
        "497c231b97aa22cbeb9a39e4a7b5fb45ff1dbf29c1513e818de753c2ad6f6d01",
        "b51b6c225e90159a132998f47b6f53e3862220b8275c6b3790152de8f1742bba"),
    ("koszul_compare.kt", "koszul-compare"): (
        "1c3e923acec763a54a2629a4cfa51c84aa98a5547a8073abdc83e3563c648711",
        "0163ba6a5afe3f3830128fd1cd1220cb892fde74cea1701b26afdeb5bbd84962"),
    ("koszul_function.kt", "explicit"): (
        "e4a9afcf769a7781d656c8c1f55ab7e334a83cb32fb49c731bffc7dd7293aed1",
        "0aee26c9f10a356e08b41881b6004bfc5e5face3f3cd8b0b0f2cfb7067cc9ff5"),
    ("koszul_function.kt", "general"): (
        "0af5763a87f074d8fa2fc6b08d93e818edb7515e9a28a5cb191b138f7c9d8477",
        "bba04e3c98fefb07d2dd2184c23837042a947c90df0ed3a3592a7c1bf1590e36"),
    ("monomial_ideal.kt", "explicit"): (
        "d10c7a870e20154db6e7453cb3690642f61079958388938264355913d82f00c9",
        "e25db11f79e19c25c71cf25c761464c685647b4ca6620d26029341c9f0c86650"),
    ("monomial_ideal.kt", "general"): (
        "57805025b574a65c3a345aea111327ace056ff58eeea046fe86e88bd1b41c598",
        "6791847fb154e1019858ef3c12c3b360d4d6aa0509542494cf133ddb4bb4fdb8"),
    ("quadratic.kt", "explicit"): (
        "9fd1e35ff58d732946551829c71ec4109fe3267849f231b6d977b617b111053a",
        "3e0c49c6d131afe154352f500cdabf6b9d43c5a3909ba8098fd5c40121fc254b"),
    ("quadratic.kt", "general"): (
        "27c166809cb84dd603f60af3447afaae2d46c3d4aabb1ea95fba84927962d0f9",
        "147158f2a983bc35024cdea335240b32654c2487e49534c9695e248b7548f04b"),
    ("regular_sequence.kt", "explicit"): (
        "d74752f681f5fb1c08c4fc6e80f58eeeb51a33b9a90c6cb7cd8a064d2e903769",
        "d39dfefedfccbfe44752ae1c26548b0265ddda0ada754ed911f6afda5e1001d9"),
    ("regular_sequence.kt", "general"): (
        "2d0df46f6b6b435bb68e860397674edcae9b813fccecbb807539ea1bd6b77125",
        "c2e79631da13e402a2064124e31a227d5897a78f3ec34eb0daec7475c2567a7d"),
    ("taylor_shear.kt", "explicit"): (
        "3524aa433243f2302017f49d4ce1a7579d870c92264bc6ffbc7b0e38e033b81d",
        "6ae700990181c6a6699f5961d26e03f74b6b528fba2710a0401112827f44cabc"),
    ("taylor_shear.kt", "general"): (
        "8a6a297afaf2aefbed9de465fd8fd745865e1ed51066caaa8f060a8aefd4c60a",
        "82ae4c1368ad01542a1a0ad102a935fa978f3412747a85e994a1d325df3f8e9c"),
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
