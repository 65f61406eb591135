"""The bubble sort of graded factors, kept as the sign oracle.

The engine computes every reordering sign with one signed merge
(`resolution._merge`) and its fold (`resolution.signed_sort`).  Before
that, `koszul_sign`, `canonicalize_node` and `make_monomial` sorted by
swapping adjacent factors, each swap of two odd factors costing a sign.
That sort is kept here, independent of the engine, for the tests to
compare the engine's signs with (`test_sign_oracle.py`).  `koszul_sign`,
the sign of a permutation of graded factors by the engine's fold, is the
one the tests use; it is compared with the bubble sort's.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ktforest.resolution import signed_sort


def bubble_sort_with_sign(items: list) -> Tuple[Optional[list], int]:
    """Bubble-sort (key, degree, payload) triples, tracking Koszul signs.

    Returns (sorted items, sign), or (None, 0) when two equal factors of odd
    degree collide.
    """
    items = list(items)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j][0] > items[j + 1][0]:
                if items[j][1] % 2 and items[j + 1][1] % 2:
                    sign = -sign
                items[j], items[j + 1] = items[j + 1], items[j]
    for a, b in zip(items, items[1:]):
        if a[0] == b[0] and a[1] % 2 != 0:
            return None, 0
    return items, sign


def reference_koszul_sign(degrees: Sequence[int], permutation: Sequence[int]) -> int:
    """Sign with x_{perm(0)} ... x_{perm(k-1)} = sign * x_0 ... x_{k-1}."""
    return bubble_sort_with_sign([(i, degrees[i], i) for i in permutation])[1]


def koszul_sign(degrees: Sequence[int], permutation: Sequence[int]) -> int:
    """Sign with x_{perm(0)} ... x_{perm(k-1)} = sign * x_0 ... x_{k-1}."""
    perm = list(permutation)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError("not a permutation of the index set")
    return signed_sort(perm, lambda i: (i, degrees[i]))[1]
