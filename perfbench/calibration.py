"""A fixed calibration kernel that measures how fast the host runs right now.

The host's speed drifts by tens of percent over minutes (see README, "Noise
study").  Every set-up probe runs this kernel after its set-up is timed; a
run's fastest-piece time of the kernel, against CALIBRATION_S, gives the
factor by which the run's times are scaled.  The kernel does the kinds of
work the engine does, in the benchmark's own code: dense elimination over
`Fraction` and sparse products of tuple-keyed coefficient dicts.  It never
changes, so a change to the engine moves the scaled times in full.
"""

import random
import time
from fractions import Fraction

PIECES = 100


def piece(k: int) -> int:
    rng = random.Random(k)
    n = 8
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    left = {tuple(sorted(rng.sample(range(12), 3))): rng.randint(1, 9) for _ in range(12)}
    right = {tuple(sorted(rng.sample(range(12), 2))): rng.randint(1, 9) for _ in range(12)}
    product = {}
    for kl, cl in left.items():
        for kr, cr in right.items():
            key = tuple(sorted(kl + kr))
            product[key] = product.get(key, 0) + cl * cr
    return rank + len(product)


def pieces() -> list:
    """The time of each of the kernel's PIECES pieces, in order."""
    clock = time.perf_counter
    out = []
    for k in range(PIECES):
        start = clock()
        piece(k)
        out.append(clock() - start)
    return out
