"""The vector-sum brute-force classifier, kept as a test oracle.

This is how rograd.degsums.degenerate_sums_bruteforce classified before it
read divisors off the integer Cartan table: it collects every nonzero sum
a + b of two roots, then takes the gcd of 2(a_k|a + b)/(a_k|a_k) over the
roots a_k with a dot product per root, stopping at 1.
"""
from math import gcd

from rograd.degsums import DegenerateSumReport, _assemble
from rograd.roots import RootSystem


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def degenerate_sums_reference(R: RootSystem) -> DegenerateSumReport:
    roots = R.nonzero_roots
    lengths = [_dot(a, a) for a in roots]
    sums = set()
    for i, a in enumerate(roots):
        for j in range(i + 1, len(roots)):
            b = roots[j]
            ab = 2 * _dot(a, b)
            if ab % lengths[i] or ab % lengths[j]:
                raise AssertionError("non-integral pairing in the root lattice")
            s = tuple(x + y for x, y in zip(a, b))
            if any(s):
                sums.add(s)
    by_divisor = {2: set(), 3: set()}
    for g in sums:
        d = 0
        for a, n in zip(roots, lengths):
            d = gcd(d, 2 * _dot(a, g) // n)
            if d == 1:
                break
        if d > 1:
            assert d in (2, 3), f"degenerate sum with divisor {d}"
            by_divisor[d].add(g)
    return _assemble(R, by_divisor)
