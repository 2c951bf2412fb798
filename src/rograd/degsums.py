"""Divisors and degenerate sums of finite root systems.

A degenerate sum is a root-lattice element expressible as the sum of two
linearly independent roots whose pairings with every coroot share a common
divisor n > 1 (n is then 2 or 3).  These vectors govern the extra support
showing up in universal central extensions of root-graded Lie algebras.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add

from .linalg import span
from .rings import ZZ
from .roots import RootSystem, _normalize, vadd, vneg, vsub, dot


def divisor(gamma, R: RootSystem) -> int:
    """gcd of |<gamma, alpha-check>| over the nonzero roots alpha, with gamma
    in standard (unscaled) coordinates, as in the reports."""
    g = tuple(c * R.coord_scale for c in gamma)
    if not any(g):
        raise ValueError("the zero vector has no divisor")
    d = 0
    for a in R.nonzero_roots:
        val = R.pairing(g, a)
        if not isinstance(val, int):
            raise ValueError(f"{gamma} does not pair integrally with {a}")
        d = gcd(d, abs(val))
        if d == 1:
            return 1
    if d == 0:
        raise ValueError(f"{gamma} pairs to zero with every coroot")
    return d


@dataclass
class DegenerateSumReport:
    """Classification of the degenerate sums of one root system.

    Vectors are reported in the standard (unscaled) coordinates, sorted
    lexicographically for golden-table stability.
    """

    type_letter: str
    rank: int
    by_divisor: dict = field(default_factory=dict)  # n -> frozenset of vectors
    pairs: dict = field(default_factory=dict)  # vector -> frozenset of pairs

    def sums(self, n: int):
        return sorted(self.by_divisor.get(n, ()))

    def all_sums(self):
        out = set()
        for vs in self.by_divisor.values():
            out |= vs
        return out

    def __eq__(self, other):
        return (
            isinstance(other, DegenerateSumReport)
            and self.type_letter == other.type_letter
            and self.rank == other.rank
            and self.by_divisor == other.by_divisor
            and self.pairs == other.pairs
        )

    def to_json(self) -> list:
        out = []
        for n in sorted(self.by_divisor):
            out.append(
                {
                    "type": self.type_letter,
                    "rank": self.rank,
                    "divisor": n,
                    "sums": [list(v) for v in self.sums(n)],
                    "pairs": {
                        str(list(v)): sorted(
                            sorted([list(a), list(b)]) for a, b in self.pairs[v]
                        )
                        for v in self.sums(n)
                    },
                }
            )
        return out

    def to_table(self) -> str:
        lines = ["Type | n_gamma | Degenerate sums"]
        if not self.by_divisor:
            lines.append(f"{self.type_letter}_{self.rank} | - | (none)")
        for n in sorted(self.by_divisor):
            vecs = ", ".join(str(tuple(v)) for v in self.sums(n))
            lines.append(f"{self.type_letter}_{self.rank} | {n} | {vecs}")
        return "\n".join(lines)


def _descale(vec, scale: int):
    """vec / scale in standard coordinates: ints where integral, exact
    Fractions otherwise (the half-integer roots of E and F)."""
    if scale == 1:
        return tuple(vec)
    return _normalize(Fraction(c, scale) for c in vec)


def _pairs_for(gamma, R: RootSystem):
    """All unordered pairs of independent roots summing to gamma."""
    out = set()
    g = tuple(gamma)
    for a in R.nonzero_roots:
        b = vsub(g, a)
        if b in R.roots and b != R.zero and b != a and b != vneg(a):
            out.add(frozenset((a, b)))
    return frozenset(out)


def degenerate_pairs(gamma, R: RootSystem):
    """Expressing pairs of gamma in standard coordinates (empty if none)."""
    scaled = tuple(c * R.coord_scale for c in gamma)
    pairs = _pairs_for(scaled, R)
    return frozenset(
        frozenset(_descale(r, R.coord_scale) for r in p) for p in pairs
    )


def _assemble(R: RootSystem, sums_by_divisor: dict) -> DegenerateSumReport:
    report = DegenerateSumReport(R.type_letter, R.rank)
    s = R.coord_scale
    for n, vecs in sums_by_divisor.items():
        if not vecs:
            continue
        std = frozenset(_descale(v, s) for v in vecs)
        report.by_divisor[n] = std
        for v in vecs:
            pairs = _pairs_for(v, R)
            assert pairs, "degenerate sum without expressing pair"
            report.pairs[_descale(v, s)] = frozenset(
                frozenset(_descale(r, s) for r in p) for p in pairs
            )
    for v, pairs in report.pairs.items():
        vectors = [v, *chain.from_iterable(pairs)]
        assert all(type(c) is int for r in vectors for c in r), (
            "degenerate sum not integral in standard coords"
        )
    return report


def degenerate_sums_bruteforce(R: RootSystem) -> DegenerateSumReport:
    """Enumerate all sums of two independent roots and keep divisor > 1.

    One pass over the pairs i < j checks that 2(a_i|a_j) is divisible by
    both root lengths, fills the Cartan table C[i][k] = <a_i, a_k-check>,
    and keeps the first pair of each nonzero sum.  The pairing is linear,
    so the divisor of a_i + a_j is gcd_k (C[i][k] + C[j][k]).
    """
    roots = R.nonzero_roots
    lengths = [dot(a, a) for a in roots]
    cartan = [[2] * len(roots) for _ in roots]
    first = {}
    for i, a in enumerate(roots):
        row, li = cartan[i], lengths[i]
        for j in range(i + 1, len(roots)):
            b, lj = roots[j], lengths[j]
            ab = 2 * dot(a, b)
            if ab % li or ab % lj:
                raise AssertionError("non-integral pairing in the root lattice")
            row[j] = ab // lj
            cartan[j][i] = ab // li
            s = vadd(a, b)
            if s not in first and any(s):
                first[s] = (i, j)
    by_divisor = {2: set(), 3: set()}
    for s, (i, j) in first.items():
        d = 0
        for n in map(add, cartan[i], cartan[j]):
            d = gcd(d, n)
            if d == 1:
                break
        if d > 1:
            assert d in (2, 3), f"degenerate sum with divisor {d}"
            by_divisor[d].add(s)
    return _assemble(R, by_divisor)


def degenerate_sums_algorithm(R: RootSystem) -> DegenerateSumReport:
    """Classify degenerate sums structurally (no brute force).

    Divisor 2: candidates are the Weyl orbits of doubled fundamental weights
    that lie in the root lattice, are no longer than twice a long root, and
    split as a sum of two independent roots.  Divisor 3: only A_2 and G_2
    qualify, via pairs of long roots with pairing 1.
    """
    by_divisor = {2: set(), 3: set()}

    root_lattice = span(ZZ, R.ambient_dim)
    for a in R.simple_roots():
        root_lattice.add(dict(enumerate(a)))
    for w in R.fundamental_weights():
        doubled = tuple(2 * c for c in w.coords)
        if any(Fraction(c).denominator != 1 for c in doubled):
            continue
        doubled = tuple(int(c) for c in doubled)
        if not root_lattice.contains(dict(enumerate(doubled))):
            continue  # 2*omega outside the root lattice
        if dot(doubled, doubled) > 2 * R.long_norm:
            continue
        if not _pairs_for(doubled, R):
            continue
        for v in R.weyl_orbit(doubled):
            by_divisor[2].add(tuple(int(c) for c in v))
    if (R.type_letter, R.rank) in (("A", 2), ("G", 2)):
        longs = R.long_roots()
        for a in longs:
            for b in longs:
                if b != a and b != vneg(a) and R.pairing(a, b) == 1:
                    by_divisor[3].add(vadd(a, b))
    return _assemble(R, by_divisor)
