"""Finite irreducible reduced root systems A-G in explicit integer coordinates.

Roots are stored as integer tuples in the epsilon-coordinate models of the
classical types; E and F types are scaled by 2 so every coordinate stays an
integer (pairings and length ratios are scale-invariant).  Zero is a root.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, repeat
from operator import add, mul, neg, sub

from .linalg import coordinates
from .rings import QQ

Vector = tuple


def _sparse(v) -> dict:
    return {i: a for i, a in enumerate(v) if a}


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(map(neg, u))


def vscale(c, u):
    return tuple(map(mul, repeat(c), u))


def _rational(a):
    f = Fraction(a)
    return int(f) if f.denominator == 1 else f


def _normalize(coords):
    """Coordinates as ints where integral, Fractions otherwise."""
    return tuple(a if type(a) is int else _rational(a) for a in coords)


@dataclass(frozen=True)
class Weight:
    """A rational vector in epsilon-coordinates with a lattice tag."""

    coords: tuple
    lattice_tag: str = "WeightLattice"  # or "RootLattice"

    def __post_init__(self):
        object.__setattr__(self, "coords", _normalize(self.coords))


def _coords(x):
    return x.coords if isinstance(x, Weight) else tuple(x)


class RootSystem:
    """Finite root system with coroot pairing, reflections and Weyl orbits."""

    def __init__(self, type_letter: str, rank: int, roots, coord_scale: int = 1):
        self.type_letter = type_letter
        self.rank = rank
        self.coord_scale = coord_scale
        roots = {tuple(int(c) for c in r) for r in roots}
        self.ambient_dim = len(next(iter(roots)))
        zero = (0,) * self.ambient_dim
        roots.add(zero)
        self.roots = frozenset(roots)
        self.zero = zero
        self._nonzero = sorted(r for r in self.roots if r != zero)
        norms = sorted({dot(r, r) for r in self._nonzero})
        self.short_norm, self.long_norm = norms[0], norms[-1]
        self._simple = None

    # -- basic structure ----------------------------------------------
    @property
    def nonzero_roots(self):
        return list(self._nonzero)

    def is_root(self, v) -> bool:
        return tuple(v) in self.roots

    def long_roots(self):
        return [r for r in self._nonzero if dot(r, r) == self.long_norm]

    def pairing(self, beta, alpha):
        """<beta, alpha-check> = 2(beta|alpha)/(alpha|alpha)."""
        a = _coords(alpha)
        if not any(a):
            raise ValueError("pairing against the zero root is undefined")
        num, den = 2 * dot(_coords(beta), a), dot(a, a)
        if num % den:
            return Fraction(num, den)
        return num // den

    def reflect(self, alpha, x):
        """s_alpha(x) = x - <x, alpha-check> alpha."""
        a = _coords(alpha)
        if not any(a):
            raise ValueError("cannot reflect in the zero root")
        xc = _coords(x)
        n = self.pairing(xc, a)
        out = _normalize(vsub(xc, vscale(n, a)))
        if isinstance(x, Weight):
            return Weight(out, x.lattice_tag)
        return out

    def weyl_orbit(self, x) -> set:
        """Closure of {x} under the Weyl group, as a set of coordinate tuples.

        A breadth-first search over the simple reflections, which generate
        the Weyl group; it agrees with the closure under every reflection
        (tested), at a fraction of the cost.
        """
        return self._orbit(_coords(x), self.simple_roots())

    def _orbit(self, start, gens) -> set:
        seen = {_normalize(start)}
        frontier = [_normalize(start)]
        while frontier:
            nxt = []
            for v in frontier:
                for a in gens:
                    n = self.pairing(v, a)
                    if not n:
                        continue  # s_a fixes v
                    w = _normalize(vsub(v, vscale(n, a)))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    # -- base and weights -----------------------------------------------
    def positive_roots(self):
        w = tuple(10 ** (3 * (self.ambient_dim - i)) for i in range(self.ambient_dim))
        return [r for r in self._nonzero if dot(r, w) > 0]

    def simple_roots(self):
        """Simple roots in Bourbaki order for the standard coordinates."""
        if self._simple is None:
            pos = set(self.positive_roots())
            simple = [
                a
                for a in pos
                if not any(vsub(a, b) in pos for b in pos if b != a)
            ]
            assert len(simple) == self.rank
            self._simple = self._bourbaki_order(simple)
        return list(self._simple)

    def _bourbaki_order(self, simple):
        if len(simple) == 1:  # A_1: one node, no end of degree 1
            return list(simple)
        adj = {
            a: [b for b in simple if b != a and self.pairing(a, b) != 0]
            for a in simple
        }
        t = self.type_letter
        if t == "G":
            short = min(simple, key=lambda r: dot(r, r))
            return [short, next(b for b in simple if b != short)]
        if t in ("A", "B", "C", "F"):
            ends = [a for a in simple if len(adj[a]) == 1]
            if t == "A":
                start = max(ends)
            elif t == "B":
                start = next(e for e in ends if dot(e, e) == self.long_norm)
            elif t == "C":
                start = next(e for e in ends if dot(e, e) == self.short_norm)
            else:  # F4: long end first
                start = next(e for e in ends if dot(e, e) == self.long_norm)
            chain = [start]
            while len(chain) < len(simple):
                chain.append(
                    next(b for b in adj[chain[-1]] if b not in chain)
                )
            return chain
        # D and E: one branch node of degree 3
        branch = next(a for a in simple if len(adj[a]) == 3)
        arms = []
        for first in adj[branch]:
            arm = [first]
            while True:
                ext = [
                    b for b in adj[arm[-1]] if b != branch and b not in arm
                ]
                if not ext:
                    break
                arm.append(ext[0])
            arms.append(arm)
        arms.sort(key=lambda arm: (len(arm), arm[-1]))
        if t == "D":
            if len(arms[2]) == 1:  # D4: three single-root arms
                long_arm = arms[-1]
                fork = sorted([arms[0][0], arms[1][0]])
            else:
                long_arm = arms[2]
                fork = sorted([arms[0][0], arms[1][0]])
            return list(reversed(long_arm)) + [branch] + fork
        # E types: arms have lengths (1, 2, rank-4); Bourbaki numbering puts
        # the far end of the 2-arm first, then the 1-arm, then the near node.
        short_arm, mid_arm, long_arm = arms[0], arms[1], arms[2]
        return [mid_arm[-1], short_arm[0], mid_arm[0], branch] + long_arm

    def fundamental_weights(self, base=None):
        """Weights with <omega_i, alpha_j-check> = delta_ij, inside span(R).

        A base (found or validated) is a basis of span(R), so omega_i is
        sum_j x_j alpha_j where sum_j x_j <alpha_j, alpha_i-check> = delta_ij:
        the coordinates of e_i in the rows of the Cartan matrix."""
        if base is None:
            simple = self.simple_roots()
        else:
            simple = [tuple(b) for b in base]
            self._validate_base(simple)
        k = len(simple)
        cartan = [
            {i: self.pairing(b, a) for i, a in enumerate(simple) if dot(b, a)}
            for b in simple
        ]
        solve = coordinates(QQ, cartan, k)
        weights = []
        for i in range(k):
            coords = [0] * self.ambient_dim
            for j, c in solve({i: 1}).items():
                for t, x in _sparse(simple[j]).items():
                    coords[t] += c * x
            weights.append(Weight(tuple(coords)))
        return weights

    def _validate_base(self, simple):
        if len(simple) != self.rank:
            raise ValueError("base has wrong size")
        solve = coordinates(QQ, [_sparse(b) for b in simple], self.ambient_dim)
        if solve is None:
            raise ValueError("base is not linearly independent")
        for a in simple:
            if a not in self.roots:
                raise ValueError(f"{a} is not a root")
        # every root must be a nonneg or nonpos integer combination
        for r in self._nonzero:
            coeffs = solve(_sparse(r))
            if coeffs is None or any(c.denominator != 1 for c in coeffs.values()):
                raise ValueError("base does not generate the root lattice")
            if len({c > 0 for c in coeffs.values()}) > 1:
                raise ValueError("base is not a root basis")

    # -- root strings and gradings --------------------------------------
    def root_string(self, alpha, beta):
        """The unbroken beta-string through alpha, listed from bottom to top."""
        a, b = tuple(alpha), tuple(beta)
        if not any(b):
            raise ValueError("string direction must be a nonzero root")
        # 0 counts as a root in this library's convention, so the string through
        # -beta in direction beta is {-beta, 0, beta} with no gap.
        ks = sorted(k for k in range(-8, 9) if vadd(a, vscale(k, b)) in self.roots)
        lo = 0
        while lo - 1 in ks:
            lo -= 1
        hi = 0
        while hi + 1 in ks:
            hi += 1
        if ks != list(range(lo, hi + 1)):
            raise AssertionError("root string has a gap")
        if abs(hi - lo) > 4:
            raise AssertionError("root string longer than allowed")
        return [vadd(a, vscale(k, b)) for k in range(lo, hi + 1)]

    def three_grading(self, kind: str, part: int = 1) -> "ThreeGrading":
        return three_grading(self, kind, part)

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "type": self.type_letter,
            "rank": self.rank,
            "coord_scale": self.coord_scale,
            "roots": [list(r) for r in sorted(self.roots)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RootSystem":
        return cls(
            data["type"],
            data["rank"],
            [tuple(r) for r in data["roots"] if any(r)],
            coord_scale=data.get("coord_scale", 1),
        )

    def __repr__(self):
        return f"RootSystem({self.type_letter}{self.rank}, {len(self._nonzero)} nonzero roots)"


@dataclass(frozen=True)
class ThreeGrading:
    """Partition of a root system into R_{-1}, R_0, R_1."""

    system: RootSystem
    kind: str
    one: frozenset  # R_1
    zero: frozenset  # R_0, includes the zero vector

    @property
    def minus_one(self):
        return frozenset(vneg(r) for r in self.one)


_GRADING_KINDS = {
    "A": ("rectangular", "collinear"),
    "B": ("odd-quadratic",),
    "C": ("hermitian",),
    "D": ("even-quadratic", "alternating"),
}


def three_grading(R: RootSystem, kind: str, part: int = 1) -> ThreeGrading:
    """Build the 3-grading of the given kind; errors if incompatible."""
    allowed = _GRADING_KINDS.get(R.type_letter, ())
    if kind not in allowed:
        raise ValueError(
            f"root system {R.type_letter}_{R.rank} has no {kind!r} 3-grading"
        )
    n = R.ambient_dim

    def e(i):
        return tuple(int(j == i) for j in range(n))

    if kind in ("rectangular", "collinear"):
        p = 1 if kind == "collinear" else part
        if not (1 <= p <= R.rank):
            raise ValueError("rectangular part size out of range")
        one = {
            vsub(e(i), e(j)) for i in range(p) for j in range(p, n)
        }
    elif kind == "hermitian":
        one = {vadd(e(i), e(j)) for i in range(n) for j in range(i, n)}
    elif kind == "odd-quadratic":
        one = {e(0)} | {vadd(e(0), vscale(s, e(i))) for i in range(1, n) for s in (1, -1)}
    elif kind == "even-quadratic":
        one = {vadd(e(0), vscale(s, e(i))) for i in range(1, n) for s in (1, -1)}
    else:  # alternating
        one = {vadd(e(i), e(j)) for i in range(n) for j in range(i + 1, n)}
    one = frozenset(one)
    assert one <= R.roots
    minus = frozenset(vneg(r) for r in one)
    zero = frozenset(R.roots - one - minus)
    grading = ThreeGrading(R, kind, one, zero)
    _check_grading(R, grading)
    return grading


def _check_grading(R: RootSystem, g: ThreeGrading):
    part = {r: 1 for r in g.one}
    part.update({r: -1 for r in g.minus_one})
    part.update({r: 0 for r in g.zero})
    sums_zero = set()
    for a in R.roots:
        for b in R.roots:
            s = vadd(a, b)
            if s in R.roots:
                if part[s] != part[a] + part[b]:
                    raise AssertionError("grading violates additivity")
                if part[a] == 1 and part[b] == -1:
                    sums_zero.add(s)
    if sums_zero != set(g.zero):
        raise AssertionError("(R_1 + R_-1) \\cap R must equal R_0")


# ---------------------------------------------------------------------------
# construction of the standard models
# ---------------------------------------------------------------------------


def build(type_letter: str, rank: int) -> RootSystem:
    """Standard integer-coordinate model of an irreducible root system."""
    t = type_letter.upper()
    if t == "A" and rank >= 1:
        n = rank + 1
        roots = {_unit_diff(i, j, n) for i in range(n) for j in range(n) if i != j}
        return RootSystem("A", rank, roots)
    if t == "B" and rank >= 2:
        roots = _bcd_roots(rank, short=True, long2=False)
        return RootSystem("B", rank, roots)
    if t == "C" and rank >= 2:
        roots = _bcd_roots(rank, short=False, long2=True)
        return RootSystem("C", rank, roots)
    if t == "D" and rank >= 4:
        roots = _bcd_roots(rank, short=False, long2=False)
        return RootSystem("D", rank, roots)
    if t == "G" and rank == 2:
        roots = set()
        for i, j in product(range(3), repeat=2):
            if i != j:
                roots.add(_unit_diff(i, j, 3))
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            v = [0, 0, 0]
            v[i], v[j], v[k] = 2, -1, -1
            roots.add(tuple(v))
            roots.add(vneg(tuple(v)))
        return RootSystem("G", 2, roots)
    if t == "F" and rank == 4:
        roots = set()
        for r in _bcd_roots(4, short=True, long2=False):
            roots.add(vscale(2, r))  # scaled model: x2
        for signs in product((1, -1), repeat=4):
            roots.add(signs)  # (±1,±1,±1,±1) = doubled half-sums
        return RootSystem("F", 4, roots, coord_scale=2)
    if t == "E" and rank in (6, 7, 8):
        e8 = set()
        for r in _bcd_roots(8, short=False, long2=False):
            e8.add(vscale(2, r))
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                e8.add(signs)
        if rank == 8:
            return RootSystem("E", 8, e8, coord_scale=2)
        # E7: orthogonal to eps7+eps8; E6: also orthogonal to eps6+eps7
        walls = [(0, 0, 0, 0, 0, 0, 1, 1)]
        if rank == 6:
            walls.append((0, 0, 0, 0, 0, 1, 1, 0))
        sub = {r for r in e8 if all(dot(r, w) == 0 for w in walls)}
        return RootSystem("E", rank, sub, coord_scale=2)
    raise ValueError(f"unsupported root system ({type_letter}, {rank})")


def _unit_diff(i, j, n):
    v = [0] * n
    v[i], v[j] = 1, -1
    return tuple(v)


def _bcd_roots(n, short: bool, long2: bool):
    roots = set()
    for i, j in combinations(range(n), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            roots.add(tuple(v))
    for i in range(n):
        if short:
            v = [0] * n
            v[i] = 1
            roots.add(tuple(v))
            roots.add(vneg(tuple(v)))
        if long2:
            v = [0] * n
            v[i] = 2
            roots.add(tuple(v))
            roots.add(vneg(tuple(v)))
    return roots
