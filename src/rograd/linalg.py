"""Exact sparse linear algebra over Z, Q and F_p.

A matrix is a list of rows, each a dict col -> scalar.  Callers reach the
algebra through entry points that pick the algorithm from the ring:
span(ring, ncols) returns the ring's one echelon backend, and
quotient_shape(ring, ...) reads R^m/R and ker(u)/R off a relation stream
(a lattice basis and its factors-only Smith normal form over Z, a certified
rank over a field).  The uce blocks, HC(V), HC_1(D), the homology
quotients and every other module shape go through quotient_shape, and the
sl_K degree-0 check compares two spans with same_span.  kernel_basis(rows,
ncols, ring) and field_rank(rows, ncols, ring) coerce each entry into the
ring and check its column.  Coordinates in a basis (a bracket written in
the basis of its algebra) come from coordinates(ring, basis, ncols), which
reduces against the span of the rows (b_k | e_k) over the field (Q over
Z); no backend tracks combinations.  Over Z every computation works on a
lattice basis in Hermite normal form: kernel_basis reads the pure kernel
off one, smith_normal_form(rows) and quotient_shape the invariant factors
(by alternating it with the Hermite basis of its columns), and integer
membership is span(ZZ, n).contains; no unimodular transforms are formed.
rank_certified streams rows through a mod-p echelon (a mod-p rank is a
lower bound for the rank over Q, so reaching a known upper bound proves
the exact value).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from .rings import GF, QQ, ZZ, BaseRing, _is_prime

# ---------------------------------------------------------------------------
# sparse vectors and operators
# ---------------------------------------------------------------------------
# A vector is a dict index -> nonzero scalar.  An operator is column-major,
# a dict col -> (vector of that column's rows), with no empty column.  Every
# helper returns these canonical forms, so operators compare with ==.  The
# helpers are private because they run inside the hottest loops and
# perfbench's tracer wraps every public rograd function.


def _vec_axpy(ring: BaseRing, acc: dict, vec: dict, coef=1) -> dict:
    """acc += coef * vec in place, dropping entries that vanish; returns acc."""
    p = ring.p
    for k, v in vec.items():
        w = acc.get(k, 0) + coef * v
        if p is not None:
            w %= p
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)
    return acc


def _op_axpy(ring: BaseRing, acc: dict, op: dict, coef=1) -> dict:
    """acc += coef * op in place, dropping entries and columns that vanish;
    returns acc."""
    for j, col in op.items():
        tgt = acc.setdefault(j, {})
        _vec_axpy(ring, tgt, col, coef)
        if not tgt:
            del acc[j]
    return acc


def _op_scale(ring: BaseRing, c, op: dict) -> dict:
    c = ring.coerce(c)
    if ring.is_zero(c):
        return {}
    return {j: {i: ring.mul(c, v) for i, v in col.items()} for j, col in op.items()}


def _op_apply(ring: BaseRing, op: dict, x: dict) -> dict:
    out = {}
    for j, c in x.items():
        col = op.get(j)
        if col:
            _vec_axpy(ring, out, col, c)
    return out


def _op_compose(ring: BaseRing, A: dict, B: dict) -> dict:
    """A after B."""
    out = {}
    for j, col in B.items():
        res = _op_apply(ring, A, col)
        if res:
            out[j] = res
    return out


def _op_bracket(ring: BaseRing, A: dict, B: dict) -> dict:
    """AB - BA."""
    return _op_axpy(ring, _op_compose(ring, A, B), _op_compose(ring, B, A), -1)


def _op_flatten(op: dict, n: int) -> dict:
    """The operator as one vector, entry (row i, col j) at i * n + j."""
    return {i * n + j: v for j, col in op.items() for i, v in col.items()}


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


def smith_normal_form(rows):
    """The invariant factors of the lattice R spanned by the rows (dicts
    col -> integer; a non-integral entry raises ValueError).

    The list has length rank(R); each factor is positive and divides the
    next.  The factors depend only on R, so the rows first go into a
    LatticeEchelon in Hermite normal form, whose basis _hermite_factors
    reads them off.
    """
    lat = LatticeEchelon(hermite=True)
    for row in rows:
        lat.add({c: ZZ.coerce(v) for c, v in row.items()})
    return _hermite_factors(lat)


def _hermite_factors(lat: LatticeEchelon):
    """The invariant factors of a lattice from its Hermite basis.

    Each basis row with lead 1 gives a factor 1: it is the only row with an
    entry in its lead's column, so column operations split it off.  The
    other k rows alternate with their column lattice in Hermite normal form
    (Kannan-Bachem) until each has a single entry.  The product d of the
    current leads is a k x k minor, so d * Z^k lies in the column lattice;
    it goes in first, and every entry stays below d (Domich-Kannan-Trotter).
    The diagonal then becomes a divisor chain by the gcd/lcm steps of
    ModuleShape.__add__.
    """
    rows = [row for row in lat.basis_rows() if row[min(row)] != 1]
    k = len(rows)
    while any(len(row) > 1 for row in rows):
        d = prod(row[min(row)] for row in rows)
        cols = LatticeEchelon(hermite=True)
        for i in range(k):
            cols.add({i: d})
        columns = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                columns.setdefault(c, {})[i] = v
        for col in columns.values():
            cols.add(col)
        rows = cols.basis_rows()
    chain = sum((ModuleShape(0, tuple(row.values())) for row in rows), ModuleShape(0)).torsion
    return [1] * (lat.rank - len(chain)) + list(chain)


# ---------------------------------------------------------------------------
# module shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleShape:
    """Normal form of a finitely presented module: free rank + torsion."""

    free_rank: int
    torsion: tuple = ()

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __add__(self, other: "ModuleShape") -> "ModuleShape":
        """The direct sum, torsion merged into invariant factors by
        Z/a + Z/b = Z/lcm(a, b) + Z/gcd(a, b), from the largest down."""
        factors = list(self.torsion)
        for carry in other.torsion:
            for k in reversed(range(len(factors))):
                factors[k], carry = lcm(factors[k], carry), gcd(factors[k], carry)
            if carry != 1:
                factors.insert(0, carry)
        return ModuleShape(self.free_rank + other.free_rank, tuple(factors))

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _cokernel_shape(n: int, factors) -> ModuleShape:
    """Z^n modulo a lattice with these invariant factors."""
    return ModuleShape(n - len(factors), tuple(d for d in factors if d != 1))


# ---------------------------------------------------------------------------
# one span interface, one backend per ring
# ---------------------------------------------------------------------------
#
# span(ring, ncols) returns the backend of the ring: LatticeEchelon over Z,
# IntEchelon over Q, ModularEchelon over F_p.  Every backend has add(row)
# (True when the span grew), rank, reduce(vec) -> residual, contains(vec),
# basis_rows() (sorted by lead column) and is_full(n) (the span is all of
# R^n), and same_span(a, b) compares two of them.  coordinates(ring, basis,
# ncols) solves for coordinates in a basis through the same backends.
# FieldEchelon, which can track the combination behind each pivot row, is
# the generic-ring reference the backends are tested against; no
# computation uses it.


def _cleared(row: dict):
    """(integer row, d): row scaled by the lcm d of its denominators."""
    d = 1
    for v in row.values():
        d = lcm(d, v.denominator)
    if d == 1:
        return {c: int(v) for c, v in row.items() if v}, 1
    return {c: int(v * d) for c, v in row.items() if v}, d


class IntEchelon:
    """Incremental echelon of rational rows over Q, kept as integer rows.

    Rows are cleared of denominators and kept primitive (gcd 1, positive
    leading entry), so rank is the rank over Q.
    """

    def __init__(self, ncols: int = 0):
        self.pivots = {}  # lead col -> row dict
        self.ncols = ncols

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_rows(self):
        return [self.pivots[c] for c in sorted(self.pivots)]

    def is_full(self, n: int) -> bool:
        return self.rank == n

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row, _ = _cleared(row)
        while row:
            lead = min(row)
            prow = self.pivots.get(lead)
            if prow is None:
                g = _content(row)
                if row[lead] < 0:
                    g = -g
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
                self.pivots[lead] = row
                return True
            # a*row - b*prow kills the lead and stays integral
            row = _combine(row, prow, prow[lead], -row[lead])
            if row:
                g = _content(row)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
        return False

    def reduce(self, vec: dict) -> dict:
        """vec minus the multiples of pivot rows that clear its leads while
        they lie on pivot columns.  Integers stay integers while the pivot's
        lead divides the entry; otherwise the step goes to Fraction."""
        residual = {c: v for c, v in vec.items() if v}
        while residual:
            lead = min(residual)
            prow = self.pivots.get(lead)
            if prow is None:
                break
            x, a = residual[lead], prow[lead]
            coef = x // a if x % a == 0 else Fraction(x) / a
            for c, v in prow.items():
                w = residual.get(c, 0) - coef * v
                if w:
                    residual[c] = w
                else:
                    residual.pop(c, None)
        return residual

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def kernel(self) -> list:
        """Kernel basis over Q, one vector per free column (entry 1 there),
        read off the reduced row echelon form."""
        return _rref_kernel(self.pivots, self.ncols, QQ)


def _content(row: dict) -> int:
    """gcd of the entries of an integer row (stops early at 1)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


class FieldEchelon:
    """Incremental row echelon over any field ring, with optional combo
    tracking: the generic reference for the per-ring backends."""

    def __init__(self, ring, track: bool = False):
        self.ring = ring
        self.track = track
        self.pivots = {}  # lead col -> (row dict with lead 1, combo | None)
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        ring = self.ring
        idx = self.count
        self.count += 1
        row = {c: ring.coerce(v) for c, v in row.items()}
        row = {c: v for c, v in row.items() if not ring.is_zero(v)}
        combo = {idx: ring.coerce(1)} if self.track else None
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                inv = ring.inv(row[lead])
                row = {c: ring.mul(inv, v) for c, v in row.items()}
                if self.track:
                    combo = {k: ring.mul(inv, v) for k, v in combo.items()}
                self.pivots[lead] = (row, combo)
                return True
            prow, pcombo = hit
            coef = row[lead]
            for c, v in prow.items():
                w = ring.sub(row.get(c, ring.coerce(0)), ring.mul(coef, v))
                if ring.is_zero(w):
                    row.pop(c, None)
                else:
                    row[c] = w
            if self.track:
                for k, v in pcombo.items():
                    w = ring.sub(combo.get(k, ring.coerce(0)), ring.mul(coef, v))
                    if ring.is_zero(w):
                        combo.pop(k, None)
                    else:
                        combo[k] = w
        return False

    def reduce(self, vec: dict):
        ring = self.ring
        residual = {c: ring.coerce(v) for c, v in vec.items()}
        residual = {c: v for c, v in residual.items() if not ring.is_zero(v)}
        coords = {}
        while residual:
            lead = min(residual)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            coef = residual[lead]
            for c, v in prow.items():
                w = ring.sub(residual.get(c, ring.coerce(0)), ring.mul(coef, v))
                if ring.is_zero(w):
                    residual.pop(c, None)
                else:
                    residual[c] = w
            if self.track and pcombo:
                for k, v in pcombo.items():
                    w = ring.add(coords.get(k, ring.coerce(0)), ring.mul(coef, v))
                    if ring.is_zero(w):
                        coords.pop(k, None)
                    else:
                        coords[k] = w
        return residual, coords


class LatticeEchelon:
    """Incremental staircase basis of the lattice spanned by integer rows
    (rational rows are cleared of denominators first).

    With hermite=True the basis is kept in Hermite normal form: each row's
    entry in a later pivot column lies in [0, that pivot's lead).  That basis
    depends only on the lattice, and its entries stay small; without it the
    gcd steps can grow entries to millions of bits on random 40 x 40 inputs.
    """

    def __init__(self, hermite: bool = False):
        self.pivots = {}  # lead col -> row dict
        self.hermite = hermite

    @property
    def rank(self):
        return len(self.pivots)

    def basis_rows(self):
        return [self.pivots[c] for c in sorted(self.pivots)]

    def is_full(self, n: int) -> bool:
        """Whether the lattice is all of Z^n: rank n and every lead 1."""
        return self.rank == n and all(row[c] == 1 for c, row in self.pivots.items())

    def add(self, row: dict) -> bool:
        """Insert a row into the lattice; True if the lattice grew."""
        row, _ = _cleared(row)
        grew = False
        while row:
            lead = min(row)
            prow = self.pivots.get(lead)
            if prow is None:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                self._set_pivot(lead, row)
                return True
            a, b = prow[lead], row[lead]
            if b % a == 0:
                row = _combine(row, prow, 1, -(b // a))
            else:
                g, x, y = _xgcd(a, b)
                # new pivot x*prow + y*row has lead entry g, and
                # (a/g)*row - (b/g)*prow kills the lead
                newp = _combine(row, prow, y, x)
                row = _combine(row, prow, a // g, -(b // g))
                self._set_pivot(lead, newp)
                grew = True
            if self.hermite:
                self._reduce_after(row, lead)
        return grew

    def _set_pivot(self, lead: int, row: dict):
        self.pivots[lead] = row
        if not self.hermite:
            return
        self._reduce_after(row, lead)
        h = row[lead]
        # only rows with an earlier lead can have an entry in column lead
        for c in [c for c, other in self.pivots.items() if lead in other and c != lead]:
            other = self.pivots[c]
            if not 0 <= other[lead] < h:
                other = _combine(other, row, 1, -(other[lead] // h))
                self._reduce_after(other, lead)
                self.pivots[c] = other

    def _reduce_after(self, vec: dict, col: int):
        """Bring vec's entries in the pivot columns after col into [0, lead)
        by subtracting pivot rows, column by column, in place."""
        pivots = self.pivots
        todo = [c for c in vec if c > col and c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            prow = pivots[c]
            q = vec.get(c, 0) // prow[c]
            if not q:
                continue
            for cc, w in prow.items():
                v = vec.get(cc, 0) - q * w
                if v:
                    if cc not in vec and cc > c and cc in pivots:
                        heappush(todo, cc)
                    vec[cc] = v
                else:
                    vec.pop(cc, None)

    def reduce(self, vec: dict) -> dict:
        """vec minus the lattice vector that clears its leads while each
        lead is a multiple of the pivot's."""
        vec = {c: int(v) for c, v in vec.items() if v}
        while vec:
            lead = min(vec)
            prow = self.pivots.get(lead)
            if prow is None or vec[lead] % prow[lead] != 0:
                break
            q = vec[lead] // prow[lead]
            new = {}
            for c in set(vec) | set(prow):
                v = vec.get(c, 0) - q * prow.get(c, 0)
                if v:
                    new[c] = v
            vec = new
        return vec

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def _combine(row: dict, prow: dict, s: int, t: int) -> dict:
    """s*row + t*prow, without zero entries."""
    out = {}
    for c in set(row) | set(prow):
        v = s * row.get(c, 0) + t * prow.get(c, 0)
        if v:
            out[c] = v
    return out


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


CERT_PRIME = 999983
assert _is_prime(CERT_PRIME)


class ModularEchelon:
    """Streaming row echelon over F_p on sparse rows.

    Rows are dicts col -> int in [0, p), kept by lead column with lead
    entry 1.  The arithmetic is on Python ints reduced mod p, so it is exact
    for every prime p.  Over F_p this is exact linear algebra; over Z or Q
    it yields a lower bound on the rank (reduction mod p cannot increase
    rank), which certifies the exact rank whenever a structural upper bound
    is hit.
    """

    def __init__(self, ncols: int, p: int = CERT_PRIME):
        self.ncols = ncols
        self.p = p
        self.pivots = {}  # lead col -> row dict with lead entry 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_rows(self):
        return [self.pivots[c] for c in sorted(self.pivots)]

    def is_full(self, n: int) -> bool:
        return self.rank == n

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        p = self.p
        pivots = self.pivots
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                return True
            f = row[lead]
            for c, v in prow.items():
                w = (row.get(c, 0) - f * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
        return False

    def add_batch(self, batch) -> int:
        """Insert an iterable of sparse rows; returns the rank gain."""
        before = len(self.pivots)
        for row in batch:
            self.add(row)
        return len(self.pivots) - before

    def reduce(self, vec: dict) -> dict:
        """vec mod p minus the multiples of pivot rows that clear its leads
        while they lie on pivot columns."""
        p = self.p
        residual = {c: v % p for c, v in vec.items() if v % p}
        while residual:
            lead = min(residual)
            prow = self.pivots.get(lead)
            if prow is None:
                break
            f = residual[lead]
            for c, v in prow.items():
                w = (residual.get(c, 0) - f * v) % p
                if w:
                    residual[c] = w
                else:
                    del residual[c]
        return residual

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def kernel(self) -> list:
        """Kernel basis (valid when p is the base field characteristic), one
        vector per free column, read off the reduced row echelon form."""
        return _rref_kernel(self.pivots, self.ncols, GF(self.p))


def _rref_kernel(rows: dict, ncols: int, ring) -> list:
    """Kernel basis of echelon rows (lead col -> row) over a field ring, one
    vector per free column with entry 1 there, in free-column order."""
    reduced = {}  # back-substitution: no row keeps another pivot column
    for lead in sorted(rows, reverse=True):
        row = rows[lead]
        inv = ring.inv(row[lead])
        row = {c: ring.mul(inv, v) for c, v in row.items()}
        for c in [c for c in row if c in reduced and c != lead]:
            # reduced[c] has entry 1 at c, so this clears row[c]
            _vec_axpy(ring, row, reduced[c], ring.neg(row[c]))
        reduced[lead] = row
    one = ring.coerce(1)
    basis = {free: {free: one} for free in range(ncols) if free not in reduced}
    for lead in sorted(reduced):
        for c, v in reduced[lead].items():
            if c != lead:
                basis[c][lead] = ring.coerce(ring.neg(v))
    return list(basis.values())


def span(ring: BaseRing, ncols: int):
    """The span backend of the ring on rows of width ncols.

    F_p: ModularEchelon.  Q: IntEchelon (rational rows, cleared).  Z:
    LatticeEchelon.
    """
    if ring.kind == "Fp":
        return ModularEchelon(ncols, ring.p)
    if ring.kind == "Z":
        return LatticeEchelon()
    return IntEchelon(ncols)


def coordinates(ring: BaseRing, basis, ncols: int):
    """Coordinate solver of a basis of sparse rows of width ncols: a function
    vec -> {index: nonzero coefficient}, or None when vec is outside the
    span.  Returns None itself when the basis is dependent.

    Row k enters the span of the field (Q over Z) as (b_k | e_k), e_k in
    column ncols + k, so reducing (vec | 0) leaves (0 | -coords) when vec
    is in the span.  Over Z a coefficient that is not an integer raises
    ValueError (ZZ.coerce).
    """
    ech = span(QQ if ring.kind == "Z" else ring, ncols + len(basis))
    for k, row in enumerate(basis):
        ech.add({**row, ncols + k: 1})
    # b_k in the span of the earlier rows leaves a lead in the e part
    if any(min(row) >= ncols for row in ech.basis_rows()):
        return None

    def solve(vec: dict):
        residual = ech.reduce(vec)
        if residual and min(residual) < ncols:
            return None
        return {c - ncols: ring.coerce(-v) for c, v in residual.items()}

    return solve


def same_span(a, b) -> bool:
    """Whether two span backends span the same module: each contains the
    other's basis rows."""
    return all(b.contains(r) for r in a.basis_rows()) and all(
        a.contains(r) for r in b.basis_rows()
    )


def lattice_span(ring: BaseRing, ncols: int):
    """A span whose basis rows are integral wherever the ring allows: the
    lattice staircase of the cleared rows in characteristic 0 (over Q as
    over Z), the ring's own echelon over F_p.  Operator algebras take their
    bases from it, so that their structure constants mostly stay integral."""
    return span(ring if ring.characteristic else ZZ, ncols)


def op_span_dim(ops, ring: BaseRing) -> int:
    """Dimension (over the fraction field) of the span of sparse operators."""
    n = 1 + max((max(j, *col) for op in ops for j, col in op.items()), default=0)
    ech = span(ring, n * n)
    for op in ops:
        ech.add(_op_flatten(op, n))
    return ech.rank


def _ring_rows(rows, ncols: int, ring: BaseRing):
    """The rows (dicts col -> scalar) with every entry coerced into the ring
    and zeros dropped; a nonzero entry outside columns [0, ncols) raises
    ValueError, as does a non-integral entry over Z."""
    for row in rows:
        clean = {}
        for c, v in row.items():
            v = ring.coerce(v)
            if not ring.is_zero(v):
                if not 0 <= c < ncols:
                    raise ValueError(f"column {c} outside [0, {ncols})")
                clean[c] = v
        yield clean


def kernel_basis(rows, ncols: int, ring: BaseRing):
    """Basis of the null space {x : Mx = 0} of the matrix M with these rows
    (dicts col -> scalar) and ncols columns, as dict-vectors.

    Over a field: reduced echelon pivots with the natural column order;
    each basis vector has entry 1 at its free column.

    Over Z: a basis of the pure lattice {x in Z^n : Mx = 0}.  The rows
    (column j of M) + e_j span the lattice {(Mx, x)}, and the rows of its
    Hermite basis whose lead lies past M's rows span its meet with 0 + Z^n
    (Cohen, GTM 138, section 2.4).  Their e-parts are the basis, which depends
    only on the kernel and has small entries.
    """
    rows = list(_ring_rows(rows, ncols, ring))
    if ring.kind == "Z":
        m = len(rows)
        cols = [{m + j: 1} for j in range(ncols)]
        for i, row in enumerate(rows):
            for j, v in row.items():
                cols[j][i] = v
        lat = LatticeEchelon(hermite=True)
        for col in cols:
            lat.add(col)
        return [
            {c - m: v for c, v in row.items()} for row in lat.basis_rows() if min(row) >= m
        ]
    ech = span(ring, ncols)
    for row in rows:
        ech.add(row)
    return ech.kernel()


def field_rank(rows, ncols: int, ring: BaseRing) -> int:
    """Rank over the fraction field of the ring of the rows (dicts col ->
    scalar) in ncols columns."""
    ech = span(ring, ncols)
    for row in _ring_rows(rows, ncols, ring):
        ech.add(row)
    return ech.rank


# ---------------------------------------------------------------------------
# ranks and quotients of relation streams
# ---------------------------------------------------------------------------

def rank_certified(rows_factory, ncols: int, upper_bound: int, ring: BaseRing = QQ):
    """Exact rank of rows known to have rank <= upper_bound; Z and Q rows
    have their rank over Q, F_p rows their rank over F_p.

    Streams rows through a mod-p echelon in batches of min(1024,
    max(64, upper_bound)) rows and stops after the first batch that
    reaches the bound.  Over F_p that is one exact pass.
    Over Q it proves rank = bound (a mod-p rank is a lower bound); when the
    bound is not attained it falls back to exact integer elimination, so
    the result is exact in every case.  A rank above the bound raises.
    """
    def _hit(rank):
        if rank > upper_bound:
            # rank mod p never exceeds the rank over Q, so overshooting the
            # structural bound means the caller's bound (or the rows) are bad
            raise AssertionError("rank exceeds its structural upper bound")
        return rank == upper_bound

    modular = ring.kind == "Fp"
    batch = min(1024, max(64, upper_bound))
    ech = ModularEchelon(ncols, ring.p if modular else CERT_PRIME)
    buf = []
    for row in rows_factory():
        buf.append(row if modular else _cleared(row)[0])
        if len(buf) >= batch:
            ech.add_batch(buf)
            buf = []
            if _hit(ech.rank):
                return upper_bound
    if buf:
        ech.add_batch(buf)
    if _hit(ech.rank) or modular:
        return ech.rank
    exact = IntEchelon()
    for row in rows_factory():
        exact.add(row)
        if _hit(exact.rank):
            return upper_bound
    return exact.rank


def quotient_shape(ring: BaseRing, rel_rows_factory, ncols: int, u_cols: dict, rank_u: int):
    """(R^ncols/R, ker(u)/R) for the relations R of rel_rows_factory() and a
    map u given by its columns (col -> {row: value}) of rank rank_u, with R
    inside ker u.

    Over Z: the relation rows go into a lattice, and one factors-only SNF
    of its basis gives Z^ncols/R (integer_kernel_mod_relations).  Over a
    field: dimensions from the certified rank of R, bounded by
    dim ker u = ncols - rank_u.

    Every row read is checked to lie in ker u.  The field route stops at
    the batch that reaches the bound; the uce blocks meet the contract on
    the rest, as u of a relation row is a Jacobiator (verify_jacobi).
    """
    if ring.kind == "Z":
        return integer_kernel_mod_relations(u_cols, rank_u, rel_rows_factory(), ncols)
    rows = lambda: _in_ker_u(ring, rel_rows_factory(), u_cols)  # noqa: E731
    rank = rank_certified(rows, ncols, ncols - rank_u, ring)
    return ModuleShape(ncols - rank, ()), ModuleShape(ncols - rank - rank_u, ())


def _in_ker_u(ring: BaseRing, rows, u_cols: dict):
    """The rows, each checked to have u(row) = 0."""
    for r, row in enumerate(rows):
        image = {}
        for c, v in row.items():
            _vec_axpy(ring, image, u_cols.get(c, {}), v)
        if image:
            raise AssertionError(f"relation outside ker u (relation row {r})")
        yield row


def integer_kernel_mod_relations(u_cols: dict, rank_u: int, rel_rows, ncols: int):
    """(Z^ncols/R, ker(u)/R) for the integer map u given by its columns
    (col -> {row: value}) of rank rank_u, and R spanned by rel_rows (a
    non-integral entry raises ValueError).

    One SNF of Z^ncols/R gives both: Z^ncols/ker(u) embeds in Z^rank_u, so
    it is free and splits off, Z^ncols/R = ker(u)/R + Z^rank_u.  That needs
    R in ker(u), which is checked row by row as each row goes into a
    lattice; the SNF runs on the lattice basis, at most one row per column.
    """
    lat = LatticeEchelon(hermite=True)
    for row in _in_ker_u(ZZ, rel_rows, u_cols):
        lat.add({c: ZZ.coerce(v) for c, v in row.items()})
    quotient = _cokernel_shape(ncols, _hermite_factors(lat))
    if quotient.free_rank < rank_u:
        raise AssertionError(
            f"Z^{ncols}/R has free rank {quotient.free_rank} below rank(u) = {rank_u}"
        )
    return quotient, ModuleShape(quotient.free_rank - rank_u, quotient.torsion)
