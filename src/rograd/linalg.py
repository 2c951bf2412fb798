"""Exact sparse linear algebra over Z, Q and F_p.

Callers reach it through two entry points that pick the algorithm from the
ring: span(ring, ncols) returns the ring's one echelon backend, and
quotient_shape(ring, ...) reads R^m/R and ker(u)/R off a relation stream
(one Smith normal form over Z, a certified rank over a field).  Also Smith
normal form with unimodular transforms, finitely presented module
normalization, and rank_certified, which streams rows through a mod-p
echelon (a mod-p rank is a lower bound for the rank over Q, so reaching a
known upper bound proves the exact value).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .rings import GF, QQ, ZZ, BaseRing, _is_prime

# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows: int, cols: int, entries: dict, ring: BaseRing = ZZ):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        clean = {}
        for (r, c), v in entries.items():
            v = ring.coerce(v)
            if not ring.is_zero(v):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) out of bounds")
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, row_list, cols: int, ring: BaseRing = ZZ) -> "SparseMatrix":
        """row_list: iterable of dicts col -> scalar."""
        entries = {}
        n = 0
        for r, row in enumerate(row_list):
            n = r + 1
            for c, v in row.items():
                entries[(r, c)] = v
        return cls(n, cols, entries, ring)

    @classmethod
    def from_dense(cls, data, ring: BaseRing = ZZ) -> "SparseMatrix":
        entries = {}
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, entries, ring)

    @classmethod
    def identity(cls, n: int, ring: BaseRing = ZZ) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)}, ring)

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols,
            self.rows,
            {(c, r): v for (r, c), v in self.entries.items()},
            self.ring,
        )

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, {})[c] = v
        o_rows = {}
        for (r, c), v in other.entries.items():
            o_rows.setdefault(r, {})[c] = v
        entries = {}
        for r, row in by_row.items():
            acc = {}
            for k, v in row.items():
                for c, w in o_rows.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            for c, v in acc.items():
                if v:
                    entries[(r, c)] = v
        return SparseMatrix(self.rows, other.cols, entries, self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)}, {self.ring})"

    def to_json(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[r, c, self.ring.scalar_str(v)] for (r, c), v in items],
        }

    @classmethod
    def from_json(cls, data: dict, ring: BaseRing = ZZ) -> "SparseMatrix":
        entries = {(r, c): ring.parse_scalar(s) for r, c, s in data["entries"]}
        return cls(data["rows"], data["cols"], entries, ring)


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


def smith_normal_form(M: SparseMatrix):
    """Return (invariant factors, (U, V)) with U*M*V diagonal, U, V unimodular.

    The factor list has length rank(M); each factor is positive and divides
    the next.  Pivots are chosen to minimize fill-in, with lexicographic
    tie-breaking so results are deterministic.
    """
    if M.ring.kind != "Z":
        raise ValueError("Smith normal form requires integer entries")
    m, n = M.rows, M.cols
    A = [dict() for _ in range(m)]
    colidx = [set() for _ in range(n)]
    for (r, c), v in M.entries.items():
        A[r][c] = v
        colidx[c].add(r)
    U = [{r: 1} for r in range(m)]
    VT = [{c: 1} for c in range(n)]  # VT[j] = column j of V

    def set_entry(r, c, v):
        if v:
            A[r][c] = v
            colidx[c].add(r)
        else:
            if c in A[r]:
                del A[r][c]
                colidx[c].discard(r)

    def row_op(dst, src, q):
        # row dst -= q * row src
        for c, v in list(A[src].items()):
            set_entry(dst, c, A[dst].get(c, 0) - q * v)
        for c, v in list(U[src].items()):
            w = U[dst].get(c, 0) - q * v
            if w:
                U[dst][c] = w
            elif c in U[dst]:
                del U[dst][c]

    def col_op(dst, src, q):
        # col dst -= q * col src
        for r in list(colidx[src]):
            set_entry(r, dst, A[r].get(dst, 0) - q * A[r][src])
        for r, v in list(VT[src].items()):
            w = VT[dst].get(r, 0) - q * v
            if w:
                VT[dst][r] = w
            elif r in VT[dst]:
                del VT[dst][r]

    def swap_rows(a, b):
        if a == b:
            return
        for c in set(A[a]) | set(A[b]):
            colidx[c].discard(a)
            colidx[c].discard(b)
        A[a], A[b] = A[b], A[a]
        U[a], U[b] = U[b], U[a]
        for c in A[a]:
            colidx[c].add(a)
        for c in A[b]:
            colidx[c].add(b)

    def swap_cols(a, b):
        if a == b:
            return
        for r in colidx[a] | colidx[b]:
            va, vb = A[r].get(a), A[r].get(b)
            for c, v in ((a, vb), (b, va)):
                if v is None:
                    A[r].pop(c, None)
                else:
                    A[r][c] = v
        colidx[a], colidx[b] = colidx[b], colidx[a]
        VT[a], VT[b] = VT[b], VT[a]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pivot choice: min fill-in proxy, then |value|, then lexicographic
        best = None
        for c in range(t, n):
            live = [r for r in colidx[c] if r >= t]
            if not live:
                continue
            cn = len(live)
            for r in live:
                rn = sum(1 for cc in A[r] if cc >= t)
                key = ((rn - 1) * (cn - 1), abs(A[r][c]), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        if best is None:
            break
        _, pr, pc = best
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t by euclidean row steps
            moved = False
            rows_here = [r for r in colidx[t] if r != t]
            for r in rows_here:
                a = A[r].get(t)
                if not a:
                    continue
                p = A[t][t]
                q = a // p
                if q:
                    row_op(r, t, q)
                if A[r].get(t):
                    swap_rows(r, t)
                    moved = True
            if moved:
                continue
            cols_here = [c for c in list(A[t]) if c != t]
            for c in cols_here:
                a = A[t].get(c)
                if not a:
                    continue
                p = A[t][t]
                q = a // p
                if q:
                    col_op(c, t, q)
                if A[t].get(c):
                    swap_cols(c, t)
                    moved = True
            if moved:
                continue
            # row & column clean; enforce divisibility on the rest
            d = A[t][t]
            bad = None
            for c in range(t + 1, n):
                for r in colidx[c]:
                    if r > t and A[r][c] % d != 0:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # add offending row into pivot row
        if A[t][t] < 0:
            row_op(t, t, 2)  # negate row t: r_t -= 2*r_t
        t += 1

    factors = []
    for i in range(limit):
        v = A[i].get(i, 0)
        if v:
            factors.append(v)
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise AssertionError("invariant factor chain broken")
    Umat = SparseMatrix.from_rows(U, m, ZZ) if m else SparseMatrix(0, 0, {})
    Vmat = SparseMatrix(
        n, n, {(r, j): v for j, col in enumerate(VT) for r, v in col.items()}, ZZ
    )
    return factors, (Umat, Vmat)


def integer_kernel(M: SparseMatrix):
    """Basis (list of dict-vectors) of the pure lattice {x in Z^n : Mx = 0}."""
    factors, (_, V) = smith_normal_form(M)
    r = len(factors)
    cols = [dict() for _ in range(M.cols)]
    for (i, j), v in V.entries.items():
        cols[j][i] = v
    return cols[r:]


def solve_integer(M: SparseMatrix, b: dict):
    """One integer solution x of Mx = b, or None."""
    factors, (U, V) = smith_normal_form(M)
    r = len(factors)
    Urows = U.row_dicts()
    ub = []
    for i in range(M.rows):
        ub.append(sum(v * b.get(c, 0) for c, v in Urows[i].items()))
    y = {}
    for i in range(M.rows):
        if i < r:
            if ub[i] % factors[i] != 0:
                return None
            y[i] = ub[i] // factors[i]
        elif ub[i] != 0:
            return None
    x = {}
    Vrows = V.row_dicts()
    for i in range(M.cols):
        s = sum(v * y.get(j, 0) for j, v in Vrows[i].items())
        if s:
            x[i] = s
    return x


# ---------------------------------------------------------------------------
# finitely presented modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleShape:
    """Normal form of a finitely presented module: free rank + torsion."""

    free_rank: int
    torsion: tuple = ()

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class FinitelyPresentedModule:
    """Generators plus a relation matrix (one row per relation)."""

    def __init__(self, ring: BaseRing, generators: int, relations: SparseMatrix):
        if relations.cols != generators:
            raise ValueError("relation matrix width must equal generator count")
        self.ring = ring
        self.generators = generators
        self.relations = relations

    def invariants(self) -> ModuleShape:
        return module_invariants(self)


def module_invariants(m: FinitelyPresentedModule) -> ModuleShape:
    """Normal form: over Z invariant factors (1s dropped) + free rank;
    over a field just the dimension."""
    if m.ring.kind == "Z":
        factors, _ = smith_normal_form(m.relations)
        torsion = tuple(d for d in factors if d != 1)
        return ModuleShape(m.generators - len(factors), torsion)
    rank = field_rank(
        SparseMatrix(
            m.relations.rows, m.relations.cols, m.relations.entries, m.ring
        )
    )
    return ModuleShape(m.generators - rank, ())


# ---------------------------------------------------------------------------
# one span interface, one backend per ring
# ---------------------------------------------------------------------------
#
# span(ring, ncols) returns the backend of the ring: LatticeEchelon over Z,
# IntEchelon over Q, ModularEchelon over F_p.  Every backend has add(row)
# (True when the span grew), rank, reduce(vec) -> (residual, coords),
# contains(vec), basis_rows() (sorted by lead column) and is_full(n) (the
# span is all of R^n).  FieldEchelon is the generic-ring reference the
# backends are tested against; no computation uses it.


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
    leading entry), so rank is the rank over Q.  With track=True each
    echelon row remembers an exact rational combination of the inserted
    rows, enabling coordinate solves.
    """

    def __init__(self, track: bool = False, ncols: int = 0):
        self.pivots = {}  # lead col -> (row dict, combo dict | None)
        self.track = track
        self.ncols = ncols
        self.count = 0  # rows inserted so far (for combo indexing)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_rows(self):
        return [self.pivots[c][0] for c in sorted(self.pivots)]

    def is_full(self, n: int) -> bool:
        return self.rank == n

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        idx = self.count
        self.count += 1
        row, d = _cleared(row)
        combo = {idx: Fraction(d)} if self.track else None
        while row:
            lead = min(row)
            hit = self.pivots.get(lead)
            if hit is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if row[lead] < 0:
                    g = -g
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
                    if self.track:
                        combo = {k: v / g for k, v in combo.items()}
                self.pivots[lead] = (row, combo)
                return True
            prow, pcombo = hit
            a, b = prow[lead], row[lead]
            # row := a*row - b*prow  (kills the lead, stays integral)
            new = {}
            for c in set(row) | set(prow):
                v = a * row.get(c, 0) - b * prow.get(c, 0)
                if v:
                    new[c] = v
            if self.track:
                combo = {k: v * a for k, v in combo.items()}
                for k, v in pcombo.items():
                    w = combo.get(k, Fraction(0)) - b * v
                    if w:
                        combo[k] = w
                    else:
                        combo.pop(k, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                    if self.track:
                        combo = {k: v / g for k, v in combo.items()}
            row = new
        return False

    def reduce(self, vec: dict, ring=QQ):
        """Return (residual, coords) reducing vec against the echelon.

        coords maps inserted-row index -> rational coefficient such that
        vec = sum(coords * rows) + residual, residual having no support on
        pivot columns.  Requires track=True for meaningful coords.
        """
        residual = {c: Fraction(v) for c, v in vec.items() if v}
        coords = {}
        while residual:
            lead = min(residual)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            coef = residual[lead] / prow[lead]
            for c, v in prow.items():
                w = residual.get(c, Fraction(0)) - coef * v
                if w:
                    residual[c] = w
                else:
                    residual.pop(c, None)
            if self.track and pcombo:
                for k, v in pcombo.items():
                    w = coords.get(k, Fraction(0)) + coef * v
                    if w:
                        coords[k] = w
                    else:
                        coords.pop(k, None)
        return residual, coords

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def kernel(self) -> list:
        """Kernel basis over Q, one vector per free column (entry 1 there),
        read off the reduced row echelon form."""
        rows = {lead: row for lead, (row, _) in self.pivots.items()}
        return _rref_kernel(rows, self.ncols, QQ)


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
    (rational rows are cleared of denominators first)."""

    def __init__(self):
        self.pivots = {}  # lead col -> row dict

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
                self.pivots[lead] = row
                return True
            a, b = prow[lead], row[lead]
            if b % a == 0:
                q = b // a
                new = {}
                for c in set(row) | set(prow):
                    v = row.get(c, 0) - q * prow.get(c, 0)
                    if v:
                        new[c] = v
                row = new
            else:
                g, x, y = _xgcd(a, b)
                # new pivot = x*prow + y*row has lead entry g
                newp = {}
                for c in set(row) | set(prow):
                    v = x * prow.get(c, 0) + y * row.get(c, 0)
                    if v:
                        newp[c] = v
                # replace row by (a/g)*row - (b/g)*prow (kills lead)
                qa, qb = a // g, b // g
                new = {}
                for c in set(row) | set(prow):
                    v = qa * row.get(c, 0) - qb * prow.get(c, 0)
                    if v:
                        new[c] = v
                self.pivots[lead] = newp
                grew = True
                row = new
        return grew

    def reduce(self, vec: dict):
        """(residual, {}): vec minus the lattice vector that clears its leads
        while each lead is a multiple of the pivot's; the lattice keeps no
        coordinates."""
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
        return vec, {}

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def equals(self, other: "LatticeEchelon") -> bool:
        return all(other.contains(r) for r in self.basis_rows()) and all(
            self.contains(r) for r in other.basis_rows()
        )


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


CERT_PRIMES = (999983, 999979, 999961)
for _q in CERT_PRIMES:
    assert _is_prime(_q)


class ModularEchelon:
    """Streaming row echelon over F_p on sparse rows.

    Rows are dicts col -> int in [0, p), kept by lead column with lead
    entry 1.  The arithmetic is on Python ints reduced mod p, so it is exact
    for every prime p.  Over F_p this is exact linear algebra; over Z or Q
    it yields a lower bound on the rank (reduction mod p cannot increase
    rank), which certifies the exact rank whenever a structural upper bound
    is hit.  With track=True each pivot row remembers its combination of the
    inserted rows (mod p), enabling coordinate solves.
    """

    def __init__(self, ncols: int, p: int = CERT_PRIMES[0], track: bool = False):
        self.ncols = ncols
        self.p = p
        self.pivots = {}  # lead col -> row dict with lead entry 1
        self.combos = {} if track else None  # lead col -> combo dict
        self.count = 0  # rows inserted so far (for combo indexing)

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
        combos = self.combos
        combo = None if combos is None else {self.count: 1}
        self.count += 1
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                if combo is not None:
                    combos[lead] = {k: v * inv % p for k, v in combo.items()}
                return True
            f = row[lead]
            for c, v in prow.items():
                w = (row.get(c, 0) - f * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
            if combo is not None:
                _axpy_mod(combo, combos[lead], -f, p)
        return False

    def add_batch(self, batch) -> int:
        """Insert rows (an iterable of sparse dicts, or a 2-D int array);
        returns the rank gain."""
        if isinstance(batch, np.ndarray):
            batch = [{c: int(v) for c, v in enumerate(row) if v} for row in np.atleast_2d(batch)]
        before = len(self.pivots)
        for row in batch:
            self.add(row)
        return len(self.pivots) - before

    def reduce(self, vec: dict):
        """Return (residual, coords) with vec = sum(coords * inserted rows)
        + residual mod p, the residual having no support on pivot columns;
        coords needs track=True."""
        p = self.p
        residual = {c: v % p for c, v in vec.items() if v % p}
        coords = {}
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
            if self.combos is not None:
                _axpy_mod(coords, self.combos[lead], f, p)
        return residual, coords

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def kernel(self) -> list:
        """Kernel basis (valid when p is the base field characteristic), one
        vector per free column, read off the reduced row echelon form."""
        return _rref_kernel(self.pivots, self.ncols, GF(self.p))


def _axpy_mod(dst: dict, src: dict, f: int, p: int):
    """dst += f * src over F_p, dropping zeros."""
    for k, v in src.items():
        w = (dst.get(k, 0) + f * v) % p
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


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


def span(ring: BaseRing, ncols: int, track: bool = False):
    """The span backend of the ring on rows of width ncols.

    F_p: ModularEchelon.  Q: IntEchelon (rational rows, cleared).  Z:
    LatticeEchelon; with track=True, Z gets the rational IntEchelon, whose
    coordinates the caller coerces into Z (which raises if they are not
    integral).
    """
    if ring.kind == "Fp":
        return ModularEchelon(ncols, ring.p, track=track)
    if ring.kind == "Z" and not track:
        return LatticeEchelon()
    return IntEchelon(track=track, ncols=ncols)


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


def kernel_basis(M: SparseMatrix):
    """Basis of the null space of M over a field, as dict-vectors.

    Deterministic: reduced echelon pivots with the natural column order;
    each basis vector has entry 1 at its free column.
    """
    if not M.ring.is_field:
        raise ValueError("kernel_basis requires field coefficients")
    ech = span(M.ring, M.cols)
    for row in M.row_dicts():
        ech.add(row)
    return ech.kernel()


def field_rank(M: SparseMatrix) -> int:
    """Rank of M over the fraction field of its ring."""
    ech = span(M.ring, M.cols)
    for row in M.row_dicts():
        ech.add(row)
    return ech.rank


# ---------------------------------------------------------------------------
# ranks and quotients of relation streams
# ---------------------------------------------------------------------------

_BATCH = 1024  # rows per ModularEchelon.add_batch call in rank_certified


def rank_certified(rows_factory, ncols: int, upper_bound: int, ring: BaseRing = QQ):
    """Exact rank of rows known to have rank <= upper_bound; Z and Q rows
    have their rank over Q, F_p rows their rank over F_p.

    Streams rows through a mod-p echelon, stopping as soon as the bound is
    reached.  Over F_p that is one exact pass.  Over Q it proves rank =
    bound (a mod-p rank is a lower bound); when the bound is not attained it
    falls back to a second prime and finally to exact integer elimination,
    so the result is exact in every case.  A rank above the bound raises.
    """
    def _hit(rank):
        if rank > upper_bound:
            # rank mod p never exceeds the rank over Q, so overshooting the
            # structural bound means the caller's bound (or the rows) are bad
            raise AssertionError("rank exceeds its structural upper bound")
        return rank == upper_bound

    modular = ring.kind == "Fp"
    for p in (ring.p,) if modular else CERT_PRIMES[:2]:
        ech = ModularEchelon(ncols, p)
        buf = []
        for row in rows_factory():
            buf.append(row if modular else _cleared(row)[0])
            if len(buf) >= _BATCH:
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

    Over Z: one SNF of Z^ncols/R, each relation row checked to lie in ker u
    (integer_kernel_mod_relations).  Over a field: dimensions from the
    certified rank of R, bounded by dim ker u = ncols - rank_u.
    """
    if ring.kind == "Z":
        return integer_kernel_mod_relations(u_cols, rank_u, rel_rows_factory(), ncols)
    rank = rank_certified(rel_rows_factory, ncols, ncols - rank_u, ring)
    return ModuleShape(ncols - rank, ()), ModuleShape(ncols - rank - rank_u, ())


# ---------------------------------------------------------------------------
# derived helpers
# ---------------------------------------------------------------------------


def subquotient_invariants(ring, sub_basis, rel_rows, ncols) -> ModuleShape:
    """Normal form of span(sub_basis)/span(rel_rows); relations must lie in
    the span (over Z: in the lattice generated by sub_basis, which holds for
    pure-kernel bases)."""
    k = len(sub_basis)
    if k == 0:
        if any(row for row in rel_rows):
            raise ValueError("relation outside submodule span")
        return ModuleShape(0, ())
    if ring.kind == "Z":
        cols = sorted({c for row in sub_basis for c in row})
        colpos = {c: i for i, c in enumerate(cols)}
        K = SparseMatrix(
            len(cols),
            k,
            {
                (colpos[c], j): sub_basis[j][c]
                for j in range(k)
                for c in sub_basis[j]
            },
            ZZ,
        )
        rel_coords = []
        for row in rel_rows:
            if any(v and c not in colpos for c, v in row.items()):
                raise ValueError("relation outside submodule span")
            b = {colpos[c]: v for c, v in row.items() if v}
            x = solve_integer(K, b)
            if x is None:
                raise ValueError("relation not in submodule lattice")
            rel_coords.append(x)
        rels = SparseMatrix.from_rows(rel_coords, k, ZZ)
        if rels.rows == 0:
            rels = SparseMatrix(0, k, {}, ZZ)
        return module_invariants(FinitelyPresentedModule(ZZ, k, rels))
    # field: dimension of sub minus rank of relations inside it
    sub, rels = span(ring, ncols), span(ring, ncols)
    for r in sub_basis:
        sub.add(r)
    for r in rel_rows:
        if not sub.contains(r):
            raise ValueError("relation outside submodule span")
        rels.add(r)
    return ModuleShape(sub.rank - rels.rank, ())


def integer_kernel_mod_relations(u_cols: dict, rank_u: int, rel_rows, ncols: int):
    """(Z^ncols/R, ker(u)/R) for the integer map u given by its columns
    (col -> {row: value}) of rank rank_u, and R spanned by rel_rows.

    One SNF of Z^ncols/R gives both: Z^ncols/ker(u) embeds in Z^rank_u, so
    it is free and splits off, Z^ncols/R = ker(u)/R + Z^rank_u.  That needs
    R in ker(u), which is checked row by row.
    """
    rels = []
    for r, row in enumerate(rel_rows):
        row = {c: int(v) for c, v in row.items()}
        image = {}
        for c, v in row.items():
            for t, w in u_cols.get(c, {}).items():
                image[t] = image.get(t, 0) + v * w
        if any(image.values()):
            raise AssertionError(f"relation outside ker u (relation row {r})")
        rels.append(row)
    rel_mat = SparseMatrix.from_rows(rels, ncols, ZZ)
    quotient = module_invariants(FinitelyPresentedModule(ZZ, ncols, rel_mat))
    if quotient.free_rank < rank_u:
        raise AssertionError(
            f"Z^{ncols}/R has free rank {quotient.free_rank} below rank(u) = {rank_u}"
        )
    return quotient, ModuleShape(quotient.free_rank - rank_u, quotient.torsion)


def preimage_lattice(M: SparseMatrix, target_rows):
    """Basis of {x in Z^n : Mx lies in the lattice spanned by target_rows}."""
    n = M.cols
    k = len(target_rows)
    entries = dict(M.entries)
    for j, row in enumerate(target_rows):
        for r, v in row.items():
            if v:
                entries[(r, n + j)] = -v
    big = SparseMatrix(M.rows, n + k, entries, ZZ)
    ker = integer_kernel(big)
    lat = LatticeEchelon()
    for vec in ker:
        lat.add({c: v for c, v in vec.items() if c < n})
    return lat.basis_rows()
