"""Finite-rank coordinate algebras as structure-constant data.

Full matrix algebras, the split octonions in the Zorn vector-matrix model,
commutators and associators, multiplication operators, standard derivations
and trialities, all operators sparse and column-major (see linalg).  Laws
(associative / alternative / commutative) are checked eagerly at
construction, including the linearizations that make the checks valid in
every scalar extension, and cached as flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import _op_apply, _op_axpy, _op_bracket, _op_scale, _vec_axpy
from .rings import BaseRing


class StructureAlgebra:
    """Algebra given by a multiplication tensor over a BaseRing."""

    def __init__(
        self,
        ring: BaseRing,
        labels,
        mult,
        unit=None,
        involution=None,
        check=True,
    ):
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        # mult: dict (i, j) -> dict k -> scalar
        self.mult = {
            key: {k: ring.coerce(v) for k, v in vec.items() if not ring.is_zero(ring.coerce(v))}
            for key, vec in mult.items()
        }
        self.unit = None if unit is None else self._vec(unit)
        # sparse operator or None, entries as given (to_json writes them back)
        self.involution = involution
        self.flags = {}
        if check:
            self._verify()

    # -- element arithmetic on dict-vectors ------------------------------
    def _vec(self, x) -> dict:
        if isinstance(x, dict):
            return {k: self.ring.coerce(v) for k, v in x.items() if not self.ring.is_zero(self.ring.coerce(v))}
        return {i: self.ring.coerce(v) for i, v in enumerate(x) if not self.ring.is_zero(self.ring.coerce(v))}

    def mul(self, x: dict, y: dict) -> dict:
        ring = self.ring
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = self.mult.get((i, j))
                if vec:
                    _vec_axpy(ring, out, vec, ring.mul(a, b))
        return out

    def add(self, x: dict, y: dict) -> dict:
        return _vec_axpy(self.ring, dict(x), y)

    def sub(self, x: dict, y: dict) -> dict:
        return _vec_axpy(self.ring, dict(x), y, -1)

    def smul(self, c, x: dict) -> dict:
        return _vec_axpy(self.ring, {}, x, self.ring.coerce(c))

    def conj(self, x: dict) -> dict:
        if self.involution is None:
            raise ValueError("algebra has no involution")
        return _op_apply(self.ring, self.involution, x)

    def basis_vec(self, i: int) -> dict:
        return {i: self.ring.coerce(1)}

    def commutator(self, x: dict, y: dict) -> dict:
        return self.sub(self.mul(x, y), self.mul(y, x))

    def associator(self, x: dict, y: dict, z: dict) -> dict:
        return self.sub(self.mul(self.mul(x, y), z), self.mul(x, self.mul(y, z)))

    # -- multiplication operators ----------------------------------------
    def L(self, a: dict) -> dict:
        """Left multiplication by a, as a sparse operator."""
        cols = ((j, self.mul(a, self.basis_vec(j))) for j in range(self.dim))
        return {j: col for j, col in cols if col}

    def R(self, a: dict) -> dict:
        """Right multiplication by a, as a sparse operator."""
        cols = ((j, self.mul(self.basis_vec(j), a)) for j in range(self.dim))
        return {j: col for j, col in cols if col}

    # -- norm and trace (involution algebras) ------------------------------
    def norm_scalar(self, x: dict):
        """N(x) with x * conj(x) = N(x) * unit."""
        return self._unit_multiple(self.mul(x, self.conj(x)))

    def norm_bilinear(self, x: dict, y: dict):
        """N(x, y) with x*conj(y) + y*conj(x) = N(x,y) * unit."""
        s = self.add(self.mul(x, self.conj(y)), self.mul(y, self.conj(x)))
        return self._unit_multiple(s)

    def _unit_multiple(self, s: dict):
        if self.unit is None:
            raise ValueError("algebra has no unit")
        ring = self.ring
        if not s:
            return ring.coerce(0)
        i, ui = next(iter(self.unit.items()))
        c = ring.div(s.get(i, ring.coerce(0)), ui)
        if self.smul(c, self.unit) != s:
            raise ValueError("element is not a multiple of the unit")
        return c

    # -- verification -------------------------------------------------------
    def _verify(self):
        ring = self.ring
        dim = self.dim
        basis = [self.basis_vec(i) for i in range(dim)]
        if self.unit is not None:
            for b in basis:
                if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                    raise ValueError("declared unit is not a two-sided unit")
        if self.involution is not None:
            for i in range(dim):
                twice = self.conj(self.conj(basis[i]))
                if twice != basis[i]:
                    raise ValueError("involution is not of order 2")
            for i, j in product(range(dim), repeat=2):
                lhs = self.conj(self.mul(basis[i], basis[j]))
                rhs = self.mul(self.conj(basis[j]), self.conj(basis[i]))
                if lhs != rhs:
                    raise ValueError("involution is not an anti-automorphism")
        assoc = all(
            not self.associator(basis[i], basis[j], basis[k])
            for i, j, k in product(range(dim), repeat=3)
        )
        comm = all(
            self.mul(basis[i], basis[j]) == self.mul(basis[j], basis[i])
            for i, j in product(range(dim), repeat=2)
        )
        if assoc:
            alt = True
        else:
            alt = self._check_alternative(basis)
        self.flags = {
            "associative": assoc,
            "alternative": alt,
            "commutative": comm,
            "unital": self.unit is not None,
        }

    def _check_alternative(self, basis):
        # (x,x,y) = 0 and (y,x,x) = 0 together with their linearizations,
        # which is alternativity in every scalar extension.
        dim = self.dim
        for i, j in product(range(dim), repeat=2):
            if self.associator(basis[i], basis[i], basis[j]):
                return False
            if self.associator(basis[j], basis[i], basis[i]):
                return False
        for i in range(dim):
            for k in range(i + 1, dim):
                for j in range(dim):
                    lin = self.add(
                        self.associator(basis[i], basis[k], basis[j]),
                        self.associator(basis[k], basis[i], basis[j]),
                    )
                    if lin:
                        return False
                    lin = self.add(
                        self.associator(basis[j], basis[i], basis[k]),
                        self.associator(basis[j], basis[k], basis[i]),
                    )
                    if lin:
                        return False
        return True

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        ring = self.ring
        table = []
        for (i, j), vec in sorted(self.mult.items()):
            table.append([i, j, [[k, ring.scalar_str(v)] for k, v in sorted(vec.items())]])
        data = {
            "dim": self.dim,
            "labels": self.labels,
            "unit": None
            if self.unit is None
            else [[k, ring.scalar_str(v)] for k, v in sorted(self.unit.items())],
            "table": table,
        }
        if self.involution is not None:
            cols = [self.involution.get(j, {}) for j in range(self.dim)]
            data["involution"] = [
                [ring.scalar_str(col.get(i, 0)) for col in cols] for i in range(self.dim)
            ]
        return data

    @classmethod
    def from_json(cls, data: dict, ring: BaseRing) -> "StructureAlgebra":
        mult = {}
        for i, j, terms in data["table"]:
            mult[(i, j)] = {k: ring.parse_scalar(s) for k, s in terms}
        unit = None
        if data.get("unit") is not None:
            unit = {k: ring.parse_scalar(s) for k, s in data["unit"]}
        inv = None
        if data.get("involution") is not None:
            inv = {}
            for i, row in enumerate(data["involution"]):
                for j, s in enumerate(row):
                    v = ring.parse_scalar(s)
                    if not ring.is_zero(v):
                        inv.setdefault(j, {})[i] = v
        return cls(ring, data["labels"], mult, unit=unit, involution=inv)

    def __repr__(self):
        tags = ",".join(k for k, v in self.flags.items() if v)
        return f"StructureAlgebra(dim={self.dim}, {self.ring}, [{tags}])"


@dataclass
class Element:
    """Algebra element; arithmetic checks that operands share the algebra."""

    algebra: StructureAlgebra
    coords: dict

    def _match(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._match(other)
        return Element(self.algebra, self.algebra.add(self.coords, other.coords))

    def __sub__(self, other):
        self._match(other)
        return Element(self.algebra, self.algebra.sub(self.coords, other.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._match(other)
            return Element(self.algebra, self.algebra.mul(self.coords, other.coords))
        return Element(self.algebra, self.algebra.smul(other, self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )


def commutator(a: Element, b: Element) -> Element:
    a._match(b)
    return Element(a.algebra, a.algebra.commutator(a.coords, b.coords))


def associator(a: Element, b: Element, c: Element) -> Element:
    a._match(b)
    a._match(c)
    return Element(a.algebra, a.algebra.associator(a.coords, b.coords, c.coords))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def matrix_algebra(n: int, ring: BaseRing, involution: str | None = None) -> StructureAlgebra:
    """Full n x n matrix algebra with E_ij basis; E_ij E_kl = delta_jk E_il.

    involution may be "transpose" (or "identity" when n == 1).
    """
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    mult = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                mult[(a, b)] = {idx[(i, l)]: 1}
    unit = {idx[(i, i)]: 1 for i in range(n)}
    inv = None
    if involution == "transpose" or (involution == "identity" and n == 1):
        inv = {a: {idx[(j, i)]: 1} for (i, j), a in idx.items()}
    elif involution is not None:
        raise ValueError(f"unknown involution {involution!r}")
    return StructureAlgebra(ring, labels, mult, unit=unit, involution=inv)


def tensor_matrix_algebra(n: int, D: StructureAlgebra) -> StructureAlgebra:
    """Matrices of size n with entries in D: basis E_ij (x) d."""
    ring = D.ring
    dd = D.dim
    labels = [
        f"E{i + 1}{j + 1}*{D.labels[t]}"
        for i in range(n)
        for j in range(n)
        for t in range(dd)
    ]

    def idx(i, j, t):
        return (i * n + j) * dd + t

    mult = {}
    for i, j, t in product(range(n), range(n), range(dd)):
        for k, l, s in product(range(n), range(n), range(dd)):
            if j != k:
                continue
            vec = D.mult.get((t, s))
            if vec:
                mult[(idx(i, j, t), idx(k, l, s))] = {
                    idx(i, l, u): c for u, c in vec.items()
                }
    unit = None
    if D.unit is not None:
        unit = {}
        for i in range(n):
            for t, c in D.unit.items():
                unit[idx(i, i, t)] = c
    return StructureAlgebra(ring, labels, mult, unit=unit)


def split_octonions(ring: BaseRing) -> StructureAlgebra:
    """Split octonions as Zorn vector matrices over ring^3.

    Basis x1 = e11, x^1 = e22 and hyperbolic triples x_{1+i}, x^{1+i} with
    N(x_i, x^j) = delta_ij; standard involution zbar = t(z) 1 - z.
    """
    # coordinates: (alpha1, u in M; x in M*, alpha2) with M = ring^3
    # basis order: x1, x2, x3, x4, x^1, x^2, x^3, x^4
    labels = ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"]

    def make(a1, u, x, a2):
        vec = {}
        if a1:
            vec[0] = a1
        for i, c in enumerate(u):
            if c:
                vec[1 + i] = c
        if a2:
            vec[4] = a2
        for i, c in enumerate(x):
            if c:
                vec[5 + i] = c
        return vec

    def split(vec):
        a1 = vec.get(0, 0)
        a2 = vec.get(4, 0)
        u = [vec.get(1 + i, 0) for i in range(3)]
        x = [vec.get(5 + i, 0) for i in range(3)]
        return a1, u, x, a2

    def cross(p, q):
        return [
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        ]

    def pairdot(p, q):
        return sum(a * b for a, b in zip(p, q))

    basis_vecs = []
    basis_vecs.append(make(1, [0, 0, 0], [0, 0, 0], 0))  # x1 = e11
    for i in range(3):
        u = [0, 0, 0]
        u[i] = 1
        basis_vecs.append(make(0, u, [0, 0, 0], 0))  # x_{1+i}
    basis_vecs.append(make(0, [0, 0, 0], [0, 0, 0], 1))  # y1 = e22
    for i in range(3):
        x = [0, 0, 0]
        x[i] = 1
        basis_vecs.append(make(0, [0, 0, 0], x, 0))  # y_{1+i}

    def zorn_mul(v, w):
        a1, u, x, a2 = split(v)
        b1, vv, y, b2 = split(w)
        c1 = a1 * b1 - pairdot(u, y)
        cu = [a1 * vv[i] + b2 * u[i] + c for i, c in enumerate(cross(x, y))]
        cx = [b1 * x[i] + a2 * y[i] + c for i, c in enumerate(cross(u, vv))]
        c2 = a2 * b2 - pairdot(x, vv)
        return make(c1, cu, cx, c2)

    mult = {}
    for a in range(8):
        for b in range(8):
            prod = zorn_mul(basis_vecs[a], basis_vecs[b])
            out = {k: v for k, v in prod.items() if v}
            mult[(a, b)] = out
    unit = {0: 1, 4: 1}
    # zbar = (a1 + a2) * 1 - z: swaps x1 = e11 and y1 = e22, negates the rest
    inv = {j: {4 - j: 1} if j in (0, 4) else {j: -1} for j in range(8)}
    alg = StructureAlgebra(ring, labels, mult, unit=unit, involution=inv)
    if not alg.flags["alternative"]:
        raise AssertionError("Zorn model failed alternativity")
    return alg


# ---------------------------------------------------------------------------
# operators on an algebra
# ---------------------------------------------------------------------------


def is_derivation(A: StructureAlgebra, op) -> bool:
    ring = A.ring
    for i, j in product(range(A.dim), repeat=2):
        ei, ej = A.basis_vec(i), A.basis_vec(j)
        lhs = _op_apply(ring, op, A.mul(ei, ej))
        rhs = A.add(
            A.mul(_op_apply(ring, op, ei), ej), A.mul(ei, _op_apply(ring, op, ej))
        )
        if lhs != rhs:
            return False
    return True


def standard_derivation(A: StructureAlgebra, a: dict, b: dict) -> dict:
    """SD(a,b) = L_[a,b] - R_[a,b] + 3[L_b, R_a] for alternative algebras.

    This is the form satisfying the inner-derivation condition
    3x + sum[a_i, b_i] = 0 (with x = [a,b] and [L_b, R_a] = -[L_a, R_b]);
    it agrees with the classical standard derivation.
    """
    if not A.flags.get("alternative"):
        raise ValueError("standard derivations need an alternative algebra")
    ring = A.ring
    ab = A.commutator(a, b)
    op = _op_axpy(ring, A.L(ab), A.R(ab), -1)
    return _op_axpy(ring, op, _op_bracket(ring, A.L(a), A.R(b)), -3)


# ---------------------------------------------------------------------------
# trialities
# ---------------------------------------------------------------------------


@dataclass
class Triality:
    """Operator triple with t1(ab) = t2(a) b + a t3(b)."""

    t1: dict
    t2: dict
    t3: dict

    def components(self):
        return (self.t1, self.t2, self.t3)


def check_triality(A: StructureAlgebra, T: Triality) -> bool:
    ring = A.ring
    for i, j in product(range(A.dim), repeat=2):
        ei, ej = A.basis_vec(i), A.basis_vec(j)
        lhs = _op_apply(ring, T.t1, A.mul(ei, ej))
        rhs = A.add(
            A.mul(_op_apply(ring, T.t2, ei), ej),
            A.mul(ei, _op_apply(ring, T.t3, ej)),
        )
        if lhs != rhs:
            return False
    return True


def triality_add(S: Triality, T: Triality, ring, sign=1) -> Triality:
    return Triality(*(
        _op_axpy(ring, _op_axpy(ring, {}, s), t, sign)
        for s, t in zip(S.components(), T.components())
    ))


def triality_bracket(S: Triality, T: Triality, ring) -> Triality:
    return Triality(*(
        _op_bracket(ring, s, t) for s, t in zip(S.components(), T.components())
    ))


def lam(A: StructureAlgebra, a: dict) -> Triality:
    """lambda(a) = (L_a, L_a + R_a, -L_a)."""
    if not A.flags.get("alternative"):
        raise ValueError("trialities need an alternative algebra")
    ring = A.ring
    La = A.L(a)
    return Triality(La, _op_axpy(ring, A.R(a), La), _op_scale(ring, -1, La))


def rho(A: StructureAlgebra, b: dict) -> Triality:
    """rho(b) = (R_b, -R_b, L_b + R_b)."""
    if not A.flags.get("alternative"):
        raise ValueError("trialities need an alternative algebra")
    ring = A.ring
    Rb = A.R(b)
    return Triality(Rb, _op_scale(ring, -1, Rb), _op_axpy(ring, A.L(b), Rb))


def sigma(A: StructureAlgebra, a: dict, b: dict) -> Triality:
    """sigma(a,b) = [lambda(a), rho(b)]; first component [L_a, R_b]."""
    return triality_bracket(lam(A, a), rho(A, b), A.ring)


def triality_h(A: StructureAlgebra, delta, a: dict, b: dict) -> Triality:
    """h(Delta, a, b) = (Delta, Delta, Delta) + lambda(a) - rho(b); needs 1/3."""
    if not A.ring.has_inverse_of(3):
        raise ValueError("triality decomposition needs 1/3 in the ring")
    ring = A.ring
    T = triality_add(Triality(delta, delta, delta), lam(A, a), ring)
    return triality_add(T, rho(A, b), ring, sign=-1)


def triality_h_inverse(A: StructureAlgebra, T: Triality):
    """Inverse of h: recover (Delta, a, b) with 3a = 2 t2(1) + t3(1)."""
    if not A.ring.has_inverse_of(3):
        raise ValueError("triality decomposition needs 1/3 in the ring")
    ring = A.ring
    if A.unit is None:
        raise ValueError("need a unit")
    third = ring.inv(ring.coerce(3))
    t2_1 = _op_apply(ring, T.t2, A.unit)
    t3_1 = _op_apply(ring, T.t3, A.unit)
    a = A.smul(third, A.add(A.smul(2, t2_1), t3_1))
    b = A.smul(third, A.sub(A.smul(-1, t2_1), A.smul(2, t3_1)))
    # Delta = t1 - L_a + R_b
    delta = _op_axpy(ring, _op_axpy(ring, A.R(b), A.L(a), -1), T.t1)
    return delta, a, b


# ---------------------------------------------------------------------------
# the g_1 operators spanning so(N)
# ---------------------------------------------------------------------------


def g1_operator(A: StructureAlgebra, a: dict, b: dict) -> dict:
    """g1(a (x) b)(c) = 2(a,b,c) + L_{a bbar - b abar} c - R_{abar b - bbar a} c."""
    if A.involution is None:
        raise ValueError("g1 needs an involution")
    ring = A.ring
    abb = A.sub(A.mul(a, A.conj(b)), A.mul(b, A.conj(a)))
    bba = A.sub(A.mul(A.conj(a), b), A.mul(A.conj(b), a))
    op = _op_axpy(ring, A.L(abb), A.R(bba), -1)
    assoc = ((j, A.associator(a, b, A.basis_vec(j))) for j in range(A.dim))
    return _op_axpy(ring, op, {j: col for j, col in assoc if col}, 2)


def g1_span(A: StructureAlgebra):
    """All g1 operators on basis pairs; their span is so(A, N)."""
    ops = []
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            ops.append(g1_operator(A, A.basis_vec(i), A.basis_vec(j)))
    return ops
