"""Jordan pairs and unital Jordan algebras over an exact base ring.

Rectangular matrix pairs, hermitian matrix algebras, the split Albert
algebra, idempotents, Peirce decompositions and covering grids.  Quadratic
operators are stored through their diagonal values Q_{e_i} together with
the full linearization tensor Q_{e_i, e_j}, so Q is exactly reconstructible
on arbitrary elements without dividing by 2.  Stored entries go through
ring.coerce, so integral rational entries are plain ints, not Fraction(k, 1),
and the products built from them stay integer arithmetic.

Operators are kept sparse as dicts column -> (dict row -> scalar), with the
helpers of linalg.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product
from math import prod

from .algebras import StructureAlgebra
from .linalg import (
    SparseMatrix,
    _op_apply,
    _op_axpy,
    _op_compose,
    _op_scale,
    _vec_axpy,
    field_rank,
    integer_kernel,
    kernel_basis,
    span,
)
from .rings import BaseRing


# ---------------------------------------------------------------------------
# Jordan pairs
# ---------------------------------------------------------------------------


class JordanPair:
    """Pair of free modules with quadratic operators Q satisfying the JP laws.

    Qdiag[s][i] is the operator Q_{e_i}: V^{-s} -> V^{s}; Qlin[s][(i,j)]
    (i < j) the polarization Q_{e_i, e_j}.  Signs s are +1 / -1.
    """

    def __init__(self, ring: BaseRing, dims, labels, Qdiag, Qlin):
        self.ring = ring
        self.dims = {1: dims[1], -1: dims[-1]}
        self.labels = labels
        self.Qdiag = Qdiag
        self.Qlin = Qlin
        self.degrees = None  # optional: {sign: [degree tuple per basis index]}

    def dim(self, sign: int) -> int:
        return self.dims[sign]

    # Q_{e_i,e_j} with the convention Q_{e_i,e_i} = 2 Q_{e_i}
    def QB_basis(self, sign, i, j):
        if i == j:
            return _op_scale(self.ring, 2, self.Qdiag[sign][i])
        key = (i, j) if i < j else (j, i)
        return self.Qlin[sign].get(key, {})

    def Q_of(self, sign, x: dict):
        """Q_x as a sparse operator V^{-sign} -> V^{sign}."""
        ring = self.ring
        out = {}
        items = sorted(x.items())
        for idx, (i, xi) in enumerate(items):
            _op_axpy(ring, out, self.Qdiag[sign][i], ring.coerce(ring.mul(xi, xi)))
            for k, xk in items[idx + 1 :]:
                c = ring.coerce(ring.mul(xi, xk))
                _op_axpy(ring, out, self.Qlin[sign].get((i, k), {}), c)
        return out

    def Qb_of(self, sign, x: dict, y: dict):
        """The symmetric bilinear Q_{x,y} (equals Q_{x+y} - Q_x - Q_y)."""
        ring = self.ring
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                c = ring.coerce(ring.mul(xi, yj))
                _op_axpy(ring, out, self.QB_basis(sign, i, j), c)
        return out

    def triple(self, sign, x, y, z) -> dict:
        """{x y z} = Q_{x,z} y for x, z in V^sign, y in V^{-sign}."""
        return _op_apply(self.ring, self.Qb_of(sign, x, z), y)

    def D_op(self, sign, x, y):
        """D_{x,y} acting on V^sign: column k is {x y e_k}, which is
        sum x_a y_b Q_{e_a,e_k} f_b, read off the stored Q tensors."""
        ring = self.ring
        cols = {}
        for k in range(self.dims[sign]):
            vec = {}
            for a, xa in x.items():
                qb = self.QB_basis(sign, a, k)
                for b, yb in y.items():
                    col = qb.get(b)
                    if col:
                        _vec_axpy(ring, vec, col, ring.mul(xa, yb))
            if vec:
                cols[k] = vec
        return cols

    def delta(self, x, y):
        """delta(x,y) = (D_{x,y} on V^+, -D_{y,x} on V^-) for (x,y) in V."""
        Dp = self.D_op(1, x, y)
        Dm = _op_scale(self.ring, -1, self.D_op(-1, y, x))
        return (Dp, Dm)

    def is_idempotent(self, e) -> bool:
        ep, em = e
        return (
            _op_apply(self.ring, self.Q_of(1, ep), em) == ep
            and _op_apply(self.ring, self.Q_of(-1, em), ep) == em
        )


# ---------------------------------------------------------------------------
# JP identity components (each family multilinear in its slots, so basis
# instances decide validity in every scalar extension)
# ---------------------------------------------------------------------------


def _index_windows(n: int, window: int):
    """Deterministic index subsets for oversized families: sliding windows
    plus an evenly spread sample."""
    if n <= window:
        return [tuple(range(n))]
    out = []
    for start in range(0, n - window + 1, window):
        out.append(tuple(range(start, start + window)))
    if out[-1][-1] != n - 1:
        out.append(tuple(range(n - window, n)))
    out.append(tuple(sorted({(i * (n - 1)) // (window - 1) for i in range(window)})))
    return out


def verify_pair_identities(V: JordanPair, budget: int = 50_000, window: int = 4):
    """Check JP1-JP3 together with all multilinear linearization components.

    Each component family is multilinear in its slots, so checking it on
    basis tuples decides validity in every scalar extension.  Families whose
    exhaustive tuple count exceeds the budget are checked on deterministic
    index windows instead; the report records the mode per family.  A
    family's value is invariant under permuting each group of its
    interchangeable slots, so it is decided on one sorted tuple per orbit;
    instances still counts every tuple of the grids decided.
    Raises AssertionError on the first violation (the lexicographically
    least failing tuple of the first failing grid).
    Returns {family: (instances, violations, mode)}.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    report = {}
    for sign in (1, -1):
        n = V.dim(sign)
        m = V.dim(-sign)
        for name, slots, value in _families(V, sign):
            key = f"{name}@{'+' if sign == 1 else '-'}"
            groups = _slot_groups(slots)
            total = prod((n if kind == "a" else m) ** size for kind, size in groups)
            if total <= budget:
                grids, mode = [(range(n), range(m))], "exhaustive"
            else:
                grids = product(_index_windows(n, window), _index_windows(m, window))
                mode = "windowed"
            count = 0
            for wn, wm in grids:
                pools = [(wn if kind == "a" else wm, size) for kind, size in groups]
                count += prod(len(pool) ** size for pool, size in pools)
                # sorted windows: each orbit's least tuple is its sorted one,
                # and these come in lexicographic order
                for parts in product(
                    *(combinations_with_replacement(pool, size) for pool, size in pools)
                ):
                    t = tuple(chain.from_iterable(parts))
                    if value(*t):
                        raise AssertionError(f"Jordan pair identity {key} fails at {t}")
            report[key] = (count, 0, mode)
    return report


def _slot_groups(slots: str):
    """Runs of a family's slot string as (kind, size): a bracketed run such
    as "[aa]" is one group of interchangeable slots, a bare letter a group
    of one.  "a[aa][bb]" gives [("a", 1), ("a", 2), ("b", 2)]."""
    runs = (m[1] or m[0] for m in re.finditer(r"\[([ab]+)\]|[ab]", slots))
    return [(run[0], len(run)) for run in runs]


def _families(V: JordanPair, sign: int):
    """The JP1-JP3 component families on V^sign as (name, slots, value).

    Slot kind "a" indexes the V^sign basis, "b" the V^{-sign} basis, in the
    order of value's arguments.  value(*t) is the component on the basis
    tuple t as a sparse operator, {} where the identity holds.  Bracketed
    slots are interchangeable: permuting them maps the family's terms onto
    themselves, because Q_{e_k,e_l} = Q_{e_l,e_k} and Q_{x,y} is symmetric.
    """
    ring = V.ring
    n = V.dim(sign)
    m = V.dim(-sign)
    Qd = V.Qdiag[sign]
    Qdm = V.Qdiag[-sign]
    # Q_{e_i,e_j} for every ordered pair, with the doubled diagonal
    QB = {(i, j): V.QB_basis(sign, i, j) for i in range(n) for j in range(n)}
    QBm = {(i, j): V.QB_basis(-sign, i, j) for i in range(m) for j in range(m)}
    one = ring.coerce(1)
    Dtab = {(i, j): V.D_op(sign, {i: one}, {j: one}) for i in range(n) for j in range(m)}
    Dmtab = {(j, i): V.D_op(-sign, {j: one}, {i: one}) for j in range(m) for i in range(n)}

    def col(op, j):
        return op.get(j, {})

    def Dvec(x: dict, d: int):
        out = {}
        for k, c in x.items():
            _op_axpy(ring, out, Dtab[(k, d)], c)
        return out

    def Dvec2(i_idx: int, y: dict):
        # D(e_i, y) for a vector y in V^{-sign}
        out = {}
        for k, c in y.items():
            _op_axpy(ring, out, Dtab[(i_idx, k)], c)
        return out

    def Qbvec(x: dict, y: dict):
        out = {}
        for k, ck in x.items():
            for l, cl in y.items():
                _op_axpy(ring, out, QB[(k, l)], ring.mul(ck, cl))
        return out

    def Qvec(x: dict):
        out = {}
        items = sorted(x.items())
        for idx, (k, ck) in enumerate(items):
            _op_axpy(ring, out, Qd[k], ring.mul(ck, ck))
            for l, cl in items[idx + 1 :]:
                _op_axpy(ring, out, QB[(k, l)], ring.mul(ck, cl))
        return out

    def comp(*ops):
        out = ops[0]
        for o in ops[1:]:
            out = _op_compose(ring, out, o)
        return out

    def total(*signed_terms):
        acc = {}
        for s, term in signed_terms:
            _op_axpy(ring, acc, term, s)
        return acc

    return [
        (
            "JP1(3;1)",
            "ab",
            lambda a, b: total(
                (1, comp(Dtab[(a, b)], Qd[a])), (-1, comp(Qd[a], Dmtab[(b, a)]))
            ),
        ),
        (
            "JP1(2,1;1)",
            "aab",
            lambda a, c, b: total(
                (1, comp(Dtab[(a, b)], QB[(a, c)])),
                (1, comp(Dtab[(c, b)], Qd[a])),
                (-1, comp(QB[(a, c)], Dmtab[(b, a)])),
                (-1, comp(Qd[a], Dmtab[(b, c)])),
            ),
        ),
        (
            "JP1(1,1,1;1)",
            "[aaa]b",
            lambda a, c, e, b: total(
                (1, comp(Dtab[(a, b)], QB[(c, e)])),
                (1, comp(Dtab[(c, b)], QB[(a, e)])),
                (1, comp(Dtab[(e, b)], QB[(a, c)])),
                (-1, comp(QB[(c, e)], Dmtab[(b, a)])),
                (-1, comp(QB[(a, e)], Dmtab[(b, c)])),
                (-1, comp(QB[(a, c)], Dmtab[(b, e)])),
            ),
        ),
        (
            "JP2(2;2)",
            "ab",
            lambda a, b: total(
                (1, Dvec(col(Qd[a], b), b)), (-1, Dvec2(a, col(Qdm[b], a)))
            ),
        ),
        (
            "JP2(1,1;2)",
            "[aa]b",
            lambda a, c, b: total(
                (1, Dvec(col(QB[(a, c)], b), b)),
                (-1, Dvec2(a, col(Qdm[b], c))),
                (-1, Dvec2(c, col(Qdm[b], a))),
            ),
        ),
        (
            "JP2(2;1,1)",
            "a[bb]",
            lambda a, b, d: total(
                (1, Dvec(col(Qd[a], b), d)),
                (1, Dvec(col(Qd[a], d), b)),
                (-1, Dvec2(a, col(QBm[(b, d)], a))),
            ),
        ),
        (
            "JP2(1,1;1,1)",
            "[aa][bb]",
            lambda a, c, b, d: total(
                (1, Dvec(col(QB[(a, c)], b), d)),
                (1, Dvec(col(QB[(a, c)], d), b)),
                (-1, Dvec2(a, col(QBm[(b, d)], c))),
                (-1, Dvec2(c, col(QBm[(b, d)], a))),
            ),
        ),
        (
            "JP3(4;2)",
            "ab",
            lambda a, b: total(
                (1, Qvec(col(Qd[a], b))), (-1, comp(Qd[a], Qdm[b], Qd[a]))
            ),
        ),
        (
            "JP3(4;1,1)",
            "a[bb]",
            lambda a, b, d: total(
                (1, Qbvec(col(Qd[a], b), col(Qd[a], d))),
                (-1, comp(Qd[a], QBm[(b, d)], Qd[a])),
            ),
        ),
        (
            "JP3(3,1;2)",
            "aab",
            lambda a, c, b: total(
                (1, Qbvec(col(Qd[a], b), col(QB[(a, c)], b))),
                (-1, comp(QB[(a, c)], Qdm[b], Qd[a])),
                (-1, comp(Qd[a], Qdm[b], QB[(a, c)])),
            ),
        ),
        (
            "JP3(3,1;1,1)",
            "aa[bb]",
            lambda a, c, b, d: total(
                (1, Qbvec(col(Qd[a], b), col(QB[(a, c)], d))),
                (1, Qbvec(col(Qd[a], d), col(QB[(a, c)], b))),
                (-1, comp(QB[(a, c)], QBm[(b, d)], Qd[a])),
                (-1, comp(Qd[a], QBm[(b, d)], QB[(a, c)])),
            ),
        ),
        (
            "JP3(2,2;2)",
            "[aa]b",
            lambda a, c, b: total(
                (1, Qvec(col(QB[(a, c)], b))),
                (1, Qbvec(col(Qd[a], b), col(Qd[c], b))),
                (-1, comp(Qd[a], Qdm[b], Qd[c])),
                (-1, comp(Qd[c], Qdm[b], Qd[a])),
                (-1, comp(QB[(a, c)], Qdm[b], QB[(a, c)])),
            ),
        ),
        (
            "JP3(2,2;1,1)",
            "[aa][bb]",
            lambda a, c, b, d: total(
                (1, Qbvec(col(QB[(a, c)], b), col(QB[(a, c)], d))),
                (1, Qbvec(col(Qd[a], b), col(Qd[c], d))),
                (1, Qbvec(col(Qd[a], d), col(Qd[c], b))),
                (-1, comp(Qd[a], QBm[(b, d)], Qd[c])),
                (-1, comp(Qd[c], QBm[(b, d)], Qd[a])),
                (-1, comp(QB[(a, c)], QBm[(b, d)], QB[(a, c)])),
            ),
        ),
        (
            "JP3(2,1,1;2)",
            "a[aa]b",
            lambda a, c, e, b: total(
                (1, Qbvec(col(Qd[a], b), col(QB[(c, e)], b))),
                (1, Qbvec(col(QB[(a, c)], b), col(QB[(a, e)], b))),
                (-1, comp(Qd[a], Qdm[b], QB[(c, e)])),
                (-1, comp(QB[(c, e)], Qdm[b], Qd[a])),
                (-1, comp(QB[(a, c)], Qdm[b], QB[(a, e)])),
                (-1, comp(QB[(a, e)], Qdm[b], QB[(a, c)])),
            ),
        ),
        (
            "JP3(2,1,1;1,1)",
            "a[aa][bb]",
            lambda a, c, e, b, d: total(
                (1, Qbvec(col(Qd[a], b), col(QB[(c, e)], d))),
                (1, Qbvec(col(Qd[a], d), col(QB[(c, e)], b))),
                (1, Qbvec(col(QB[(a, c)], b), col(QB[(a, e)], d))),
                (1, Qbvec(col(QB[(a, c)], d), col(QB[(a, e)], b))),
                (-1, comp(Qd[a], QBm[(b, d)], QB[(c, e)])),
                (-1, comp(QB[(c, e)], QBm[(b, d)], Qd[a])),
                (-1, comp(QB[(a, c)], QBm[(b, d)], QB[(a, e)])),
                (-1, comp(QB[(a, e)], QBm[(b, d)], QB[(a, c)])),
            ),
        ),
        (
            "JP3(1,1,1,1;2)",
            "[aaaa]b",
            lambda a, c, e, g, b: total(
                *(
                    term
                    for (p, q), (r, s) in _pairings(a, c, e, g)
                    for term in (
                        (1, Qbvec(col(QB[(p, q)], b), col(QB[(r, s)], b))),
                        (-1, comp(QB[(p, q)], Qdm[b], QB[(r, s)])),
                        (-1, comp(QB[(r, s)], Qdm[b], QB[(p, q)])),
                    )
                )
            ),
        ),
        (
            "JP3(1,1,1,1;1,1)",
            "[aaaa][bb]",
            lambda a, c, e, g, b, d: total(
                *(
                    term
                    for (p, q), (r, s) in _pairings(a, c, e, g)
                    for term in (
                        (1, Qbvec(col(QB[(p, q)], b), col(QB[(r, s)], d))),
                        (1, Qbvec(col(QB[(p, q)], d), col(QB[(r, s)], b))),
                        (-1, comp(QB[(p, q)], QBm[(b, d)], QB[(r, s)])),
                        (-1, comp(QB[(r, s)], QBm[(b, d)], QB[(p, q)])),
                    )
                )
            ),
        ),
    ]


def _pairings(w, x, y, z):
    return [((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))]


# ---------------------------------------------------------------------------
# rectangular matrix Jordan pairs
# ---------------------------------------------------------------------------


def _dmatrix_mul(D: StructureAlgebra, A, B, cols):
    """Multiply matrices over D given as dicts (r,c) -> D-vector; B has
    cols columns."""
    out = {}
    for (r, k), x in A.items():
        for c in range(cols):
            y = B.get((k, c))
            if y:
                prod = D.mul(x, y)
                if prod:
                    cur = out.get((r, c))
                    out[(r, c)] = D.add(cur, prod) if cur else prod
    return {k: v for k, v in out.items() if v}


def rectangular_pair(i_size: int, j_size: int, D: StructureAlgebra) -> JordanPair:
    """The rectangular matrix Jordan pair M(I, J, D).

    V+ = I x J matrices over D, V- = J x I; Q_x(y) = x(yx) on V+ and
    Q_y(x) = (yx)y on V- (the polarization-consistent reading of "xyx",
    matching the stated triple products {xyz} = x(yz) + z(yx)).
    D must be unital alternative, and associative once i+j >= 4.
    """
    if D.unit is None or not D.flags.get("alternative"):
        raise ValueError("coordinates must be a unital alternative algebra")
    if i_size + j_size >= 4 and not D.flags.get("associative"):
        raise ValueError("card K >= 4 needs associative coordinates")
    ring = D.ring
    dd = D.dim

    def to_dmat(vec: dict, width: int):
        # index (r * width + c) * dd + t is coordinate t of cell (r, c)
        out = {}
        for p, v in vec.items():
            cell, t = divmod(p, dd)
            out.setdefault(divmod(cell, width), {})[t] = v
        return out

    def from_dmat(M, width: int) -> dict:
        return {
            (r * width + c) * dd + t: v for (r, c), cell in M.items() for t, v in cell.items()
        }

    def q_plus(x: dict, y: dict) -> dict:
        # x (y x), shapes (I x J)(J x I)(I x J)
        X = to_dmat(x, j_size)
        YX = _dmatrix_mul(D, to_dmat(y, i_size), X, j_size)
        return from_dmat(_dmatrix_mul(D, X, YX, j_size), j_size)

    def q_minus(y: dict, x: dict) -> dict:
        # (y x) y
        Y = to_dmat(y, i_size)
        YX = _dmatrix_mul(D, Y, to_dmat(x, j_size), j_size)
        return from_dmat(_dmatrix_mul(D, YX, Y, i_size), i_size)

    dims = {1: i_size * j_size * dd, -1: j_size * i_size * dd}
    labels = {
        1: [
            f"E[{i + 1},{i_size + j + 1}]{D.labels[t]}"
            for i in range(i_size)
            for j in range(j_size)
            for t in range(dd)
        ],
        -1: [
            f"E[{i_size + j + 1},{i + 1}]{D.labels[t]}"
            for j in range(j_size)
            for i in range(i_size)
            for t in range(dd)
        ],
    }
    V = _pair_from_q(ring, dims, labels, {1: q_plus, -1: q_minus})
    ktot = i_size + j_size

    def root(i, j):
        return tuple(int(t == i) - int(t == i_size + j) for t in range(ktot))

    V.degrees = {
        1: [root(i, j) for i in range(i_size) for j in range(j_size) for _ in range(dd)],
        -1: [
            tuple(-c for c in root(i, j))
            for j in range(j_size)
            for i in range(i_size)
            for _ in range(dd)
        ],
    }
    return V


def _pair_from_q(ring, dims, labels, q_funcs) -> JordanPair:
    """Build the stored tensors from black-box quadratic maps q(x)(y).

    Entries are stored through ring.coerce, so an integral rational is an
    int however q computed it."""
    one = ring.coerce(1)
    Qdiag = {}
    Qlin = {}
    for sign in (1, -1):
        q = q_funcs[sign]
        n, m = dims[sign], dims[-sign]
        diag = []
        for i in range(n):
            cols = {}
            for j in range(m):
                vec = q({i: one}, {j: one})
                if vec:
                    cols[j] = {r: ring.coerce(v) for r, v in vec.items()}
            diag.append(cols)
        lin = {}
        for i in range(n):
            for k in range(i + 1, n):
                cols = {}
                for j in range(m):
                    v = q({i: one, k: one}, {j: one})
                    _vec_axpy(ring, v, diag[i].get(j, {}), -1)
                    _vec_axpy(ring, v, diag[k].get(j, {}), -1)
                    if v:
                        cols[j] = {r: ring.coerce(c) for r, c in v.items()}
                if cols:
                    lin[(i, k)] = cols
        Qdiag[sign] = diag
        Qlin[sign] = lin
    return JordanPair(ring, dims, labels, Qdiag, Qlin)


def rectangular_grid(i_size: int, j_size: int, D: StructureAlgebra):
    """Grid idempotents (E_ij, E_ji) indexed by the roots eps_i - eps_j.

    Root coordinates live in the ambient of A_{i+j-1}; the plus index set is
    {0..i_size-1}, the minus one {i_size..i_size+j_size-1}.
    """
    dd = D.dim
    family = {}
    n = i_size + j_size
    for i in range(i_size):
        for j in range(j_size):
            root = tuple(
                (1 if t == i else 0) - (1 if t == i_size + j else 0) for t in range(n)
            )
            plus = {}
            minus = {}
            for t, v in D.unit.items():
                plus[(i * j_size + j) * dd + t] = v
                minus[(j * i_size + i) * dd + t] = v
            family[root] = (plus, minus)
    return family


# ---------------------------------------------------------------------------
# unital Jordan algebras (linear, with 1/2 in the ring)
# ---------------------------------------------------------------------------


class JordanAlgebra:
    """Unital Jordan algebra with the circle product x o y (= 2xy classically).

    The unit u satisfies u o x = 2x and U_u = id for the quadratic operator
    U_a(b) = (a o (a o b))/2 - ((a o a) o b)/4; the base ring must contain
    1/2 (C-type pipeline convention).
    """

    def __init__(self, ring: BaseRing, labels, circ, unit, check=True):
        if not ring.has_inverse_of(2):
            raise ValueError("Jordan algebras here require 1/2 in the base ring")
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.circ = {
            key: {k: ring.coerce(v) for k, v in vec.items() if not ring.is_zero(ring.coerce(v))}
            for key, vec in circ.items()
        }
        self.unit = {k: ring.coerce(v) for k, v in unit.items()}
        if check:
            self._verify()

    def mul(self, x: dict, y: dict) -> dict:
        ring = self.ring
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = self.circ.get((i, j)) or self.circ.get((j, i))
                if vec:
                    _vec_axpy(ring, out, vec, ring.mul(a, b))
        return out

    def add(self, x, y):
        return _vec_axpy(self.ring, dict(x), y)

    def sub(self, x, y):
        return _vec_axpy(self.ring, dict(x), y, -1)

    def smul(self, c, x):
        return _vec_axpy(self.ring, {}, x, self.ring.coerce(c))

    def basis_vec(self, i):
        return {i: self.ring.coerce(1)}

    def L_op(self, a: dict):
        """Left circle multiplication as a sparse operator."""
        cols = {}
        for j in range(self.dim):
            vec = self.mul(a, self.basis_vec(j))
            if vec:
                cols[j] = vec
        return cols

    def U_apply(self, a: dict, b: dict) -> dict:
        ring = self.ring
        half = ring.inv(ring.coerce(2))
        quarter = ring.mul(half, half)
        t1 = self.smul(half, self.mul(a, self.mul(a, b)))
        t2 = self.smul(quarter, self.mul(self.mul(a, a), b))
        return self.sub(t1, t2)

    def is_idempotent(self, e: dict) -> bool:
        return self.mul(e, e) == self.smul(2, e)

    def pair(self) -> JordanPair:
        """The Jordan pair (J, J) with Q = U on both sides.

        The Q tensors are read straight off the circle constants by the
        linearized U-operator (McCrimmon, A Taste of Jordan Algebras, 2004;
        Loos, Jordan Pairs, LNM 460):

            Q_{e_i} e_j     = 1/2 e_i o (e_i o e_j) - 1/4 (e_i o e_i) o e_j
            Q_{e_i,e_k} e_j = 1/2 (e_i o (e_k o e_j) + e_k o (e_i o e_j)
                                   - (e_i o e_k) o e_j)

        They are computed once; V^- gets its own copy.  For hermitian/Albert
        algebras the C_n root degrees eps_i + eps_j of the Peirce-aligned
        basis are attached.
        """
        ring = self.ring
        n = self.dim
        half = ring.inv(ring.coerce(2))
        quarter = ring.mul(half, half)
        circ = [
            [self.circ.get((a, b)) or self.circ.get((b, a)) or {} for b in range(n)]
            for a in range(n)
        ]

        def add_circ(acc, a, vec, coef):
            # acc += coef * (e_a o vec)
            row = circ[a]
            for t, c in vec.items():
                _vec_axpy(ring, acc, row[t], ring.mul(coef, c))

        def stored(vec, scale):
            return {r: ring.coerce(ring.mul(scale, v)) for r, v in vec.items()}

        diag = []
        for i in range(n):
            cols = {}
            for j in range(n):
                acc = {}  # 4 Q_{e_i} e_j
                add_circ(acc, i, circ[i][j], 2)
                add_circ(acc, j, circ[i][i], -1)
                if acc:
                    cols[j] = stored(acc, quarter)
            diag.append(cols)
        lin = {}
        for i in range(n):
            for k in range(i + 1, n):
                cols = {}
                for j in range(n):
                    acc = {}  # 2 Q_{e_i,e_k} e_j
                    add_circ(acc, i, circ[k][j], 1)
                    add_circ(acc, k, circ[i][j], 1)
                    add_circ(acc, j, circ[i][k], -1)
                    if acc:
                        cols[j] = stored(acc, half)
                if cols:
                    lin[(i, k)] = cols

        def copy(op):
            return {j: dict(col) for j, col in op.items()}

        V = JordanPair(
            ring,
            {1: n, -1: n},
            {1: list(self.labels), -1: list(self.labels)},
            {1: diag, -1: [copy(op) for op in diag]},
            {1: lin, -1: {key: copy(op) for key, op in lin.items()}},
        )
        roots = self._basis_roots()
        if roots is not None:
            V.degrees = {
                1: list(roots),
                -1: [tuple(-c for c in r) for r in roots],
            }
        return V

    def _basis_roots(self):
        data = getattr(self, "hermitian_data", None)
        if data is not None:
            n = data["n"]
            out = []
            for (i, j, _vec) in data["payload"]:
                out.append(tuple(int(t == i) + int(t == j) for t in range(n)))
            return out
        if getattr(self, "albert_data", None) is not None:
            out = []
            for i in range(3):
                out.append(tuple(2 * int(t == i) for t in range(3)))
            for k in range(3):
                i, j = [x for x in range(3) if x != k]
                out.extend([tuple(int(t == i) + int(t == j) for t in range(3))] * 8)
            return out
        return None

    def _verify(self):
        ring = self.ring
        for i in range(self.dim):
            for j in range(i, self.dim):
                xy = self.mul(self.basis_vec(i), self.basis_vec(j))
                yx = self.mul(self.basis_vec(j), self.basis_vec(i))
                if xy != yx:
                    raise ValueError("circle product is not commutative")
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul(self.unit, b) != self.smul(2, b):
                raise ValueError("unit does not satisfy u o x = 2x")
            if self.U_apply(self.unit, b) != b:
                raise ValueError("U_1 is not the identity")

    def to_json(self) -> dict:
        ring = self.ring
        table = []
        for (i, j), vec in sorted(self.circ.items()):
            table.append([i, j, [[k, ring.scalar_str(v)] for k, v in sorted(vec.items())]])
        u_op = []
        for i in range(self.dim):
            op = []
            for j in range(self.dim):
                out = self.U_apply(self.basis_vec(i), self.basis_vec(j))
                op.append([[k, ring.scalar_str(v)] for k, v in sorted(out.items())])
            u_op.append(op)
        return {
            "dim": self.dim,
            "labels": self.labels,
            "unit": [[k, ring.scalar_str(v)] for k, v in sorted(self.unit.items())],
            "table": table,
            "u_op": u_op,
        }


# ---------------------------------------------------------------------------
# hermitian matrix Jordan algebras and the Albert algebra
# ---------------------------------------------------------------------------


def _symmetric_basis(D: StructureAlgebra):
    """Basis of the fixed points of the involution: kernel of (conj - id)."""
    ring = D.ring
    ent = {}
    for j in range(D.dim):
        col = D.conj(D.basis_vec(j))
        for i, v in col.items():
            ent[(i, j)] = v
        ent[(j, j)] = ring.sub(ent.get((j, j), ring.coerce(0)), ring.coerce(1))
    ent = {k: v for k, v in ent.items() if not ring.is_zero(v)}
    mat = SparseMatrix(D.dim, D.dim, ent, ring)
    return kernel_basis(mat) if ring.is_field else integer_kernel(mat)


def _nuclear_involution(D: StructureAlgebra) -> bool:
    basis = _symmetric_basis(D)
    for s in basis:
        for i in range(D.dim):
            for j in range(D.dim):
                x, y = D.basis_vec(i), D.basis_vec(j)
                if D.associator(s, x, y) or D.associator(x, s, y) or D.associator(x, y, s):
                    return False
    return True


def hermitian_algebra(n: int, D: StructureAlgebra) -> JordanAlgebra:
    """H_n(D, -): hermitian matrices d[ij] = d E_ij + dbar E_ji over D.

    Needs n >= 3, a unital alternative D with nuclear involution
    (associative when n >= 4) and 1/2 in the ring.
    """
    if n < 3:
        raise ValueError("hermitian algebras need n >= 3")
    if D.involution is None or D.unit is None:
        raise ValueError("coordinates need a unit and an involution")
    if not D.flags.get("alternative"):
        raise ValueError("coordinates must be alternative")
    if n >= 4 and not D.flags.get("associative"):
        raise ValueError("n >= 4 needs associative coordinates")
    if not D.ring.has_inverse_of(2):
        raise ValueError("hermitian algebras need 1/2 in the base ring")
    if not _nuclear_involution(D):
        raise ValueError("involution is not nuclear")
    ring = D.ring
    sym = _symmetric_basis(D)
    # basis bookkeeping: (i, j) blocks with i < j carry a full D basis,
    # diagonal blocks a basis of the symmetric elements
    index = {}
    labels = []
    basis_payload = []  # (i, j, D-vector) with i <= j
    for i in range(n):
        for s_idx, s in enumerate(sym):
            index[(i, i, s_idx)] = len(labels)
            labels.append(f"sym{s_idx}[{i + 1}{i + 1}]")
            basis_payload.append((i, i, dict(s)))
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(D.dim):
                index[(i, j, t)] = len(labels)
                labels.append(f"{D.labels[t]}[{i + 1}{j + 1}]")
                basis_payload.append((i, j, {t: ring.coerce(1)}))
    sym_coords = _coords_in(ring, sym, D.dim)

    def normalize(i, j, d):
        """d[ij] with arbitrary i, j into the stored (i <= j) convention."""
        if i <= j:
            return i, j, d
        return j, i, D.conj(d)

    def product(p, q):
        (i, j, a) = p
        (k, l, b) = q
        # both arguments normalized with i <= j, k <= l
        terms = {}

        def emit(r, s, dvec, coef=1):
            r2, s2, d2 = normalize(r, s, dvec)
            key = (r2, s2)
            cur = terms.get(key, {})
            terms[key] = D.add(cur, D.smul(coef, d2)) if cur else D.smul(coef, d2)

        if {i, j} & {k, l} == set():
            return {}
        if i == j and k == l:
            if i == k:
                emit(i, i, D.add(D.mul(a, b), D.mul(b, a)))
            return _collect(terms)
        if i == j:  # a[ii] o b[kl], k < l
            if i == k:
                emit(i, l, D.mul(a, b))
            elif i == l:
                emit(k, i, D.mul(b, a))
            return _collect(terms)
        if k == l:  # a[ij] o b[kk]
            if k == i:
                emit(k, j, D.mul(b, a))
            elif k == j:
                emit(i, k, D.mul(a, b))
            return _collect(terms)
        # both off-diagonal
        if (i, j) == (k, l):
            bbar = D.conj(b)
            abar = D.conj(a)
            emit(i, i, D.add(D.mul(a, bbar), D.mul(b, abar)))
            emit(j, j, D.add(D.mul(bbar, a), D.mul(abar, b)))
            return _collect(terms)
        if j == k:  # a[ij] o b[jl]
            emit(i, l, D.mul(a, b))
        elif i == l:  # b[kl=ki] o a[ij]
            emit(k, j, D.mul(b, a))
        elif i == k:  # a[ij] o b[il]: rewrite a[ij] = abar[ji]
            emit(j, l, D.mul(D.conj(a), b))
        elif j == l:  # a[ij] o b[kj]: rewrite b[kj] = bbar[jk]
            emit(i, k, D.mul(a, D.conj(b)))
        return _collect(terms)

    def _collect(terms):
        out = {}
        for (r, s), dvec in terms.items():
            if r == s:
                coords = {index[(r, r, k)]: c for k, c in sym_coords(dvec)}
            else:
                coords = {index[(r, s, t)]: c for t, c in dvec.items()}
            _vec_axpy(ring, out, coords)
        return out

    circ = {}
    for p_idx, p in enumerate(basis_payload):
        for q_idx in range(p_idx, len(basis_payload)):
            vec = product(p, basis_payload[q_idx])
            if vec:
                circ[(p_idx, q_idx)] = vec
                if q_idx != p_idx:
                    circ[(q_idx, p_idx)] = vec
    unit = {}
    for i in range(n):
        for s_idx, coef in sym_coords(D.unit):
            unit[index[(i, i, s_idx)]] = coef
    J = JordanAlgebra(ring, labels, circ, unit)
    J.hermitian_data = {
        "n": n,
        "D": D,
        "index": index,
        "payload": basis_payload,
        "sym_basis": sym,
    }
    return J


def _coords_in(ring, basis, dim):
    """Coordinates in an independent basis: vec -> sorted (index, coef)
    pairs with nonzero coef; raises ValueError outside the span."""
    ech = span(ring, dim, track=True)
    for b in basis:
        ech.add(b)

    def coords(vec):
        residual, found = ech.reduce(vec)
        if residual:
            raise ValueError("vector not in the symmetric-part span")
        return sorted((i, ring.coerce(c)) for i, c in found.items() if c)

    return coords


def albert_algebra(ring: BaseRing) -> JordanAlgebra:
    """Split Albert algebra: H_3 over the split octonions, in the
    e_i / P_i(x) presentation; 27-dimensional.  Needs 1/2 and 1/3."""
    if not (ring.has_inverse_of(2) and ring.has_inverse_of(3)):
        raise ValueError("the Albert algebra needs 1/2 and 1/3 in the ring")
    from .algebras import split_octonions

    O = split_octonions(ring)
    labels = ["e1", "e2", "e3"] + [
        f"P{i + 1}({O.labels[t]})" for i in range(3) for t in range(8)
    ]

    def e_idx(i):
        return i

    def p_idx(i, t):
        return 3 + 8 * i + t

    circ = {}

    def put(a, b, vec):
        if vec:
            circ[(a, b)] = dict(vec)
            if a != b:
                circ[(b, a)] = dict(vec)

    cyc = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for i in range(3):
        put(e_idx(i), e_idx(i), {e_idx(i): 2})
        for j in range(3):
            for t in range(8):
                if i != j:
                    put(e_idx(i), p_idx(j, t), {p_idx(j, t): 1})
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for t in range(8):
            for s in range(t, 8):
                val = O.norm_bilinear(O.basis_vec(t), O.basis_vec(s))
                if not O.ring.is_zero(val):
                    put(p_idx(i, t), p_idx(i, s), {e_idx(j): val, e_idx(k): val})
    for (i, j), k in cyc.items():
        for t in range(8):
            for s in range(8):
                # P_i(x) o P_j(y) = P_k(ybar xbar)
                prod = O.mul(O.conj(O.basis_vec(s)), O.conj(O.basis_vec(t)))
                vec = {p_idx(k, u): c for u, c in prod.items()}
                put(p_idx(i, t), p_idx(j, s), vec)
    unit = {0: 1, 1: 1, 2: 1}
    J = JordanAlgebra(ring, labels, circ, unit)
    J.albert_data = {"octonions": O, "p_idx": p_idx, "e_idx": e_idx}
    return J


# ---------------------------------------------------------------------------
# Peirce decompositions
# ---------------------------------------------------------------------------


@dataclass
class PeirceDecomposition:
    """Simultaneous Peirce spaces of an orthogonal idempotent family.

    Keys (i, j) with i <= j; index 0 stands for the complement when the
    family is incomplete (sum of idempotents != unit).
    """

    algebra: JordanAlgebra
    idempotents: list
    spaces: dict  # (i, j) -> list of dict-vectors

    def dims(self):
        return {k: len(v) for k, v in self.spaces.items() if v}


def peirce(J: JordanAlgebra, idempotents) -> PeirceDecomposition:
    """Joint eigenspace decomposition for a pairwise orthogonal family.

    L_e eigenvalues (circle convention): 2 on J_ii, 1 on J_ij, 0 elsewhere.
    Verifies the Peirce multiplication rules and that the spaces span J.
    """
    ring = J.ring
    if not ring.is_field:
        raise ValueError("peirce decomposition implemented over fields")
    es = [dict(e) for e in idempotents]
    for e in es:
        if not J.is_idempotent(e):
            raise ValueError("family member is not an idempotent")
    for a in range(len(es)):
        for b in range(a + 1, len(es)):
            if J.mul(es[a], es[b]):
                raise ValueError("idempotents are not pairwise orthogonal")
    m = len(es)
    total = {}
    for e in es:
        total = J.add(total, e)
    complete = total == J.unit
    ops = [J.L_op(e) for e in es]
    indices = list(range(1, m + 1)) if complete else list(range(0, m + 1))
    spaces = {}
    for a_pos, a in enumerate(indices):
        for b in indices[a_pos:]:
            conditions = []
            for t, e in enumerate(es, start=1):
                if t == a == b:
                    val = 2
                elif t in (a, b) and a != b:
                    val = 1
                else:
                    val = 0
                conditions.append((ops[t - 1], val))
            basis = _eigenspace(ring, J.dim, conditions)
            if basis:
                spaces[(a, b)] = basis
    found = sum(len(v) for v in spaces.values())
    if found != J.dim:
        raise ValueError(
            f"family fails to decompose J: Peirce spaces span {found} of {J.dim}"
        )
    rows = [v for vs in spaces.values() for v in vs]
    if field_rank(SparseMatrix.from_rows(rows, J.dim, ring)) != J.dim:
        raise ValueError("Peirce spaces are not independent")
    dec = PeirceDecomposition(J, es, spaces)
    _verify_peirce_rules(J, dec)
    return dec


def _eigenspace(ring, n: int, conditions):
    """Basis of {x in ring^n : A x = val x for every (A, val) in conditions},
    over a field; A may be any sparse operator on ring^n when val is 0."""
    rows = []
    for op, val in conditions:
        by_row = {}
        for j, col in op.items():
            for i, v in col.items():
                by_row.setdefault(i, {})[j] = v
        if val:
            for i in range(n):
                _vec_axpy(ring, by_row.setdefault(i, {}), {i: ring.coerce(val)}, -1)
        rows.extend(by_row.values())
    return kernel_basis(SparseMatrix.from_rows(rows, n, ring))


def _verify_peirce_rules(J: JordanAlgebra, dec: PeirceDecomposition):
    """Peirce rules: J_ii o J_ij in J_ij, J_ij o J_jk in J_ik,
    J_ij o J_kl = 0 for disjoint, J_ij o J_ij in J_ii + J_jj."""
    ring = J.ring
    testers = {}

    def tester_for(keys):
        keys = tuple(sorted(keys))
        if keys not in testers:
            ech = span(ring, J.dim)
            for key in keys:
                for v in dec.spaces.get(key, []):
                    ech.add(v)
            testers[keys] = ech.contains
        return testers[keys]

    items = sorted(dec.spaces)
    for (i, j) in items:
        for (k, l) in items:
            idx = {i, j} | {k, l}
            shared = {i, j} & {k, l}
            for x in dec.spaces[(i, j)]:
                for y in dec.spaces[(k, l)]:
                    prod = J.mul(x, y)
                    if not prod:
                        continue
                    if not shared:
                        raise AssertionError(
                            f"Peirce rule violated: J_{(i, j)} o J_{(k, l)} != 0"
                        )
                    if (i, j) == (k, l):
                        if i == j:
                            ok = tester_for([(i, i)])(prod)
                        else:
                            ok = tester_for([(i, i), (j, j)])(prod)
                    else:
                        diff = sorted(({i, j} - shared) | ({k, l} - shared))
                        if len(diff) == 1:
                            # e.g. J_ii o J_ij in J_ij
                            tgt = tuple(sorted((diff[0], next(iter(shared)))))
                            ok = tester_for([tgt])(prod)
                        elif len(diff) == 2:
                            ok = tester_for([tuple(sorted(diff))])(prod)
                        else:
                            ok = tester_for([(i, j)])(prod)
                    if not ok:
                        raise AssertionError(
                            f"Peirce rule violated for J_{(i, j)} o J_{(k, l)}"
                        )


# ---------------------------------------------------------------------------
# Jordan pair idempotents and grids
# ---------------------------------------------------------------------------


def pair_idempotent_peirce(V: JordanPair, e):
    """Peirce spaces of a pair idempotent: V_2 = im Q_e,
    V_1 = ker(id - D(e)), V_0 = ker D(e) cap ker Q_{e^-sigma}.

    Returns {i: {sign: basis list}}; checks directness when 1/2 exists.
    """
    ring = V.ring
    if not V.is_idempotent(e):
        raise ValueError("not a pair idempotent")
    ep, em = e
    out = {0: {}, 1: {}, 2: {}}
    for sign, esig, eother in ((1, ep, em), (-1, em, ep)):
        n = V.dim(sign)
        Q_e = V.Q_of(sign, esig)  # V^{-sign} -> V^{sign}
        Q_other = V.Q_of(-sign, eother)  # V^{sign} -> V^{-sign}
        D_e = V.D_op(sign, esig, eother)
        # V_2: column span of Q_e
        image = span(ring, n)
        for c in Q_e.values():
            image.add(c)
        v2 = [dict(r) for r in image.basis_rows()]
        v1 = _eigenspace(ring, n, [(D_e, 1)])
        v0 = _eigenspace(ring, n, [(D_e, 0), (Q_other, 0)])
        out[2][sign] = v2
        out[1][sign] = v1
        out[0][sign] = v0
        if ring.has_inverse_of(2):
            if len(v0) + len(v1) + len(v2) != n:
                raise AssertionError("pair Peirce spaces do not decompose V")
    return out


@dataclass
class GridReport:
    ok: bool
    failures: list
    joint: dict  # root -> {sign: basis list}

    def joint_dims(self):
        return {root: len(d[1]) for root, d in self.joint.items()}


def verify_grid(V: JordanPair, family: dict, grading) -> GridReport:
    """Check that a family indexed by R_1 is a covering grid.

    (i) the cog relation of e_alpha, e_beta matches the root relation
    <alpha, beta-check>: e_alpha must be a D(e_beta)-eigenvector with that
    eigenvalue (both signs); (ii) the joint Peirce spaces sum to V.
    Returns the joint Peirce space map alpha -> V_alpha.
    """
    ring = V.ring
    R = grading.system
    failures = []
    roots = sorted(family)
    for root, e in family.items():
        if not V.is_idempotent(e):
            failures.append(f"family member at {root} is not an idempotent")
    d_ops = {}
    for root, (ep, em) in family.items():
        d_ops[root] = {
            1: V.D_op(1, ep, em),
            -1: V.D_op(-1, em, ep),
        }
    for alpha in roots:
        for beta in roots:
            if alpha == beta:
                continue
            expected = R.pairing(alpha, beta)
            ea = family[alpha]
            for sign, vec in ((1, ea[0]), (-1, ea[1])):
                img = _op_apply(ring, d_ops[beta][sign], vec)
                want = {k: ring.mul(ring.coerce(expected), v) for k, v in vec.items()}
                want = {k: v for k, v in want.items() if not ring.is_zero(v)}
                if img != want:
                    failures.append(
                        f"cog relation of {alpha},{beta}: associated != expected"
                        f" pairing {expected}"
                    )
                    break
    joint = {}
    if not failures:
        for gamma in roots:
            joint[gamma] = {}
            for sign in (1, -1):
                conditions = [
                    (d_ops[beta][sign], R.pairing(gamma, beta))
                    for beta in roots
                    if beta != gamma
                ]
                joint[gamma][sign] = _eigenspace(ring, V.dim(sign), conditions)
        for sign in (1, -1):
            total = sum(len(joint[g][sign]) for g in roots)
            if total != V.dim(sign):
                failures.append(
                    f"joint Peirce spaces span {total} of {V.dim(sign)} on sign {sign}"
                )
            rows = [v for g in roots for v in joint[g][sign]]
            if field_rank(SparseMatrix.from_rows(rows, V.dim(sign), ring)) != min(
                total, V.dim(sign)
            ):
                failures.append("joint Peirce spaces are not independent")
    return GridReport(ok=not failures, failures=failures, joint=joint)


def albert_grid(J: JordanAlgebra):
    """C_3-grid for the pair (A, A) of the split Albert algebra:
    (e_i, e_i) at 2 eps_i and (P_k(1), P_k(1)) at eps_i + eps_j."""
    data = J.albert_data
    O = data["octonions"]
    p_idx = data["p_idx"]
    family = {}
    for i in range(3):
        root = tuple(2 * int(t == i) for t in range(3))
        vec = {i: J.ring.coerce(1)}
        family[root] = (dict(vec), dict(vec))
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        root = tuple(int(t == i) + int(t == j) for t in range(3))
        vec = {p_idx(k, t): c for t, c in O.unit.items()}
        family[root] = (dict(vec), dict(vec))
    return family


def hermitian_grid(J: JordanAlgebra):
    """Grid for the pair (J, J) of a hermitian algebra, indexed by the
    C_n roots eps_i + eps_j (i <= j): e = (1[ij], 1[ij])."""
    data = J.hermitian_data
    n = data["n"]
    D = data["D"]
    index = data["index"]
    sym = data["sym_basis"]
    ring = J.ring
    sym_coords = _coords_in(ring, sym, D.dim)
    family = {}
    for i in range(n):
        root = tuple(2 * int(t == i) for t in range(n))
        vec = {}
        for s_idx, coef in sym_coords(D.unit):
            vec[index[(i, i, s_idx)]] = coef
        family[root] = (dict(vec), dict(vec))
    for i in range(n):
        for j in range(i + 1, n):
            root = tuple(int(t == i) + int(t == j) for t in range(n))
            vec = {}
            for t, coef in D.unit.items():
                vec[index[(i, j, t)]] = coef
            family[root] = (dict(vec), dict(vec))
    return family
