"""Jordan pairs and unital Jordan algebras over an exact base ring.

Rectangular matrix pairs, hermitian matrix algebras, the split Albert
algebra, idempotents, Peirce decompositions and covering grids.  Quadratic
operators are stored through their diagonal values Q_{e_i} together with
the full linearization tensor Q_{e_i, e_j}, so Q is exactly reconstructible
on arbitrary elements without dividing by 2.  Stored entries go through
ring.coerce, so integral rational entries are plain ints, not Fraction(k, 1),
and the products built from them stay integer arithmetic.

H_n(D) and the Albert algebra H_3(O) are both read off D-valued matrices:
one construction, _matrix_jordan, computes x o y = xy + yx cell by cell with
D's product and records the matrix cell of every basis element, from which
pair() takes the C_n root degrees and the grids their idempotents.

Operators are kept sparse as dicts column -> (dict row -> scalar), with the
helpers of linalg.  Every pair's tensors are read off structure constants:
rectangular_pair's off D's multiplication table by the matrix-unit rule,
JordanAlgebra.pair()'s off the circle constants by the linearized U-operator.

verify_pair_identities certifies JP1-JP3 and all their linearizations with
one exact build of TKK(V) (lie._tkk, imported inside the function because
lie imports this module): over Q in characteristic 0, over F_p for p >= 5.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebras import StructureAlgebra
from .linalg import (
    _op_apply,
    _op_axpy,
    _op_scale,
    _vec_axpy,
    coordinates,
    field_rank,
    kernel_basis,
    span,
)
from .rings import QQ, BaseRing


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

    def delta_table(self) -> dict:
        """Every delta(e_i, f_j) as one block op on V^+ (+) V^-, keyed (i, j)
        in row-major order, from one pass over the stored Q tensors.

        Q_{e_a,e_b} = Q_{e_b,e_a}, so its column j is column b of
        D(e_a, f_j) and column a of D(e_b, f_j); Q_{e_a,e_a} = 2 Q_{e_a}.
        On V^- the same holds for -D(f_j, e_i), negated and shifted by
        n = dim V^+.  Only the canonical keys a < b are read, as QB_basis
        does, and the columns come out sorted, as from D_op."""
        ring = self.ring
        n, m = self.dims[1], self.dims[-1]
        table = {(i, j): {} for i in range(n) for j in range(m)}

        def put(sign, op, coef, *targets):
            # for each target (a, b): column b of delta(e_a, f_j) (sign +1)
            # or of delta(e_j, f_a) (sign -1) is coef times column j of op
            for j, col in op.items():
                vec = _vec_axpy(ring, {}, col, coef)
                if not vec:
                    continue
                if sign == 1:
                    for a, b in targets:
                        table[(a, j)][b] = dict(vec)
                else:
                    vec = {n + r: v for r, v in vec.items()}
                    for a, b in targets:
                        table[(j, a)][n + b] = dict(vec)

        for sign in (1, -1):
            for a, op in enumerate(self.Qdiag[sign]):
                put(sign, op, 2 * sign, (a, a))
            for (a, b), op in self.Qlin[sign].items():
                if a < b:
                    put(sign, op, sign, (a, b), (b, a))
        return {key: {c: op[c] for c in sorted(op)} for key, op in table.items()}

    def is_idempotent(self, e) -> bool:
        ep, em = e
        return (
            _op_apply(self.ring, self.Q_of(1, ep), em) == ep
            and _op_apply(self.ring, self.Q_of(-1, em), ep) == em
        )


# ---------------------------------------------------------------------------
# the Jordan pair identities, certified by TKK(V)
# ---------------------------------------------------------------------------

# JP1-JP3 and their linearizations, named by the degrees of the identity in
# its V^sign variables, then in its V^-sign variables
_FAMILIES = (
    "JP1(3;1)", "JP1(2,1;1)", "JP1(1,1,1;1)", "JP2(2;2)", "JP2(1,1;2)",
    "JP2(2;1,1)", "JP2(1,1;1,1)", "JP3(4;2)", "JP3(4;1,1)", "JP3(3,1;2)",
    "JP3(3,1;1,1)", "JP3(2,2;2)", "JP3(2,2;1,1)", "JP3(2,1,1;2)",
    "JP3(2,1,1;1,1)", "JP3(1,1,1,1;2)", "JP3(1,1,1,1;1,1)",
)


def verify_pair_identities(V: JordanPair) -> dict:
    """Certify JP1-JP3 and all their linearizations by building TKK(V).

    The stored tensors give the triple product {x y z} = Q_{x,z} y, which is
    symmetric in x and z.  TKK(V) = V+ (+) instr(V) (+) V- closes instr(V)
    and passes Jacobi exactly when, on V+ and on V-,

        [D(x,y), D(u,v)] = D({x y u}, v) - D(u, {y x v}):

    Jacobi on (delta(u,v), x+, y-) is this identity, and these are the only
    triples the build evaluates (lie._verify_tkk_jacobi).  On (x+, u+, y-)
    Jacobi is the symmetry, which is structural: delta_table writes column b
    of D(e_a, f_j) and column a of D(e_b, f_j) from one vector.  On the
    other triples it holds for any closed operator span.
    Every Jordan pair satisfies the identity, over any base ring.  The
    converse, that trilinear maps with the symmetry and the identity make a
    Jordan pair with Q_x y = 1/2 {x y x}, is the passage from linear Jordan
    pairs to Jordan pairs (Loos, Jordan Pairs, LNM 460, 1975, section 2;
    Meyberg, Lectures on algebras and triple systems, 1972), used here only
    where 6 is a unit.  Both 2 and 3 enter: {x y x} = 2 Q_x y, and the
    identity at (x, y, u, v) = (x, y, x, z) and at (x, z, x, y), applied to
    x, gives 6 (D(x,y) Q_x - Q_x D(y,x)) = 0, from which JP1 follows by
    dividing by 6.  So pairs over F_2 and F_3 are refused with ValueError.
    The identities are multilinear, so basis instances decide them in every
    scalar extension.

    In characteristic 0 the TKK is built over Q from V's own tensors: an
    integer identity that holds on V (x) Q holds on the Z-form and after
    every base change.  Over F_p, p >= 5, it is built over F_p.  The centre
    is not checked: a degenerate pair can have a TKK with a centre.

    Raises AssertionError("Jordan pair identities fail: <TKK message>").
    Returns {family: (instances, 0, "exhaustive")} on both signs, where
    instances = n^a m^b counts the basis tuples of a family with a slots in
    V^sign (dim n) and b in V^-sign (dim m), all decided by the build.
    """
    from .lie import _tkk

    ring = QQ if V.ring.characteristic == 0 else V.ring
    if not ring.has_inverse_of(6):
        raise ValueError(
            f"Jordan pair identities over {ring} need 1/6; verify the pair's "
            "Z-form, which decides them over every ring"
        )
    try:
        _tkk(JordanPair(ring, V.dims, V.labels, V.Qdiag, V.Qlin))
    except AssertionError as exc:
        raise AssertionError(f"Jordan pair identities fail: {exc}") from exc
    report = {}
    for sign in (1, -1):
        for name in _FAMILIES:
            a, b = (len(part.split(",")) for part in name[4:-1].split(";"))
            count = V.dim(sign) ** a * V.dim(-sign) ** b
            report[f"{name}@{'+' if sign == 1 else '-'}"] = (count, 0, "exhaustive")
    return report


# ---------------------------------------------------------------------------
# rectangular matrix Jordan pairs
# ---------------------------------------------------------------------------


def rectangular_pair(i_size: int, j_size: int, D: StructureAlgebra) -> JordanPair:
    """The rectangular matrix Jordan pair M(I, J, D).

    V+ = I x J matrices over D, V- = J x I; Q_x(y) = x(yx) on V+ and
    Q_y(x) = (yx)y on V- (the polarization-consistent reading of "xyx"), so
    {x y z} = x(yz) + z(yx) on V+ and {y x w} = (yx)w + (wx)y on V-.
    D must be unital alternative, and associative once i+j >= 4.

    The tensors are read off D's multiplication table by the matrix-unit
    rule.  On V+ take x = a E_{r1,c1}, z = d E_{r2,c2} and y = b E_{c,r}
    for basis vectors a, b, d of D: x(yz) is a(bd) in cell (r1, c2) when
    (c, r) = (c1, r2), z(yx) is d(ba) in cell (r2, c1) when (c, r) =
    (c2, r1), and Q_x y = x(yx) is a(ba) in cell (r1, c1).  V- is the
    mirror image, with (ba)d, (da)b and (ba)b.  No entry is divided.
    """
    if D.unit is None or not D.flags.get("alternative"):
        raise ValueError("coordinates must be a unital alternative algebra")
    if i_size + j_size >= 4 and not D.flags.get("associative"):
        raise ValueError("card K >= 4 needs associative coordinates")
    ring = D.ring
    dd = D.dim
    e = [{t: ring.coerce(1)} for t in range(dd)]
    right = {}  # the nonzero a(bd), for V+
    left = {}  # the nonzero (ab)d, for V-
    for (a, b), ab in D.mult.items():
        for d in range(dd):
            vec = D.mul(e[d], ab)
            if vec:
                right[(d, a, b)] = {u: ring.coerce(v) for u, v in vec.items()}
            vec = D.mul(ab, e[d])
            if vec:
                left[(a, b, d)] = {u: ring.coerce(v) for u, v in vec.items()}
    dims = {1: i_size * j_size * dd, -1: j_size * i_size * dd}
    Qdiag = {}
    Qlin = {}
    for sign, rows, cols, nest in ((1, i_size, j_size, right), (-1, j_size, i_size, left)):
        Qdiag[sign], Qlin[sign] = _rect_tensors(ring, rows, cols, dd, nest)
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
    V = JordanPair(ring, dims, labels, Qdiag, Qlin)
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


def _rect_tensors(ring, rows, cols, dd, nest):
    """Qdiag and Qlin of the side of M(I, J, D) with rows x cols cells.

    Coordinate t of cell (r, c) is index (r * cols + c) * dd + t there, and
    of cell (c, r) on the other side (c * rows + r) * dd + t.  nest[(x, y,
    z)] is the product of basis vectors x, y, z of D nested as on this side,
    x(yz) or (xy)z, with coerced entries; keys whose product is 0 are absent."""

    def term(x, y, z, r, c):
        base = (r * cols + c) * dd
        return {base + u: v for u, v in nest.get((x, y, z), {}).items()}

    basis = [divmod(cell, cols) + (t,) for cell in range(rows * cols) for t in range(dd)]
    diag = []
    for r1, c1, a in basis:
        j0 = (c1 * rows + r1) * dd
        diag.append({j0 + b: term(a, b, a, r1, c1) for b in range(dd) if (a, b, a) in nest})
    lin = {}
    for i, (r1, c1, a) in enumerate(basis):
        for k in range(i + 1, len(basis)):
            r2, c2, d = basis[k]
            op = {}
            first = (c1 * rows + r2) * dd  # y cell of x(yz), out cell (r1, c2)
            second = (c2 * rows + r1) * dd  # y cell of z(yx), out cell (r2, c1)
            if first == second:  # x and z share a cell
                for b in range(dd):
                    vec = _vec_axpy(ring, term(a, b, d, r1, c1), term(d, b, a, r1, c1))
                    if vec:
                        op[first + b] = {u: ring.coerce(v) for u, v in vec.items()}
            else:
                for j0, x, z, r, c in sorted([(first, a, d, r1, c2), (second, d, a, r2, c1)]):
                    for b in range(dd):
                        if (x, b, z) in nest:
                            op[j0 + b] = term(x, b, z, r, c)
            if op:
                lin[(i, k)] = op
    return diag, lin


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
    1/2 (C-type pipeline convention).  A matrix Jordan algebra records the
    matrix cell (r, c) of every basis element in cells.
    """

    cells = None

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

        They are computed once; V^- gets its own copy.  For matrix Jordan
        algebras (hermitian and Albert) the C_n root degree eps_r + eps_c of
        each basis element is read off its recorded cell (r, c).
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
        if self.cells is not None:
            roots = _cell_roots(self.cells)
            V.degrees = {1: roots, -1: [tuple(-c for c in r) for r in roots]}
        return V

    def _verify(self):
        """mul reads circ[(i, j)], else circ[(j, i)]: it fails to commute
        exactly where both are stored, nonempty and unequal.  U_u = id follows
        from u o x = 2x: U_u x = 1/2 u o (2x) - 1/4 (2u) o x = x."""
        circ = self.circ
        for (i, j), xy in circ.items():
            yx = circ.get((j, i))
            if xy and yx and xy != yx:
                raise ValueError("circle product is not commutative")
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul(self.unit, b) != self.smul(2, b):
                raise ValueError("unit does not satisfy u o x = 2x")

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
    rows = [{} for _ in range(D.dim)]
    for j in range(D.dim):
        for i, v in D.conj(D.basis_vec(j)).items():
            rows[i][j] = v
        rows[j][j] = rows[j].get(j, 0) - 1
    return kernel_basis(rows, D.dim, ring)


def _nuclear_involution(D: StructureAlgebra) -> bool:
    basis = _symmetric_basis(D)
    for s in basis:
        for i in range(D.dim):
            for j in range(D.dim):
                x, y = D.basis_vec(i), D.basis_vec(j)
                if D.associator(s, x, y) or D.associator(x, s, y) or D.associator(x, y, s):
                    return False
    return True


def _matrix_jordan(D: StructureAlgebra, n: int, sym, cells, labels) -> JordanAlgebra:
    """The hermitian n x n matrices over D under x o y = xy + yx.

    The basis is s E_ii for each i and each s in sym (a basis of D's
    symmetric elements), then d E_rc + dbar E_cr for each stored cell (r, c)
    in cells and each basis vector d of D; cells names one orientation of
    each off-diagonal pair.  The product is the matrix product itself,
    computed cell by cell with D.mul on the diagonal and the stored cells
    only: a mirrored cell holds the conjugate of its stored one, since the
    involution is an anti-automorphism (StructureAlgebra._verify).  Stored
    cells are read back directly, diagonal ones through sym coordinates.
    The cell of every basis element is recorded as J.cells.
    """
    ring = D.ring
    vecs = [dict(s) for s in sym]  # the D-vectors that occur as entries
    vecs += [{t: ring.coerce(1)} for t in range(D.dim)]
    vecs += [D.conj(d) for d in vecs[len(sym):]]
    mats = []  # each basis element as its (row, col, index in vecs) entries
    basis_cells = []
    for i in range(n):
        for s_idx in range(len(sym)):
            mats.append([(i, i, s_idx)])
            basis_cells.append((i, i))
    for r, c in cells:
        for t in range(len(sym), len(sym) + D.dim):
            mats.append([(r, c, t), (c, r, t + D.dim)])
            basis_cells.append((r, c))
    start = {}  # cell -> index of its first basis element
    for k, cell in enumerate(basis_cells):
        start.setdefault(cell, k)
    sym_coords = _coords_in(ring, sym, D.dim)
    products = {}

    def read(cell, dvec):
        items = sym_coords(dvec) if cell[0] == cell[1] else dvec.items()
        return {start[cell] + k: c for k, c in items}

    circ = {}
    for p, X in enumerate(mats):
        for q in range(p, len(mats)):
            Y = mats[q]
            cellwise = {}
            for A, B in ((X, Y), (Y, X)):
                for a, m, x in A:
                    for m2, b, y in B:
                        if m == m2 and (a, b) in start:
                            xy = products.get((x, y))
                            if xy is None:
                                xy = products[(x, y)] = D.mul(vecs[x], vecs[y])
                            _vec_axpy(ring, cellwise.setdefault((a, b), {}), xy)
            vec = {}
            for cell, dvec in cellwise.items():
                if dvec:
                    vec.update(read(cell, dvec))
            if vec:
                circ[(p, q)] = circ[(q, p)] = vec
    unit = {}
    for i in range(n):
        unit.update(read((i, i), D.unit))
    J = JordanAlgebra(ring, labels, circ, unit)
    J.cells = basis_cells
    return J


def _cell_roots(cells):
    """The C_n root eps_r + eps_c of each matrix cell (r, c) in cells, n the
    matrix size."""
    n = max(map(max, cells)) + 1
    return [tuple(int(t == r) + int(t == c) for t in range(n)) for r, c in cells]


def hermitian_algebra(n: int, D: StructureAlgebra) -> JordanAlgebra:
    """H_n(D, -): hermitian matrices d[ij] = d E_ij + dbar E_ji over D,
    with the cells (i, j), i < j, stored.

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
    sym = _symmetric_basis(D)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {}
    labels = []
    for i in range(n):
        for s_idx in range(len(sym)):
            index[(i, i, s_idx)] = len(labels)
            labels.append(f"sym{s_idx}[{i + 1}{i + 1}]")
    for i, j in cells:
        for t in range(D.dim):
            index[(i, j, t)] = len(labels)
            labels.append(f"{D.labels[t]}[{i + 1}{j + 1}]")
    J = _matrix_jordan(D, n, sym, cells, labels)
    J.hermitian_data = {"n": n, "D": D, "index": index, "sym_basis": sym}
    return J


def _coords_in(ring, basis, dim):
    """Coordinates in an independent basis: vec -> sorted (index, coef)
    pairs with nonzero coef; raises ValueError outside the span."""
    solve = coordinates(ring, basis, dim)

    def coords(vec):
        found = solve(vec)
        if found is None:
            raise ValueError("vector not in the symmetric-part span")
        return sorted(found.items())

    return coords


def albert_algebra(ring: BaseRing) -> JordanAlgebra:
    """Split Albert algebra H_3(O) over the split octonions O, in the
    e_i / P_k(x) presentation; 27-dimensional.  Needs 1/2 and 1/3.

    e_i = E_ii and P_k(x) = x E_ij + xbar E_ji for (k, i, j) cyclic, so the
    stored cells are (1, 2), (2, 0), (0, 1); the matrix product gives
    P_i(x) o P_j(y) = P_k(ybar xbar) and P_i(x) o P_i(y) = n(x, y)(e_j + e_k).
    """
    if not (ring.has_inverse_of(2) and ring.has_inverse_of(3)):
        raise ValueError("the Albert algebra needs 1/2 and 1/3 in the ring")
    from .algebras import split_octonions

    O = split_octonions(ring)
    labels = ["e1", "e2", "e3"] + [
        f"P{i + 1}({O.labels[t]})" for i in range(3) for t in range(8)
    ]
    J = _matrix_jordan(O, 3, [O.unit], [(1, 2), (2, 0), (0, 1)], labels)

    def e_idx(i):
        return i

    def p_idx(i, t):
        return 3 + 8 * i + t

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
    J's ring holds 1/2, so it is Q or an odd F_p: a field.
    """
    ring = J.ring
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
    if field_rank(rows, J.dim, ring) != J.dim:
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
    return kernel_basis(rows, n, ring)


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
            if field_rank(rows, V.dim(sign), ring) != min(total, V.dim(sign)):
                failures.append("joint Peirce spaces are not independent")
    return GridReport(ok=not failures, failures=failures, joint=joint)


def _matrix_grid(J: JordanAlgebra, unit):
    """(1[rc], 1[rc]) at the root eps_r + eps_c of every cell of a matrix
    Jordan algebra: J's unit (in sym coordinates) on a diagonal cell, D's
    unit in a stored one."""
    family = {}
    for k, (cell, root) in enumerate(zip(J.cells, _cell_roots(J.cells))):
        if root in family:
            continue
        if cell[0] == cell[1]:
            vec = {i: v for i, v in J.unit.items() if J.cells[i] == cell}
        else:
            vec = {k + t: v for t, v in unit.items()}
        family[root] = (vec, dict(vec))
    return family


def albert_grid(J: JordanAlgebra):
    """C_3-grid for the pair (A, A) of the split Albert algebra:
    (e_i, e_i) at 2 eps_i and (P_k(1), P_k(1)) at eps_i + eps_j."""
    return _matrix_grid(J, J.albert_data["octonions"].unit)


def hermitian_grid(J: JordanAlgebra):
    """Grid for the pair (J, J) of a hermitian algebra, indexed by the
    C_n roots eps_i + eps_j (i <= j): e = (1[ij], 1[ij])."""
    return _matrix_grid(J, J.hermitian_data["D"].unit)
