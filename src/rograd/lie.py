"""Graded Lie algebras: instr(V), TKK(V), uider(V), uTKK(V), sl_K(D),
J*J for Jordan algebras, root gradings from grids, structural predicates.

Brackets are sparse tensors on a fixed basis; degrees are integer tuples
(epsilon-coordinates of the root lattice, or a single Z-grading slot).
Jacobi is verified on the basis triples whose Jacobiator can be nonzero,
in Python integers after clearing denominators.
"""
from __future__ import annotations

from math import lcm

from .algebras import StructureAlgebra, tensor_matrix_algebra
from .jordan import JordanAlgebra, JordanPair
from .linalg import (
    LatticeEchelon,
    ModuleShape,
    SparseMatrix,
    _op_apply,
    _op_axpy,
    _op_bracket,
    _op_flatten,
    _op_scale,
    _vec_axpy,
    field_rank,
    integer_kernel,
    kernel_basis,
    lattice_span,
    quotient_shape,
    rank_certified,
    span,
)
from .rings import BaseRing, ZZ


# ---------------------------------------------------------------------------
# Jacobi helpers
# ---------------------------------------------------------------------------


def _reaches(ad, a, b, c) -> bool:
    """Whether [[e_a, e_b], e_c] has a nonzero term (support only)."""
    return any(c in ad[t] for t in ad[a].get(b, ()))


def _jacobiator(ad, i, j, k, p) -> bool:
    """Whether J(e_i, e_j, e_k) is nonzero (mod p when p > 0)."""
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, x in ad[a].get(b, {}).items():
            for s, y in ad[t].get(c, {}).items():
                out[s] = out.get(s, 0) + x * y
    if p:
        return any(v % p for v in out.values())
    return any(out.values())


# ---------------------------------------------------------------------------
# operator Lie algebras (spans of matrices acting on a module)
# ---------------------------------------------------------------------------


class OperatorLieAlgebra:
    """Lie span of operator generators on a carrier module.

    Generators are sparse ops (dict col -> dict row -> scalar).  The basis
    is the staircase of linalg.lattice_span on the flattened generators
    (integral in characteristic 0, so coordinates mostly stay integral);
    coordinates come from the ring's tracked span.  With closure_check the
    bracket of every basis pair a < b is checked to lie in the span.
    """

    def __init__(self, ring: BaseRing, carrier_dim: int, generators, closure_check=True):
        self.ring = ring
        self.carrier_dim = carrier_dim
        self.generators = list(generators)
        width = carrier_dim * carrier_dim
        gen = lattice_span(ring, width)
        for op in self.generators:
            gen.add(_op_flatten(op, carrier_dim))
        self.basis = [self._unflatten(row) for row in gen.basis_rows()]
        self._coord_ech = span(ring, width, track=True)
        for op in self.basis:
            self._coord_ech.add(_op_flatten(op, carrier_dim))
        if closure_check:
            self._verify_closed()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _unflatten(self, row: dict):
        n = self.carrier_dim
        op = {}
        for key, v in row.items():
            i, j = divmod(key, n)
            op.setdefault(j, {})[i] = self.ring.coerce(v)
        return op

    def express(self, op):
        """Coordinates of op in the chosen basis, or None if outside."""
        residual, coords = self._coord_ech.reduce(_op_flatten(op, self.carrier_dim))
        if residual:
            return None
        out = {}
        for k, c in coords.items():
            c = self.ring.coerce(c)
            if not self.ring.is_zero(c):
                out[k] = c
        return out

    def bracket_ops(self, A, B):
        return _op_bracket(self.ring, A, B)

    def _verify_closed(self):
        for a in range(len(self.basis)):
            for b in range(a + 1, len(self.basis)):
                br = self.bracket_ops(self.basis[a], self.basis[b])
                if br and self.express(br) is None:
                    raise AssertionError("operator span is not bracket-closed")


# ---------------------------------------------------------------------------
# graded Lie algebras
# ---------------------------------------------------------------------------


class GradedLieAlgebra:
    """Finite-basis Lie algebra with sparse bracket tensor and degree map."""

    def __init__(self, ring: BaseRing, labels, degrees, bracket, check=True):
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.degrees = [tuple(d) for d in degrees]
        # bracket: dict (i, j) with i < j -> dict k -> scalar
        self.bracket = {}
        for (i, j), vec in bracket.items():
            if i >= j:
                raise ValueError("bracket tensor keys must have i < j")
            clean = {}
            for k, v in vec.items():
                v = ring.coerce(v)
                if not ring.is_zero(v):
                    clean[k] = v
            if clean:
                self.bracket[(i, j)] = clean
        self.jacobi_ok = None
        if check:
            self._check_degrees()
            self.verify_jacobi()

    # -- basic operations -------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return dict(self.bracket.get((i, j), {}))
        vec = self.bracket.get((j, i), {})
        return {k: self.ring.neg(v) for k, v in vec.items()}

    def bracket_vec(self, x: dict, y: dict) -> dict:
        ring = self.ring
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = self.bracket_basis(i, j)
                if vec:
                    _vec_axpy(ring, out, vec, ring.mul(a, b))
        return out

    def degree_blocks(self):
        blocks = {}
        for i, d in enumerate(self.degrees):
            blocks.setdefault(d, []).append(i)
        return blocks

    def support(self):
        return sorted(self.degree_blocks())

    # -- verification -----------------------------------------------------
    def _check_degrees(self):
        for (i, j), vec in self.bracket.items():
            want = tuple(a + b for a, b in zip(self.degrees[i], self.degrees[j]))
            for k in vec:
                if self.degrees[k] != want:
                    raise AssertionError(
                        f"bracket [{i},{j}] leaves the degree-{want} component"
                    )

    def verify_jacobi(self):
        """Jacobi identity on every basis triple, in exact Python integers.

        With denominators cleared, ad[i][j] = denom * [e_i, e_j].  The
        Jacobiator J(e_i, e_j, e_k) is alternating, so only triples
        i < j < k are checked, and only those where a cyclic term
        [[e_a, e_b], e_c] can be nonzero: c is bracketed nontrivially by some
        e_t in the support of [e_a, e_b].  Over F_p the entries are reduced
        mod p at the end.
        """
        denom = 1
        for vec in self.bracket.values():
            for v in vec.values():
                denom = lcm(denom, v.denominator)
        ad = [{} for _ in range(self.dim)]
        for (i, j), vec in self.bracket.items():
            row = {k: int(v * denom) for k, v in vec.items()}
            ad[i][j] = row
            ad[j][i] = {k: -c for k, c in row.items()}
        p = self.ring.characteristic
        for i, j in self.bracket:
            ks = set()
            for t in ad[i][j]:
                ks.update(ad[t])
            ks.discard(i)
            ks.discard(j)
            for k in ks:
                # evaluate the triple a < b < c only from the first of its
                # pairs (a, b), (a, c), (b, c) whose bracket reaches the
                # third index; the earlier pairs are {i, k} and, if k < i,
                # {k, j}
                if k < j and (_reaches(ad, i, k, j) or (k < i and _reaches(ad, j, k, i))):
                    continue
                if _jacobiator(ad, i, j, k, p):
                    a, b, c = sorted((i, j, k))
                    raise AssertionError(
                        f"Jacobi identity fails on basis triple ({a}, {b}, {c})"
                    )
        self.jacobi_ok = True

    # -- predicates ---------------------------------------------------------
    def derived_rows(self):
        for vec in self.bracket.values():
            yield dict(vec)

    def is_perfect(self) -> bool:
        """Whether the brackets span L (over Z: the whole lattice)."""
        ech = span(self.ring, self.dim)
        for row in self.derived_rows():
            if ech.is_full(self.dim):
                break
            ech.add(row)
        return ech.is_full(self.dim)

    def centre_basis(self):
        """Basis of {z : [z, L] = 0} (exact; pure lattice over Z)."""
        ring = self.ring
        n = self.dim
        rows = {}
        for j in range(n):
            for i in range(n):
                vec = self.bracket_basis(i, j)
                for k, v in vec.items():
                    rows.setdefault((j, k), {})[i] = v
        row_list = list(rows.values())
        if rank_certified(lambda: iter(row_list), n, n, ring) == n:
            return []
        M = SparseMatrix.from_rows(row_list, n, ring)
        return integer_kernel(M) if ring.kind == "Z" else kernel_basis(M)

    # -- reports ------------------------------------------------------------
    def to_json(self) -> dict:
        ring = self.ring
        return {
            "ring": repr(ring),
            "dim": self.dim,
            "labels": self.labels,
            "degrees": [list(d) for d in self.degrees],
            "bracket": [
                [i, j, [[k, ring.scalar_str(v)] for k, v in sorted(vec.items())]]
                for (i, j), vec in sorted(self.bracket.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict, ring: BaseRing) -> "GradedLieAlgebra":
        bracket = {}
        for i, j, terms in data["bracket"]:
            bracket[(i, j)] = {k: ring.parse_scalar(s) for k, s in terms}
        return cls(ring, data["labels"], [tuple(d) for d in data["degrees"]], bracket)

    def report(self) -> str:
        preds = structural_predicates(self)
        lines = [
            f"dim {self.dim} over {self.ring}",
            f"support {self.support()}",
            f"perfect: {preds['is_perfect']}",
            f"centre dimension: {len(preds['centre_basis'])}",
            f"jacobi: {preds['jacobi_ok']}",
        ]
        return "\n".join(lines)


def structural_predicates(L: GradedLieAlgebra) -> dict:
    return {
        "is_perfect": L.is_perfect(),
        "centre_basis": L.centre_basis(),
        "jacobi_ok": bool(L.jacobi_ok),
    }


# ---------------------------------------------------------------------------
# instr(V) and TKK(V)
# ---------------------------------------------------------------------------


def _delta_block_op(V: JordanPair, x, y):
    """delta(x,y) = (D_{x,y}, -D_{y,x}) as one sparse op on V+ (+) V-."""
    n = V.dim(1)
    Dp, Dm = V.delta(x, y)
    op = {}
    for j, col in Dp.items():
        op[j] = dict(col)
    for j, col in Dm.items():
        op[n + j] = {n + i: v for i, v in col.items()}
    return op


def instr(V: JordanPair) -> OperatorLieAlgebra:
    """Inner derivation algebra: the span of all delta(x, y).

    The span is already bracket-closed ([delta, delta'] = delta(delta x, y)
    + delta(x, delta' y)); closure is nevertheless verified.  tkk performs
    that check in its [T, S] loop instead, which brackets the same basis
    pairs.  The result's deltas attribute maps each basis pair (i, j) to
    delta(e_i, f_j) as a block op, for tkk and UIDer to reuse.
    """
    inner = _instr(V)
    inner._verify_closed()
    return inner


def _instr(V: JordanPair) -> OperatorLieAlgebra:
    """instr(V) without the closure check."""
    one = V.ring.coerce(1)
    deltas = {
        (i, j): _delta_block_op(V, {i: one}, {j: one})
        for i in range(V.dim(1))
        for j in range(V.dim(-1))
    }
    carrier = V.dim(1) + V.dim(-1)
    inner = OperatorLieAlgebra(
        V.ring, carrier, [op for op in deltas.values() if op], closure_check=False
    )
    inner.deltas = deltas
    return inner


class TKKAlgebra(GradedLieAlgebra):
    """TKK(V) = V+ (+) instr(V) (+) V-, Z-graded with support {-1, 0, 1}."""

    def __init__(self, pair: JordanPair, inner: OperatorLieAlgebra, labels, degrees, bracket):
        self.pair = pair
        self.inner = inner
        self.n_plus = pair.dim(1)
        self.n_minus = pair.dim(-1)
        super().__init__(pair.ring, labels, degrees, bracket)


def tkk(V: JordanPair) -> TKKAlgebra:
    """Tits-Kantor-Koecher algebra of a Jordan pair; centre checked trivial.

    instr(V) is built unchecked: the [T, S] loop brackets every basis pair
    a < b once and raises if a bracket leaves the span.
    """
    ring = V.ring
    inner = _instr(V)
    n, m, k = V.dim(1), V.dim(-1), inner.dim
    one = ring.coerce(1)
    labels = (
        [f"x+{lbl}" for lbl in V.labels[1]]
        + [f"T{t}" for t in range(k)]
        + [f"x-{lbl}" for lbl in V.labels[-1]]
    )
    degrees = [(1,)] * n + [(0,)] * k + [(-1,)] * m
    bracket = {}
    # [x+, y-] = delta(x, y)
    for (i, j), op in inner.deltas.items():
        coords = inner.express(op) if op else {}
        if coords is None:
            raise AssertionError("delta operator escaped instr(V)")
        if coords:
            bracket[(i, n + k + j)] = {n + t: c for t, c in coords.items()}
    # [T, x+] and [T, y-]
    for t, op in enumerate(inner.basis):
        for i in range(n):
            img = _op_apply(ring, op, {i: one})
            vec = {p: v for p, v in img.items() if p < n}
            if vec:
                bracket[(i, n + t)] = {p: ring.neg(v) for p, v in vec.items()}
        for j in range(m):
            img = _op_apply(ring, op, {n + j: one})
            vec = {p - n: v for p, v in img.items() if p >= n}
            if vec:
                bracket[(n + t, n + k + j)] = {n + k + q: v for q, v in vec.items()}
    # [T, S]
    for a in range(k):
        for b in range(a + 1, k):
            br = inner.bracket_ops(inner.basis[a], inner.basis[b])
            coords = inner.express(br) if br else {}
            if coords is None:
                raise AssertionError("instr(V) is not bracket-closed")
            if coords:
                bracket[(n + a, n + b)] = {n + t: c for t, c in coords.items()}
    L = TKKAlgebra(V, inner, labels, degrees, bracket)
    centre = L.centre_basis()
    if centre:
        raise AssertionError("TKK(V) has a nontrivial centre")
    return L


# ---------------------------------------------------------------------------
# uider(V), HC(V) and uTKK(V)
# ---------------------------------------------------------------------------


class UIDer:
    """Universal inner derivation module: V+ (x) V- modulo the A and B
    relation families, with ud onto instr(V) and HC(V) = ker(ud)."""

    def __init__(self, V: JordanPair):
        self.pair = V
        self.ring = V.ring
        self.inner = instr(V)
        self.n = V.dim(1)
        self.m = V.dim(-1)
        self.gens = self.n * self.m
        # ud matrix: gen (i,j) -> coordinates of delta(e_i, f_j) in instr basis
        self.ud_columns = {}
        for (i, j), op in self.inner.deltas.items():
            coords = self.inner.express(op) if op else {}
            if coords is None:
                raise AssertionError("delta operator escaped instr(V)")
            if coords:
                self.ud_columns[self.gen_index(i, j)] = coords
        self.gen_degrees = None
        if V.degrees is not None:
            # degrees of V^- basis vectors already carry the minus sign
            self.gen_degrees = []
            for i in range(self.n):
                for j in range(self.m):
                    d = tuple(
                        a + b for a, b in zip(V.degrees[1][i], V.degrees[-1][j])
                    )
                    self.gen_degrees.append(d)

    def gen_index(self, i, j) -> int:
        return i * self.m + j

    def delta_action_row(self, op, k, l) -> dict:
        """delta . (e_k (x) f_l) as a sparse generator vector, for delta
        given as a block op on V+ (+) V-."""
        n = self.n
        row = {self.gen_index(p, l): v for p, v in op.get(k, {}).items()}
        tail = {self.gen_index(k, q - n): v for q, v in op.get(n + l, {}).items()}
        return _vec_axpy(self.ring, row, tail)

    def relation_rows(self):
        """Yield the B rows (basis pairs) then the A rows (basis quadruples)."""
        ring = self.ring
        deltas = self.inner.deltas
        for i in range(self.n):
            for j in range(self.m):
                row = self.delta_action_row(deltas[(i, j)], i, j)
                if row:
                    yield row
        for i in range(self.n):
            for j in range(self.m):
                for k in range(self.n):
                    for l in range(self.m):
                        if (k, l) <= (i, j):
                            continue
                        merged = _vec_axpy(
                            ring,
                            self.delta_action_row(deltas[(i, j)], k, l),
                            self.delta_action_row(deltas[(k, l)], i, j),
                        )
                        if merged:
                            yield merged

    def hc(self):
        """Normal form of HC(V) = ker(ud), the centre of the covering."""
        # instr(V) is spanned by the deltas, so rank(ud) = inner.dim
        _, kernel = quotient_shape(
            self.ring, self.relation_rows, self.gens, self.ud_columns, self.inner.dim
        )
        return kernel

    def dim_over_field(self) -> int:
        """dim of uider(V) over a field."""
        shape = self.hc()
        return shape.free_rank + self.inner.dim

    def degree_dims(self) -> dict:
        """Dimensions of the Q(R)-homogeneous components of uider(V)
        (field coefficients, grid-covered pairs only)."""
        if self.gen_degrees is None:
            raise ValueError("pair carries no root grading")
        if self.ring.kind == "Z":
            raise ValueError("degree-block dimensions implemented over fields")
        gen_block = {}
        for g, d in enumerate(self.gen_degrees):
            gen_block.setdefault(d, []).append(g)
        rel_ech = {}
        for row in self.relation_rows():
            d = self.gen_degrees[next(iter(row))]
            if any(self.gen_degrees[g] != d for g in row):
                raise AssertionError("inhomogeneous uider relation")
            if d not in rel_ech:
                rel_ech[d] = span(self.ring, self.gens)
            rel_ech[d].add(row)
        out = {}
        for d, gens in gen_block.items():
            rank = rel_ech[d].rank if d in rel_ech else 0
            dim = len(gens) - rank
            if dim:
                out[d] = dim
        return out


def uider(V: JordanPair):
    return UIDer(V)


class UTKK:
    """Universal TKK algebra: V+ (+) uider(V) (+) V-, with the covering map
    onto TKK(V) given by (id, ud, id); kernel = HC(V) in degree 0."""

    def __init__(self, V: JordanPair):
        self.pair = V
        self.uider = UIDer(V)
        self.kernel_shape = self.uider.hc()

    @property
    def plus_dim(self):
        return self.pair.dim(1)

    @property
    def minus_dim(self):
        return self.pair.dim(-1)

    def degree_part_dims(self):
        return {1: self.plus_dim, -1: self.minus_dim}


def utkk(V: JordanPair) -> UTKK:
    return UTKK(V)


# ---------------------------------------------------------------------------
# sl_K(D) for associative D
# ---------------------------------------------------------------------------


def sl_algebra(k_size: int, D: StructureAlgebra) -> GradedLieAlgebra:
    """Subalgebra of gl_K(D) generated by off-diagonal E_ij a, A_{K-1}-graded.

    L_0 = {sum E_ii a_i : sum a_i in [D, D]} is verified against the
    generated degree-0 lattice/space.
    """
    if not D.flags.get("associative") or D.unit is None:
        raise ValueError("sl_K(D) needs an associative unital D")
    if k_size < 3:
        raise ValueError("sl_K(D) implemented for card K >= 3")
    ring = D.ring
    amb = tensor_matrix_algebra(k_size, D)
    dd = D.dim

    def amb_idx(i, j, t):
        return (i * k_size + j) * dd + t

    def cell_of(idx):
        cell, t = divmod(idx, dd)
        i, j = divmod(cell, k_size)
        return i, j, t

    def degree_of(idx):
        i, j, _ = cell_of(idx)
        return tuple(int(t == i) - int(t == j) for t in range(k_size))

    gens = []
    for i in range(k_size):
        for j in range(k_size):
            if i != j:
                for t in range(dd):
                    gens.append({amb_idx(i, j, t): ring.coerce(1)})

    # closure under brackets inside the ambient associative algebra
    width = k_size * k_size * dd
    ech = span(ring, width)
    basis_vecs = []
    frontier = []
    for g in gens:
        if ech.add(g):
            frontier.append(g)
    basis_vecs.extend(frontier)
    while frontier:
        new = []
        for x in frontier:
            for y in basis_vecs:
                br = amb.commutator(x, y)
                if br and ech.add(br):
                    new.append(br)
                    basis_vecs.append(br)
        frontier = new

    rows = sorted(ech.basis_rows(), key=lambda r: (degree_of(min(r)), min(r)))
    basis = [{c: ring.coerce(v) for c, v in row.items()} for row in rows]
    degrees = [degree_of(min(r)) for r in rows]
    for vec, deg in zip(basis, degrees):
        assert all(degree_of(c) == deg for c in vec), "inhomogeneous basis vector"

    coord = span(ring, width, track=True)
    for row in basis:
        coord.add(row)

    def coords_of(vec):
        residual, coords = coord.reduce(vec)
        if residual:
            raise AssertionError("bracket left the generated span")
        return {k: ring.coerce(c) for k, c in coords.items() if c}

    bracket = {}
    nbasis = len(basis)
    for a in range(nbasis):
        for b in range(a + 1, nbasis):
            br = amb.commutator(basis[a], basis[b])
            if br:
                vec = coords_of(br)
                if vec:
                    bracket[(a, b)] = vec
    labels = []
    coord_vecs = []
    for r in rows:
        i, j, t = cell_of(min(r))
        if i != j:
            labels.append(f"E{i + 1}{j + 1}.{D.labels[t]}")
            vec = {}
            for c, v in r.items():
                ci, cj, ct = cell_of(c)
                assert (ci, cj) == (i, j), "off-diagonal basis row spans cells"
                vec[ct] = ring.coerce(v)
            coord_vecs.append(vec)
        else:
            labels.append(f"h[{min(r)}]")
            coord_vecs.append(None)
    L = GradedLieAlgebra(ring, labels, degrees, bracket)
    _verify_sl_zero_part(L, D, k_size, amb_idx, rows, ring)
    from .roots import build as _build_roots

    L.sl_data = {
        "k": k_size,
        "D": D,
        "root_system": _build_roots("A", k_size - 1),
        "degree_of_basis": list(L.degrees),
        "coordinate_of_basis": coord_vecs,
    }
    return L


def _verify_sl_zero_part(L, D, k_size, amb_idx, rows, ring):
    """Degree-0 part must equal {sum E_ii a_i : sum a_i in [D, D]}."""
    dd = D.dim
    zero_rows = [dict(r) for r, deg in zip(rows, L.degrees) if all(c == 0 for c in deg)]
    commutators = []
    for i in range(dd):
        for j in range(dd):
            c = D.commutator(D.basis_vec(i), D.basis_vec(j))
            if c:
                commutators.append({t: int(v) for t, v in c.items()})
    # predicted: diagonal vectors whose entry sum lies in [D, D]
    if ring.kind == "Z":
        sum_map = {}
        for i in range(k_size):
            for t in range(dd):
                sum_map[(t, amb_idx(i, i, t))] = 1
        from .linalg import preimage_lattice, SparseMatrix as SM

        diag_cols = [amb_idx(i, i, t) for i in range(k_size) for t in range(dd)]
        col_pos = {c: pos for pos, c in enumerate(diag_cols)}
        ent = {}
        for i in range(k_size):
            for t in range(dd):
                ent[(t, col_pos[amb_idx(i, i, t)])] = 1
        M = SM(dd, len(diag_cols), ent, ZZ)
        predicted = preimage_lattice(M, commutators)
        lat_pred = LatticeEchelon()
        for row in predicted:
            lat_pred.add({diag_cols[c]: v for c, v in row.items()})
        lat_got = LatticeEchelon()
        for row in zero_rows:
            lat_got.add(row)
        if not lat_pred.equals(lat_got):
            raise AssertionError("sl_K degree-0 part mismatch")
    else:
        # dimension check: (k-1)*dim D + dim[D,D]
        comm_dim = field_rank(SparseMatrix.from_rows(commutators, dd, ring))
        expect = (k_size - 1) * dd + comm_dim
        if len(zero_rows) != expect:
            raise AssertionError("sl_K degree-0 dimension mismatch")


# ---------------------------------------------------------------------------
# J * J and inner derivations of a Jordan algebra
# ---------------------------------------------------------------------------


def ider(J: JordanAlgebra) -> OperatorLieAlgebra:
    """Inner derivation algebra of J: span of 2[L_a, L_b] (L = linear mult)."""
    ring = J.ring
    half = ring.inv(ring.coerce(2))
    ops = []
    Lops = [J.L_op(J.basis_vec(i)) for i in range(J.dim)]
    for i in range(J.dim):
        for j in range(i + 1, J.dim):
            # 2[L_i, L_j] with L = circle/2, i.e. (1/2)[Lcirc_i, Lcirc_j]
            op = _op_scale(ring, half, _op_bracket(ring, Lops[i], Lops[j]))
            if op:
                ops.append(op)
    return OperatorLieAlgebra(ring, J.dim, ops)


class StarModule:
    """J*J = (J (x) J) / (a(x)b + b(x)a, a(x)bc + b(x)ca + c(x)ab),
    with ud_JA(a*b) = 2[L_a, L_b] a central extension onto IDer(J)."""

    def __init__(self, J: JordanAlgebra):
        if not J.ring.has_inverse_of(2):
            raise ValueError("J*J needs 1/2 in the base ring")
        self.J = J
        self.ring = J.ring
        self.n = J.dim
        self.gens = self.n * self.n
        self.inner = ider(J)
        self._rel_ech = None
        half = self.ring.inv(self.ring.coerce(2))
        self._Lops = [J.L_op(J.basis_vec(i)) for i in range(J.dim)]
        self._half = half

    def gen_index(self, i, j) -> int:
        return i * self.n + j

    def star_vec(self, x: dict, y: dict) -> dict:
        out = {}
        for i, a in x.items():
            _vec_axpy(self.ring, out, {self.gen_index(i, j): b for j, b in y.items()}, a)
        return out

    def relation_rows(self):
        ring = self.ring
        one = ring.coerce(1)
        n = self.n
        for i in range(n):
            for j in range(i, n):
                row = {self.gen_index(i, j): one}
                g = self.gen_index(j, i)
                row[g] = ring.add(row.get(g, 0), one)
                yield row
        half = self._half
        J = self.J
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # a(x)(bc) + b(x)(ca) + c(x)(ab) with linear products
                    row = {}
                    for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                        prod = J.mul(J.basis_vec(q), J.basis_vec(r))
                        terms = {self.gen_index(p, t): v for t, v in prod.items()}
                        _vec_axpy(ring, row, terms, half)
                    if row:
                        yield row

    def ud_op(self, vec: dict):
        """ud_JA of a raw generator vector, as an operator on J."""
        ring = self.ring
        out = {}
        for g, c in vec.items():
            i, j = divmod(g, self.n)
            br = _op_bracket(ring, self._Lops[i], self._Lops[j])
            _op_axpy(ring, out, br, ring.coerce(ring.mul(self._half, c)))
        return out

    def dim_and_kernel(self):
        """(dim J*J, HC(J) shape) over a field, exactly."""
        # the relations lie in ker ud_JA, of dimension gens - dim IDer(J)
        bound = self.gens - self.inner.dim
        rank = rank_certified(self.relation_rows, self.gens, bound, self.ring)
        dim = self.gens - rank
        return dim, ModuleShape(dim - self.inner.dim, ())

    def hc(self):
        return self.dim_and_kernel()[1]

    def relation_echelon(self):
        """Exact span of the relation rows (for membership checks)."""
        if self._rel_ech is None:
            ech = span(self.ring, self.gens)
            for row in self.relation_rows():
                ech.add(row)
            self._rel_ech = ech
        return self._rel_ech

    def same_class(self, u: dict, v: dict) -> bool:
        """Whether u and v agree in J*J (difference in the relation span)."""
        diff = _vec_axpy(self.ring, dict(u), v, -1)
        if not diff:
            return True
        return self.relation_echelon().contains(diff)

    def bracket(self, u: dict, v: dict) -> dict:
        """[u, v] = ud(u).v acting on the tensor slots (raw representative)."""
        ring = self.ring
        T = self.ud_op(u)
        out = {}
        for g, c in v.items():
            i, j = divmod(g, self.n)
            _vec_axpy(ring, out, {self.gen_index(p, j): w for p, w in T.get(i, {}).items()}, c)
            _vec_axpy(ring, out, {self.gen_index(i, q): w for q, w in T.get(j, {}).items()}, c)
        return out

    def decompose(self, dec) -> dict:
        """J*J = D_0 (+) D for an orthogonal family with the spanning
        condition; returns exact dimensions and the ud images.

        dec: PeirceDecomposition of J w.r.t. the family (complete).
        """
        ring = self.ring
        idems = dec.idempotents
        m = len(idems)
        d_gens = []
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                space = dec.spaces.get((a, b), [])
                for x in space:
                    d_gens.append(self.star_vec(idems[a - 1], x))
        d0_gens = []
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                space = dec.spaces.get((a, b), [])
                for s in range(len(space)):
                    for t in range(s + 1, len(space)):
                        d0_gens.append(self.star_vec(space[s], space[t]))
        ud_d = OperatorLieAlgebra(
            ring, self.n, [self.ud_op(v) for v in d_gens], closure_check=False
        )
        ud_d0 = OperatorLieAlgebra(
            ring, self.n, [self.ud_op(v) for v in d0_gens], closure_check=False
        )
        union = OperatorLieAlgebra(
            ring,
            self.n,
            [self.ud_op(v) for v in d_gens + d0_gens],
            closure_check=False,
        )
        dim_star, hc_shape = self.dim_and_kernel()
        hc_dim = hc_shape.free_rank
        # exact sandwich: dim_q(D) is pinched between rank ud(D) and #gens;
        # dim_q(D_0) = rank ud(D_0) + dim HC since HC lies inside D_0.
        if ud_d.dim != len(d_gens):
            raise AssertionError("ud is not injective on the D part")
        dim_d = len(d_gens)
        dim_d0 = ud_d0.dim + hc_dim
        if union.dim != ud_d.dim + ud_d0.dim:
            raise AssertionError("ud(D) and ud(D_0) are not independent")
        if dim_d + dim_d0 != dim_star:
            raise AssertionError("J*J does not split as D_0 (+) D")
        return {
            "dim_star": dim_star,
            "dim_D": dim_d,
            "dim_D0": dim_d0,
            "ud_D": ud_d,
            "ud_D0": ud_d0,
            "hc": hc_shape,
        }


def star_module(J: JordanAlgebra) -> StarModule:
    return StarModule(J)


# ---------------------------------------------------------------------------
# root gradings from grids
# ---------------------------------------------------------------------------


def assign_root_grading(L: TKKAlgebra, family: dict, grading) -> GradedLieAlgebra:
    """Regrade TKK(V) over Q(R) using a verified covering grid.

    Homogeneous components: L_{+alpha} = V_alpha^+, L_{-alpha} = V_alpha^-,
    and instr split along degrees alpha - beta.  Orthogonal pairs must
    bracket to zero (defect check); sl2-triples from the grid act diagonally
    with the coroot pairings as eigenvalues.
    """
    from .jordan import verify_grid

    V = L.pair
    ring = L.ring
    R = grading.system
    report = verify_grid(V, family, grading)
    if not report.ok:
        raise ValueError("grid does not verify: " + "; ".join(report.failures[:3]))
    roots = sorted(family)
    n, k, m = L.n_plus, L.inner.dim, L.n_minus
    new_basis = []  # sparse vectors in TKK coordinates
    new_degrees = []
    new_labels = []
    for alpha in roots:
        for t, vec in enumerate(report.joint[alpha][1]):
            new_basis.append(dict(vec))
            new_degrees.append(tuple(alpha))
            new_labels.append(f"V+[{alpha}]{t}")
    # instr components by degree alpha - beta
    one = ring.coerce(1)
    mid_ech = {}
    for alpha in roots:
        for beta in roots:
            mu = tuple(a - b for a, b in zip(alpha, beta))
            pairing = R.pairing(alpha, beta) if alpha != beta else 2
            for x in report.joint[alpha][1]:
                for y in report.joint[beta][-1]:
                    op = _delta_block_op(V, x, y)
                    coords = L.inner.express(op) if op else {}
                    if coords is None:
                        raise AssertionError("delta escaped instr")
                    if alpha != beta and pairing == 0:
                        if coords:
                            raise ValueError(
                                f"defect nonzero: [L_{alpha}, L_{-beta}] != 0"
                            )
                        continue
                    if coords:
                        if mu not in mid_ech:
                            mid_ech[mu] = span(ring, k)
                        mid_ech[mu].add(coords)
    mid_total = 0
    for mu in sorted(mid_ech):
        if not R.is_root(tuple(mu)):
            raise AssertionError(f"instr component at non-root degree {mu}")
        for t, row in enumerate(mid_ech[mu].basis_rows()):
            # echelon rows scaled to lead 1
            lead = row[min(row)]
            vec = {n + c: ring.coerce(ring.div(v, lead)) for c, v in row.items()}
            new_basis.append(vec)
            new_degrees.append(tuple(mu))
            new_labels.append(f"L0[{mu}]{t}")
            mid_total += 1
    if mid_total != k:
        raise AssertionError(
            f"instr splits into {mid_total} graded dimensions, expected {k}"
        )
    for alpha in roots:
        neg = tuple(-a for a in alpha)
        for t, vec in enumerate(report.joint[alpha][-1]):
            new_basis.append({n + k + j: v for j, v in vec.items()})
            new_degrees.append(neg)
            new_labels.append(f"V-[{alpha}]{t}")
    # change of basis
    coord = span(ring, L.dim, track=True)
    for vec in new_basis:
        if not coord.add(vec):
            raise AssertionError("graded basis is not independent")

    def coords_of(vec):
        residual, coords = coord.reduce(dict(vec))
        if residual:
            raise AssertionError("vector escaped the graded basis")
        return {
            idx: ring.coerce(c)
            for idx, c in coords.items()
            if not ring.is_zero(ring.coerce(c))
        }

    bracket = {}
    nb = len(new_basis)
    for a in range(nb):
        for b in range(a + 1, nb):
            br = L.bracket_vec(new_basis[a], new_basis[b])
            if br:
                vec = coords_of(br)
                if vec:
                    bracket[(a, b)] = vec
    graded = GradedLieAlgebra(ring, new_labels, new_degrees, bracket)
    _check_sl2_action(graded, family, grading, coords_of, new_basis, L)
    return graded


def _check_sl2_action(graded, family, grading, coords_of, new_basis, L):
    """ad h_alpha acts diagonally with eigenvalue <beta, alpha-check>."""
    ring = graded.ring
    R = grading.system
    n, k = L.n_plus, L.inner.dim
    for alpha, (ep, em) in family.items():
        e_vec = coords_of(dict(ep))
        f_vec = coords_of({n + k + j: v for j, v in em.items()})
        # with [a, b] = delta(a, b) for (a, b) in V, the diagonal action with
        # eigenvalues <beta, alpha-check> holds for h = [e, f] (the same
        # sl2-triple after f -> -f)
        h = graded.bracket_vec(e_vec, f_vec)
        for idx in range(graded.dim):
            img = graded.bracket_vec(h, {idx: ring.coerce(1)})
            beta = graded.degrees[idx]
            want = (
                R.pairing(beta, alpha)
                if any(beta)
                else 0
            )
            expect = {idx: ring.coerce(want)} if want else {}
            expect = {k2: v for k2, v in expect.items() if not ring.is_zero(v)}
            if img != expect:
                raise AssertionError(
                    f"sl2 triple at {alpha} does not act diagonally on degree {beta}"
                )
