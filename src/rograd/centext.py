"""Universal central extensions as graded quotients of the exterior square.

uce(L) = (L ^ L)/B for perfect L, computed degree block by degree block:
generators x_i ^ x_j (i < j), one relation row per basis triple, and the
covering map u(<x,y>) = [x,y].  Kernels are reported per degree as exact
module normal forms (invariant factors over Z, dimensions over fields).
Over Z one SNF of Z^m/R per block gives both: Z^m/R = ker(u)/R + Z^rank(u),
once every relation row is checked to lie in ker u.

The relation rows stream in order of the least index of their triple.  By
Cartan's formula theta_x = d iota_x + iota_x d on the Chevalley-Eilenberg
chains, the rows of one basis element x are, up to sign, its action theta_x
on L ^ L modulo x ^ L.  So over a field the rank certificate reaches every
column early and stops after a fraction of the rows.

Most of each block reads no rows at all, by a weight argument
(Chevalley-Eilenberg 1948; Allison-Benkart-Gao, Memoirs AMS 158, 2002).
When Jacobi holds (L.jacobi_ok), the weights mu = lambda_i + lambda_j of
the diagonal torus (GradedLieAlgebra.diagonal_torus) split a block into
sub-blocks, and R lies in ker u (u of a relation row is a Jacobiator).
For c in a sub-block, Cartan's formula gives d(h ^ c) = -mu(h) c +
h ^ u(c): mu(h) ker u lies in R.  So lie._Keys' unit rule applies: a
certified sub-block has kernel 0 and uce part L_{d,mu}.

Also: the homology quotients D_2, D_3, <D,D>, the tilde-wedge and HC_1,
and the explicit A_2 / A_3 cocycle extensions with their fibers.  The uce
blocks, the homology quotients and HC_1 = ker(u)/R all go through
linalg.quotient_shape, one code path for Z, Q and F_p.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product

from .algebras import StructureAlgebra, standard_derivation
from .degsums import _pairs_for, degenerate_sums_bruteforce, divisor
from .lie import GradedLieAlgebra, _Keys
from .linalg import (
    ModuleShape,
    _op_axpy,
    _vec_axpy,
    field_rank,
    op_span_dim,
    quotient_shape,
    span,
)
from .roots import RootSystem


# ---------------------------------------------------------------------------
# the uce engine
# ---------------------------------------------------------------------------


@dataclass
class UceBlock:
    degree: tuple
    n_gens: int
    uce_shape: ModuleShape
    kernel_shape: ModuleShape
    target_dim: int
    # generators of the sub-blocks certified by a unit weight (no row read)
    certified: int = 0

    @property
    def bijective(self) -> bool:
        return (
            self.kernel_shape.is_trivial
            and self.uce_shape == ModuleShape(self.target_dim, ())
        )


class UceResult:
    """uce(L) organized by degree, with the covering map data."""

    def __init__(self, L: GradedLieAlgebra):
        if not L.is_perfect():
            raise ValueError(
                "uce requires a perfect Lie algebra (universality needs it); "
                "over Z a C-type model is typically not perfect without 1/2"
            )
        self.L = L
        self.ring = L.ring
        self.blocks = {}
        self._build()

    # -- block assembly ------------------------------------------------
    def _build(self):
        L = self.L
        ring = self.ring
        n = L.dim
        # the torus weights grade L, and a unit weight makes ker u = R, only
        # once Jacobi holds (u applied to a relation row is a Jacobiator)
        weights = L.diagonal_torus()[1] if L.jacobi_ok else [()] * n
        keys = self._keys = _Keys(L.degrees, weights, ring)
        of = keys.of
        # weight sub-block key -> its sorted generator pairs x_i ^ x_j
        self._pairs = keys.group((of[i] + of[j], (i, j)) for i, j in combinations(range(n), 2))
        basis_blocks = L.degree_blocks()
        for d, subs in keys.by_degree(self._pairs):
            target = basis_blocks.get(d, [])
            parts = []
            for key, gens, g in (sub for sub in subs if sub[2] != 1):
                blk = self._process_block(d, gens, [b for b in target if of[b] == key])
                keys.killed(blk.kernel_shape, g, f"uce block {d}")  # g ker u lies in R
                parts.append(blk)
            # each certified sub-block has uce part L_{d, mu}, free
            free = len(target) - sum(b.target_dim for b in parts)
            uce_shape = sum((b.uce_shape for b in parts), ModuleShape(free))
            kernel = sum((b.kernel_shape for b in parts), ModuleShape(0))
            m = sum(len(gens) for _, gens, _ in subs)
            certified = m - sum(b.n_gens for b in parts)
            self.blocks[d] = UceBlock(d, m, uce_shape, kernel, len(target), certified)

    @cached_property
    def _gen_blocks(self):
        """The sorted generator pairs x_i ^ x_j (i < j) of each degree."""
        return {
            d: sorted(g for _, gens, _ in subs for g in gens)
            for d, subs in self._keys.by_degree(self._pairs)
        }

    def _wedge_into(self, row: dict, a: int, b: int, coef, block_pos, sign=1):
        """row += sign * coef * (x_a ^ x_b), in the block's generators."""
        if a == b:
            return
        if a > b:
            a, b, sign = b, a, -sign
        ring = self.ring
        if sign < 0:
            coef = ring.neg(coef)
        pos = block_pos.get((a, b))
        if pos is None:
            raise AssertionError("wedge term fell outside its degree block")
        w = ring.add(row.get(pos, 0), coef)
        if ring.is_zero(w):
            row.pop(pos, None)
        else:
            row[pos] = w

    def _relation_rows(self, degree, gens):
        """Rows x_i^[x_j,x_k] + x_j^[x_k,x_i] + x_k^[x_i,x_j] on gens, the
        generators of a degree block or of a weight sub-block: one per
        triple i < j < k with a nonzero row, sub-block by sub-block, each in
        order of the least index i (then of (j, k)).

        The row of (i, j, k) is the boundary of x_i ^ x_j ^ x_k.  By Cartan's
        formula theta_x = d iota_x + iota_x d on the Chevalley-Eilenberg
        chains it is, up to sign, theta_{x_i}(x_j ^ x_k) modulo x_i ^ L: the
        rows of one i carry the action of x_i, which reaches every column
        of the block at once.  So a rank certificate reaches its bound in
        far fewer rows than with the triples inside L_0 first, whose rows
        reach only the columns of L_0 ^ L_0.
        """
        br = self.L.bracket  # (a, b) with a < b -> [x_a, x_b], read in place
        empty = {}
        block_pos = {g: p for p, g in enumerate(gens)}
        n = self.L.dim
        keys = self._keys
        for key in dict.fromkeys(keys.canon(keys.of[i] + keys.of[j]) for i, j in gens):
            # the pair (j, k) of each triple comes from the sorted generator
            # pairs of the complementary key, from the first one with j > i
            for i in range(n):
                pairs = self._pairs.get(keys.canon(key - keys.of[i]))
                if not pairs:
                    continue
                for j, k in islice(pairs, bisect_right(pairs, (i, n)), None):
                    row = {}
                    for t, v in br.get((j, k), empty).items():
                        self._wedge_into(row, i, t, v, block_pos)
                    # [x_k, x_i] = -[x_i, x_k] since i < k
                    for t, v in br.get((i, k), empty).items():
                        self._wedge_into(row, j, t, v, block_pos, -1)
                    for t, v in br.get((i, j), empty).items():
                        self._wedge_into(row, k, t, v, block_pos)
                    if row:
                        yield row

    def _process_block(self, degree, gens, target) -> UceBlock:
        tpos = {b: p for p, b in enumerate(target)}
        # covering map u on this block; L is perfect and brackets are
        # homogeneous, so rank(u) = len(target)
        br = self.L.bracket
        u_cols = {p: {tpos[t]: v for t, v in br[g].items()} for p, g in enumerate(gens) if g in br}
        uce_shape, kernel = quotient_shape(
            self.ring, lambda: self._relation_rows(degree, gens), len(gens), u_cols, len(target)
        )
        return UceBlock(degree, len(gens), uce_shape, kernel, len(target))

    # -- derived data ---------------------------------------------------
    def total_kernel(self) -> ModuleShape:
        free = 0
        torsion = []
        for blk in self.blocks.values():
            free += blk.kernel_shape.free_rank
            torsion.extend(blk.kernel_shape.torsion)
        return ModuleShape(free, tuple(sorted(torsion)))

    def kernel_degrees(self):
        return sorted(
            d for d, blk in self.blocks.items() if not blk.kernel_shape.is_trivial
        )

    def support(self):
        return sorted(d for d, blk in self.blocks.items() if not blk.uce_shape.is_trivial)

    def verify_perfect(self, max_gens: int = 600):
        """Direct span test that uce(L) is perfect (small algebras only):
        the brackets <[e_a,e_b],[e_c,e_d]> together with the relations must
        span every generator block."""
        L = self.L
        ring = self.ring
        if sum(len(g) for g in self._gen_blocks.values()) > max_gens:
            raise ValueError("direct perfectness test limited to small algebras")
        brackets = {  # degree -> the nonzero [e_a, e_b] of that degree
            d: [x for x in (L.bracket_basis(a, b) for a, b in gens) if x]
            for d, gens in self._gen_blocks.items()
        }
        for d, gens in self._gen_blocks.items():
            block_pos = {g: p for p, g in enumerate(gens)}
            ech = span(ring, len(gens))
            for row in self._relation_rows(d, gens):
                ech.add(row)
            # brackets of uce generators: <[e_a,e_b], [e_c,e_d]>
            for d1, xs in brackets.items():
                for x, y in product(xs, brackets.get(tuple(p - q for p, q in zip(d, d1)), ())):
                    row = {}
                    for (i, vi), (j, vj) in product(x.items(), y.items()):
                        if i != j:
                            self._wedge_into(row, i, j, ring.mul(vi, vj), block_pos)
                    if row:
                        ech.add(row)
            if not ech.is_full(len(gens)):
                return False
        return True


def uce(L: GradedLieAlgebra) -> UceResult:
    return UceResult(L)


# ---------------------------------------------------------------------------
# kernel reports
# ---------------------------------------------------------------------------


@dataclass
class ExtensionReport:
    source: str
    total_kernel: ModuleShape
    by_degree: dict
    support: list
    classification: dict

    def to_json(self) -> dict:
        return {
            "algebra": self.source,
            "support": [list(d) for d in self.support],
            "kernel": {
                str(tuple(d)): {"free": s.free_rank, "torsion": list(s.torsion)}
                for d, s in sorted(self.by_degree.items())
            },
            "classification": {
                str(tuple(d)): c for d, c in sorted(self.classification.items())
            },
        }

    def to_table(self) -> str:
        lines = ["degree | kernel | class"]
        for d in self.support:
            shape = self.by_degree.get(d, ModuleShape(0, ()))
            lines.append(
                f"{tuple(d)} | {shape} | {self.classification.get(d, '?')}"
            )
        return "\n".join(lines)


def kernel_report(
    u: UceResult, root_system: RootSystem | None = None, source: str = "L"
) -> ExtensionReport:
    """Per-degree kernel normal forms with root/degenerate-sum classification.

    With a root system given: every support degree must be a root, a
    degenerate sum, or zero; root-degree blocks must map bijectively and
    degenerate-sum blocks must be killed by their divisor.
    """
    by_degree = {}
    classification = {}
    for d, blk in u.blocks.items():
        if not blk.uce_shape.is_trivial:
            by_degree[d] = blk.kernel_shape
            classification[d] = _classify(d, root_system)
            if root_system is not None:
                if classification[d] == "root" and not blk.bijective:
                    raise AssertionError(
                        f"covering is not bijective on root degree {d}"
                    )
                if classification[d].startswith("degenerate_sum"):
                    n = int(classification[d].split("(")[1][:-1])
                    for f in blk.kernel_shape.torsion:
                        if n % f != 0:
                            raise AssertionError(
                                f"degenerate-sum block {d} not killed by {n}"
                            )
                    if blk.kernel_shape.free_rank and u.ring.has_inverse_of(n):
                        raise AssertionError(
                            f"degenerate-sum block {d} survives over {u.ring}"
                        )
    return ExtensionReport(
        source=source,
        total_kernel=u.total_kernel(),
        by_degree=by_degree,
        support=u.support(),
        classification=classification,
    )


def _classify(degree, R: RootSystem | None) -> str:
    if not any(degree):
        return "zero_degree"
    if R is None:
        # Z-graded convention: +-1 play the role of roots
        if degree in ((1,), (-1,)):
            return "root"
        return f"z_degree{tuple(degree)}"
    scaled = tuple(c * R.coord_scale for c in degree)
    if scaled in R.roots:
        return "root"
    # _pairs_for reads the scaled vector, so a pair with a root that is not
    # integral in standard coordinates (E, F) cannot raise here
    if _pairs_for(scaled, R):
        n = divisor(degree, R)
        if n > 1:
            return f"degenerate_sum({n})"
    raise AssertionError(f"support degree {degree} is neither root nor degenerate sum")


# ---------------------------------------------------------------------------
# homology quotients of a coordinate algebra
# ---------------------------------------------------------------------------


@dataclass
class HomologyQuotient:
    kind: str
    module: ModuleShape
    generators: int
    relation_lattice: object  # linalg.span of the relations (a lattice over Z)

    def reduces_to_zero(self, vec: dict) -> bool:
        return self.relation_lattice.contains(vec)


def _quotient(ring, ngens, rows, kind) -> HomologyQuotient:
    lat = span(ring, ngens)
    for r in rows:
        lat.add(r)
    shape, _ = quotient_shape(ring, lambda: iter(rows), ngens, {}, 0)
    return HomologyQuotient(kind, shape, ngens, lat)


def d2(D: StructureAlgebra) -> HomologyQuotient:
    """D_2 = D/(2D + ideal[D,D]) (associative coordinates)."""
    if not D.flags.get("associative"):
        raise ValueError("D_2 needs associative coordinates")
    ring = D.ring
    rows = []
    two = ring.coerce(2)
    for t in range(D.dim):
        rows.append({t: two})
    basis = [D.basis_vec(i) for i in range(D.dim)]
    for a in basis:
        for b in basis:
            c = D.commutator(a, b)
            if c:
                rows.append(c)
            for x in basis:
                xc = D.mul(x, D.commutator(a, b))
                if xc:
                    rows.append(xc)
    return _quotient(ring, D.dim, rows, "D2")


def d3(D: StructureAlgebra) -> HomologyQuotient:
    """D_3 = D / span(3D, D[D,D], (D,D,D), (ad.c + a.dc + a.cd)b)."""
    if not D.flags.get("alternative"):
        raise ValueError("D_3 needs alternative coordinates")
    ring = D.ring
    rows = []
    three = ring.coerce(3)
    basis = [D.basis_vec(i) for i in range(D.dim)]
    for t in range(D.dim):
        rows.append({t: three})
    for a in basis:
        for b in basis:
            comm = D.commutator(a, b)
            if not comm:
                continue
            for x in basis:
                v = D.mul(x, comm)
                if v:
                    rows.append(v)
    for a in basis:
        for b in basis:
            for c in basis:
                v = D.associator(a, b, c)
                if v:
                    rows.append(v)
    for a in basis:
        for d_ in basis:
            for c in basis:
                # (ad.c + a.dc + a.cd) b
                inner = D.add(
                    D.mul(D.mul(a, d_), c),
                    D.add(D.mul(a, D.mul(d_, c)), D.mul(a, D.mul(c, d_))),
                )
                if not inner:
                    continue
                for b in basis:
                    v = D.mul(inner, b)
                    if v:
                        rows.append(v)
    return _quotient(ring, D.dim, rows, "D3")


def _tensor_index(D, i, j):
    return i * D.dim + j


def angle(D: StructureAlgebra) -> HomologyQuotient:
    """<D, D> = D(x)D / (a(x)b + b(x)a, ab(x)c + bc(x)a + ca(x)b)."""
    return _quotient(D.ring, D.dim * D.dim, _angle_rows(D), "AngleBracket")


def _angle_rows(D: StructureAlgebra):
    """The <D, D> relations: the tilde-wedge relation rows on the D(x)D
    columns alone."""
    n2 = D.dim * D.dim
    rows = ({k: v for k, v in row.items() if k < n2} for row in _tilde_relation_rows(D))
    return [row for row in rows if row]


def tilde_wedge(D: StructureAlgebra) -> HomologyQuotient:
    """(D(x)D (+) D_{j0} (+) D_j) modulo a(x)b + b(x)a and
    ab(x)c + bc(x)a + ca(x)b - (a,b,c)_{j0} - (a,b,c)_j."""
    ngens = D.dim * D.dim + 2 * D.dim
    return _quotient(D.ring, ngens, _tilde_relation_rows(D), "TildeWedge")


def hc1(D: StructureAlgebra) -> HomologyQuotient:
    """HC_1(D) = {sum a_i ~^ b_i : sum [a_i, b_i] = 0} inside tilde-wedge.

    D is associative, so every tilde-wedge relation has zero associator part:
    it is a <D, D> relation on the D(x)D columns, killed by the bracket map
    u(a(x)b) = [a, b].  So HC_1(D) = ker(u)/R, read off one quotient."""
    if not D.flags.get("associative"):
        raise ValueError("HC_1 defined here for associative coordinates")
    ring = D.ring
    n = D.dim
    u_cols = {}
    for i in range(n):
        for j in range(n):
            c = D.commutator(D.basis_vec(i), D.basis_vec(j))
            if c:
                u_cols[_tensor_index(D, i, j)] = c
    rows = _angle_rows(D)
    rank_u = field_rank(u_cols.values(), n, ring)  # the rank of u's columns
    _, shape = quotient_shape(ring, lambda: iter(rows), n * n, u_cols, rank_u)
    return HomologyQuotient("HC1", shape, n * n + 2 * n, tilde_wedge(D).relation_lattice)


def _tilde_relation_rows(D: StructureAlgebra):
    """Rows a(x)b + b(x)a and ab(x)c + bc(x)a + ca(x)b - (a,b,c)_{j0} -
    (a,b,c)_j on basis elements; on the D(x)D columns alone they are the
    <D, D> relations."""
    ring = D.ring
    n = D.dim
    one = ring.coerce(1)
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = {_tensor_index(D, i, j): one}
            key = _tensor_index(D, j, i)
            row[key] = ring.add(row.get(key, 0), one)
            rows.append(row)
    basis = [D.basis_vec(i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        row = {}
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            prod = D.mul(basis[p], basis[q])
            _vec_axpy(ring, row, {_tensor_index(D, t, r): v for t, v in prod.items()})
        assoc = D.associator(basis[i], basis[j], basis[k])
        for off in (n * n, n * n + n):
            _vec_axpy(ring, row, {off + t: v for t, v in assoc.items()}, -1)
        if row:
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the octonion <O,O> -> StanDer kernel (simple connectedness input)
# ---------------------------------------------------------------------------


def octonion_angle_kernel(D: StructureAlgebra):
    """Kernel data of <a,b> -> SD(a,b): returns (dim <D,D>, dim SD-span,
    kernel dim) after verifying the map is well-defined on the relations."""
    ring = D.ring
    basis = [D.basis_vec(i) for i in range(D.dim)]
    for a, b in product(basis, repeat=2):
        if _op_axpy(ring, standard_derivation(D, a, b), standard_derivation(D, b, a)):
            raise AssertionError("SD is not antisymmetric")
    for a, b, c in product(basis, repeat=3):
        s = standard_derivation(D, D.mul(a, b), c)
        _op_axpy(ring, s, standard_derivation(D, D.mul(b, c), a))
        if _op_axpy(ring, s, standard_derivation(D, D.mul(c, a), b)):
            raise AssertionError("SD does not kill the cyclic relation")
    quot = angle(D)
    sd_ops = [
        standard_derivation(D, basis[i], basis[j])
        for i in range(D.dim)
        for j in range(i + 1, D.dim)
    ]
    sd_dim = op_span_dim(sd_ops, ring)
    dim_angle = quot.module.free_rank
    return dim_angle, sd_dim, dim_angle - sd_dim


# ---------------------------------------------------------------------------
# star kernel for hermitian Jordan algebras
# ---------------------------------------------------------------------------


def star_kernel(J) -> ModuleShape:
    """HC(J) = ker(ud_JA) for a hermitian matrix Jordan algebra.

    For associative coordinates with trivial involution the explicit
    criterion (kernel = span of the T(a,b) classes) is cross-checked.
    """
    from .lie import star_module

    data = getattr(J, "hermitian_data", None)
    if data is None:
        raise ValueError("star_kernel expects a hermitian matrix Jordan algebra")
    S = star_module(J)
    dim_star, shape = S.dim_and_kernel()
    D = data["D"]
    n = data["n"]
    trivial_involution = all(
        D.conj(D.basis_vec(i)) == D.basis_vec(i) for i in range(D.dim)
    )
    if n >= 4 and D.flags.get("associative") and trivial_involution:
        # kernel must equal the span of the T(a,b) = a[12]*b[12] - 1[12]*(ab)[12]
        # classes (the explicit criterion for trivial involution)
        index = data["index"]
        ring = J.ring
        unit_01 = {index[(0, 1, t)]: c for t, c in D.unit.items()}
        t_vecs = []
        for a_idx in range(D.dim):
            for b_idx in range(D.dim):
                x = J.basis_vec(index[(0, 1, a_idx)])
                y = J.basis_vec(index[(0, 1, b_idx)])
                t_vec = S.star_vec(x, y)
                prod = D.mul(D.conj(D.basis_vec(a_idx)), D.basis_vec(b_idx))
                for t, coef in prod.items():
                    sub = S.star_vec(unit_01, {index[(0, 1, t)]: ring.coerce(1)})
                    _vec_axpy(ring, t_vec, sub, ring.neg(coef))
                if t_vec:
                    t_vecs.append(t_vec)
        # rank gain of the T classes over the relation span = dim span{T} in J*J
        probe = span(ring, S.gens)
        for row in S.relation_echelon().basis_rows():
            probe.add(row)
        gained = sum(1 for v in t_vecs if probe.add(v))
        if gained != shape.free_rank:
            raise AssertionError(
                "explicit T(a,b) criterion disagrees with the computed kernel"
            )
    return shape


# ---------------------------------------------------------------------------
# explicit A_2 / A_3 cocycle extensions
# ---------------------------------------------------------------------------


class CocycleExtension:
    """L (+)_psi Z where Z is a sum of D_3 (A_2 case) or D_2 (A_3 case)
    copies indexed by the degenerate sums, and psi(E_ij a, E_kl b) is
    s(ij,kl) (ab-class) on degenerate pairs, zero elsewhere.

    The sign map s takes +1 on the lexicographically smaller root of each
    degenerate pair (any of the 2^6 alternating choices works; for D_2 the
    sign is immaterial since 2 = 0 there).
    """

    def __init__(self, L: GradedLieAlgebra, kind: str, D: StructureAlgebra):
        data = getattr(L, "sl_data", None)
        if data is None:
            raise ValueError("cocycle extensions expect an sl_K(D) model")
        if kind not in ("A2", "A3"):
            raise ValueError("kind must be A2 or A3")
        want_k = 3 if kind == "A2" else 4
        if data["k"] != want_k:
            raise ValueError(f"{kind} cocycle needs sl_{want_k}")
        self.L = L
        self.kind = kind
        self.D = D
        self.ring = L.ring
        self.fiber = d3(D) if kind == "A2" else d2(D)
        R = data["root_system"]
        self.R = R
        ds = degenerate_sums_bruteforce(R)
        n = 3 if kind == "A2" else 2
        self.ds_vectors = sorted(ds.by_divisor.get(n, ()))
        self.n_gamma = n
        self.root_of = data["degree_of_basis"]  # basis idx -> degree tuple
        self.coord_of = data["coordinate_of_basis"]  # basis idx -> D-basis idx or None
        self._pair_set = set()
        for gamma in self.ds_vectors:
            for pair in ds.pairs[gamma]:
                a, b = tuple(pair)
                self._pair_set.add((a, b))
                self._pair_set.add((b, a))

    def s_sign(self, alpha, beta) -> int:
        if (alpha, beta) not in self._pair_set:
            return 0
        return 1 if alpha < beta else -1

    def psi_basis(self, i: int, j: int):
        """psi on basis elements: (degree, fiber vector) or None."""
        alpha, beta = self.root_of[i], self.root_of[j]
        if not any(alpha) or not any(beta):
            return None
        s = self.s_sign(alpha, beta) if self.kind == "A2" else (
            1 if (alpha, beta) in self._pair_set else 0
        )
        if s == 0:
            return None
        avec, bvec = self.coord_of[i], self.coord_of[j]
        prod = self.D.mul(avec, bvec)
        gamma = tuple(x + y for x, y in zip(alpha, beta))
        vec = {t: self.ring.mul(s, v) for t, v in prod.items()}
        return gamma, vec

    def psi_vec(self, x: dict, y: dict) -> dict:
        """psi extended bilinearly: {gamma: fiber vector}."""
        ring = self.ring
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                got = self.psi_basis(i, j)
                if got is None:
                    continue
                gamma, vec = got
                tgt = out.setdefault(gamma, {})
                _vec_axpy(ring, tgt, vec, ring.mul(ci, cj))
                if not tgt:
                    del out[gamma]
        return out

    def bracket(self, x, y):
        """[(x, m), (y, m')] = ([x, y], psi(x, y)) in L (+)_psi Z."""
        xv, _ = x
        yv, _ = y
        return (self.L.bracket_vec(xv, yv), self.psi_vec(xv, yv))

    def project(self, elem):
        """The covering map onto L: first coordinate."""
        return elem[0]

    def _fiber_zero(self, fv: dict) -> bool:
        return all(self.fiber.reduces_to_zero(vec) for vec in fv.values())

    def verify_cocycle(self) -> int:
        """Exhaustively check alternation and the 2-cocycle identity on
        basis pairs/triples; returns the number of instances checked."""
        L = self.L
        ring = self.ring
        count = 0
        for i in range(L.dim):
            got = self.psi_basis(i, i)
            if got is not None and not self.fiber.reduces_to_zero(got[1]):
                raise AssertionError("psi(x, x) != 0")
            for j in range(i + 1, L.dim):
                a = self.psi_basis(i, j)
                b = self.psi_basis(j, i)
                merged = {}
                for part in (a, b):
                    if part:
                        _vec_axpy(ring, merged.setdefault(part[0], {}), part[1])
                if not self._fiber_zero({g: v for g, v in merged.items() if v}):
                    raise AssertionError("psi is not alternating")
                count += 1
        one = ring.coerce(1)
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                for k in range(j + 1, L.dim):
                    total = {}
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        br = L.bracket_basis(y, z)
                        fv = self.psi_vec({x: one}, br)
                        for g, vec in fv.items():
                            _vec_axpy(ring, total.setdefault(g, {}), vec)
                    total = {g: v for g, v in total.items() if v}
                    if not self._fiber_zero(total):
                        raise AssertionError(
                            f"2-cocycle identity fails on triple {(i, j, k)}"
                        )
                    count += 1
        return count

    def is_perfect(self) -> bool:
        """L perfect and every fiber surjected by psi values."""
        if not self.L.is_perfect():
            return False
        for gamma in self.ds_vectors:
            ech = span(self.ring, self.D.dim)
            for row in self.fiber.relation_lattice.basis_rows():
                ech.add(row)
            for i in range(self.L.dim):
                for j in range(self.L.dim):
                    got = self.psi_basis(i, j)
                    if got and got[0] == gamma and got[1]:
                        ech.add(got[1])
            if not ech.is_full(self.D.dim):
                return False
        return True

    def compare_with_uce(self, u: UceResult) -> bool:
        """Each degenerate-sum block of uce(L) must match the fiber D_n."""
        for gamma in self.ds_vectors:
            blk = u.blocks.get(gamma)
            if blk is None:
                return False
            if blk.kernel_shape != self.fiber.module:
                return False
        return True


def cocycle_extension(L: GradedLieAlgebra, kind: str, D: StructureAlgebra) -> CocycleExtension:
    ext = CocycleExtension(L, kind, D)
    ext.verify_cocycle()
    return ext
