from itertools import combinations, product
from math import gcd

import pytest

from rograd import linalg
from rograd.algebras import StructureAlgebra, matrix_algebra, split_octonions
from rograd.centext import (
    CocycleExtension,
    UceResult,
    _tilde_relation_rows,
    angle,
    cocycle_extension,
    d2,
    d3,
    hc1,
    kernel_report,
    octonion_angle_kernel,
    star_kernel,
    tilde_wedge,
    uce,
)
from rograd.degsums import degenerate_sums_bruteforce
from rograd.jordan import albert_algebra, hermitian_algebra, rectangular_pair
from rograd.lie import GradedLieAlgebra, sl_algebra, tkk, uider
from rograd.linalg import (
    FinitelyPresentedModule,
    ModuleShape,
    SparseMatrix,
    kernel_basis,
    module_invariants,
    span,
)
from rograd.rings import GF, QQ, ZZ
from rograd.roots import build
from snf_reference import integer_kernel, integer_solver
from uider_reference import UIDerReference


@pytest.fixture(scope="module")
def Dz():
    return matrix_algebra(1, ZZ)


class TestHomologyQuotients:
    def test_d3_of_z(self, Dz):
        assert d3(Dz).module == ModuleShape(0, (3,))

    def test_d2_of_z(self, Dz):
        assert d2(Dz).module == ModuleShape(0, (2,))

    def test_d2_of_f2(self):
        D = matrix_algebra(1, GF(2))
        assert d2(D).module == ModuleShape(1)  # 2D = 0 and [D,D] = 0 in F_2

    def test_angle_octonions_dim_14(self):
        O = split_octonions(QQ)
        assert angle(O).module == ModuleShape(14)

    def test_hc1_z_trivial(self, Dz):
        assert hc1(Dz).module.is_trivial

    def test_tilde_wedge_z(self, Dz):
        # over Z: tensor part dies (2 and 3 torsion meet), two copies remain
        shape = tilde_wedge(Dz).module
        assert shape == ModuleShape(2)

    def test_d3_requires_alternative(self):
        from rograd.algebras import StructureAlgebra

        A = StructureAlgebra(QQ, ["a", "b"], {(0, 0): {1: 1}, (0, 1): {1: 1}})
        with pytest.raises(ValueError):
            d3(A)

    def test_octonion_angle_kernel_zero(self):
        O = split_octonions(QQ)
        assert octonion_angle_kernel(O) == (14, 14, 0)


def _truncated(k, ring):
    """R[x]/(x^k) on the basis 1, x, ..., x^(k-1)."""
    mult = {(i, j): {i + j: 1} for i in range(k) for j in range(k) if i + j < k}
    return StructureAlgebra(ring, [f"x^{i}" for i in range(k)], mult, unit={0: 1})


def _cyclic_group(k, ring):
    """The group algebra R[C_k] on the basis g^0, ..., g^(k-1)."""
    mult = {(i, j): {(i + j) % k: 1} for i in range(k) for j in range(k)}
    return StructureAlgebra(ring, [f"g^{i}" for i in range(k)], mult, unit={0: 1})


def _m2(ring):
    """M_2(R) on the matrix units e_ij (basis index 2i + j): e_ij e_jk = e_ik."""
    mult = {(2 * i + j, 2 * j + k): {2 * i + k: 1} for i, j, k in product(range(2), repeat=3)}
    labels = ["e11", "e12", "e21", "e22"]
    return StructureAlgebra(ring, labels, mult, unit={0: 1, 3: 1})


HC1_ALGEBRAS = {
    "x2": lambda r: _truncated(2, r),
    "x3": lambda r: _truncated(3, r),
    "C2": lambda r: _cyclic_group(2, r),
    "C3": lambda r: _cyclic_group(3, r),
    "M2": _m2,
}
HC1_RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}
# the nonzero values, recorded on the earlier route (a kernel basis of the
# bracket map met with the relation lattice); every other case is 0
HC1_SHAPES = {
    ("Z", "x2"): ModuleShape(0, (2,)),
    ("Z", "x3"): ModuleShape(0, (6,)),
    ("Z", "C2"): ModuleShape(0, (2,)),
    ("Z", "C3"): ModuleShape(0, (3,)),
    ("F2", "x2"): ModuleShape(1),
    ("F2", "x3"): ModuleShape(1),
    ("F2", "C2"): ModuleShape(1),
    ("F3", "x3"): ModuleShape(1),
    ("F3", "C3"): ModuleShape(1),
}


def _hc1_oracle(D):
    """ker(u)/R by the oracle, for the bracket map u on D(x)D and the
    tilde-wedge relations R, which must live on the D(x)D columns."""
    n = D.dim
    rows = _tilde_relation_rows(D)
    assert all(c < n * n for row in rows for c, v in row.items() if v)
    u_cols = {}
    for i, j in product(range(n), repeat=2):
        c = D.commutator(D.basis_vec(i), D.basis_vec(j))
        if c:
            u_cols[i * n + j] = c
    return _subquotient_oracle(u_cols, n, rows, n * n, D.ring)


class TestHC1:
    @pytest.mark.parametrize("rname", sorted(HC1_RINGS))
    @pytest.mark.parametrize("aname", sorted(HC1_ALGEBRAS))
    def test_recorded_shapes(self, rname, aname):
        D = HC1_ALGEBRAS[aname](HC1_RINGS[rname])
        got = hc1(D)
        assert got.module == HC1_SHAPES.get((rname, aname), ModuleShape(0))
        assert got.module == _hc1_oracle(D)
        assert (got.kind, got.generators) == ("HC1", D.dim**2 + 2 * D.dim)


class TestUce:
    def test_requires_perfect(self):
        L = GradedLieAlgebra(QQ, ["a"], [(0,)], {})
        with pytest.raises(ValueError):
            uce(L)

    def test_sl3_q_centrally_closed(self):
        u = uce(sl_algebra(3, matrix_algebra(1, QQ)))
        assert u.total_kernel().is_trivial

    def test_sl3_z_blocks(self, Dz):
        u = uce(sl_algebra(3, Dz))
        rep = kernel_report(u, build("A", 2), "sl3(Z)")
        ds_blocks = {
            d: s
            for d, s in rep.by_degree.items()
            if rep.classification[d].startswith("degenerate_sum")
        }
        assert len(ds_blocks) == 6
        assert all(s == ModuleShape(0, (3,)) for s in ds_blocks.values())
        # root blocks bijective; degree-0 kernel trivial for D = Z
        assert rep.by_degree[(0, 0, 0)].is_trivial
        assert u.verify_perfect()

    def test_sl4_z_blocks(self, Dz):
        u = uce(sl_algebra(4, Dz))
        rep = kernel_report(u, build("A", 3), "sl4(Z)")
        ds_blocks = [
            s
            for d, s in rep.by_degree.items()
            if rep.classification[d].startswith("degenerate_sum")
        ]
        assert len(ds_blocks) == 6
        assert all(s == ModuleShape(0, (2,)) for s in ds_blocks)
        assert rep.by_degree[(0, 0, 0, 0)].is_trivial  # HC_1(Z) = 0

    def test_sl5_z_kernel_zero_degree_only(self, Dz):
        u = uce(sl_algebra(5, Dz))
        assert all(
            not any(d) for d in u.kernel_degrees()
        )  # support only in degree 0 (here: empty)

    def test_sl3_f3_has_fiber_kernel(self):
        D3f = matrix_algebra(1, GF(3))
        u = uce(sl_algebra(3, D3f))
        rep = kernel_report(u, build("A", 2), "sl3(F3)")
        ds = [
            s
            for d, s in rep.by_degree.items()
            if rep.classification[d].startswith("degenerate_sum")
        ]
        assert len(ds) == 6 and all(s == ModuleShape(1) for s in ds)

    def test_uce_tkk_m12q(self):
        V = rectangular_pair(1, 2, matrix_algebra(1, QQ))
        u = uce(tkk(V))
        assert u.total_kernel().is_trivial

    def test_report_json(self, Dz):
        u = uce(sl_algebra(3, Dz))
        rep = kernel_report(u, build("A", 2), "sl3(Z)")
        data = rep.to_json()
        assert data["algebra"] == "sl3(Z)"
        assert any(v["torsion"] == [3] for v in data["kernel"].values())

    @pytest.mark.parametrize(
        "n,d_dim,ring",
        [(n, 1, r) for n in (3, 4, 5, 6) for r in (ZZ, GF(2))] + [(3, 2, ZZ)],
        ids=lambda x: str(x),
    )
    def test_classification_equals_the_table_route(self, n, d_dim, ring):
        # kernel_report classifies each degree by root membership, expressing
        # pairs and divisor; the brute-force table must say the same
        R = build("A", n - 1)
        rep = kernel_report(uce(sl_algebra(n, matrix_algebra(d_dim, ring))), R)
        table = degenerate_sums_bruteforce(R)

        def by_table(d):
            if not any(d):
                return "zero_degree"
            if d in R.roots:
                return "root"
            (k,) = [k for k, vecs in table.by_divisor.items() if d in vecs]
            return f"degenerate_sum({k})"

        assert rep.classification
        assert rep.classification == {d: by_table(d) for d in rep.classification}

    def test_classification_rejects_a_degree_outside_the_table(self):
        u = uce(sl_algebra(3, matrix_algebra(1, ZZ)))
        d = next(d for d in u.blocks if any(d))
        u.blocks[(2, 0, -2)] = u.blocks[d]  # 2(e_1 - e_3): neither root nor sum
        with pytest.raises(AssertionError, match="neither root nor degenerate sum"):
            kernel_report(u, build("A", 2))


class TestCocycles:
    def test_a2_cocycle_z(self, Dz):
        L = sl_algebra(3, Dz)
        ext = cocycle_extension(L, "A2", Dz)
        assert ext.is_perfect()
        assert ext.compare_with_uce(uce(L))

    def test_a3_cocycle_z(self, Dz):
        L = sl_algebra(4, Dz)
        ext = cocycle_extension(L, "A3", Dz)
        assert ext.is_perfect()
        assert ext.compare_with_uce(uce(L))

    def test_cocycles_mod_p(self):
        for p in (2, 3):
            Dp = matrix_algebra(1, GF(p))
            cocycle_extension(sl_algebra(3, Dp), "A2", Dp)
            cocycle_extension(sl_algebra(4, Dp), "A3", Dp)

    def test_sign_map_alternating_on_pairs(self, Dz):
        ext = CocycleExtension(sl_algebra(3, Dz), "A2", Dz)
        for (a, b) in list(ext._pair_set)[:6]:
            assert ext.s_sign(a, b) == -ext.s_sign(b, a) != 0

    def test_wrong_model_rejected(self, Dz):
        L = sl_algebra(4, Dz)
        with pytest.raises(ValueError):
            cocycle_extension(L, "A2", Dz)


class TestStarKernel:
    def test_h4_q_identity_involution(self):
        D = matrix_algebra(1, QQ, involution="identity")
        J = hermitian_algebra(4, D)
        assert star_kernel(J).is_trivial  # includes the T(a,b) cross-check

    def test_h3_q(self):
        D = matrix_algebra(1, QQ, involution="identity")
        J = hermitian_algebra(3, D)
        assert star_kernel(J).is_trivial


class TestModularFieldPaths:
    def test_uce_over_f5_and_f7(self):
        # 1/2 and 1/3 invertible: kernels vanish like over Q
        u = uce(sl_algebra(3, matrix_algebra(1, GF(5))))
        assert u.total_kernel().is_trivial
        O7 = split_octonions(GF(7))
        V7 = rectangular_pair(1, 2, O7)
        u7 = uce(tkk(V7))
        assert u7.total_kernel().is_trivial


def _triple_rows_by_degree(L):
    """The nonzero rows x_i^[x_j,x_k] + x_j^[x_k,x_i] + x_k^[x_i,x_j] of all
    triples i < j < k, keyed by total degree, as {(a, b): coefficient} with
    a < b: a plain loop, independent of UceResult."""
    ring = L.ring
    by_degree = {}
    for i, j, k in combinations(range(L.dim), 3):
        row = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in L.bracket_basis(b, c).items():
                if t == a:
                    continue
                key, w = ((a, t), v) if a < t else ((t, a), ring.neg(v))
                total = ring.add(row.get(key, 0), w)
                if ring.is_zero(total):
                    row.pop(key, None)
                else:
                    row[key] = total
        if row:
            d = tuple(map(sum, zip(L.degrees[i], L.degrees[j], L.degrees[k])))
            by_degree.setdefault(d, []).append(row)
    return by_degree


class TestRelationRowOrder:
    """_relation_rows walks triples by their least index; that reorders the
    rows of a block but changes none of them."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sl_algebra(3, matrix_algebra(1, QQ)),
            lambda: tkk(
                hermitian_algebra(3, matrix_algebra(1, QQ, involution="identity")).pair()
            ),
            lambda: tkk(rectangular_pair(1, 2, split_octonions(GF(5)))),
        ],
        ids=["sl3-Q", "tkk-H3-Q", "tkk-oct-F5"],
    )
    def test_rows_are_the_triple_rows_reordered(self, make):
        L = make()
        u = uce(L)
        oracle = _triple_rows_by_degree(L)
        assert set(oracle) <= set(u._gen_blocks)
        for d, gens in u._gen_blocks.items():
            pos = {g: p for p, g in enumerate(gens)}
            got = sorted(tuple(sorted(r.items())) for r in u._relation_rows(d, gens))
            want = sorted(
                tuple(sorted((pos[g], v) for g, v in r.items())) for r in oracle.get(d, [])
            )
            assert got == want, d

    @pytest.mark.parametrize(
        "make, rows",
        [
            # 26,624 and 103,424 rows with the triples of L_0 first,
            # 16,384 and 30,720 with every degree block streamed, and 7,168
            # and 15,360 with all of degree 0 in 1,024-row batches.  Now
            # only the weight-0 part of degree 0 streams, in batches sized
            # to its bound: 45 on 51 generators (batches of 64) and 77 on
            # 84 (batches of 77, reached at row 138)
            (lambda: tkk(rectangular_pair(1, 2, split_octonions(QQ))), 128),
            (lambda: tkk(albert_algebra(QQ).pair()), 154),
        ],
        ids=["tkk-oct-Q", "tkk-albert-Q"],
    )
    def test_rows_pulled_by_the_rank_certificate(self, monkeypatch, make, rows):
        L = make()
        pulled = []
        certify = linalg.rank_certified

        def counting(rows_factory, *args):
            def counted():
                for row in rows_factory():
                    pulled.append(1)
                    yield row
            return certify(counted, *args)

        streamed = []  # the degree of every relation row built
        relation_rows = UceResult._relation_rows

        def recording(self, degree, gens):
            for row in relation_rows(self, degree, gens):
                streamed.append(degree)
                yield row

        monkeypatch.setattr(linalg, "rank_certified", counting)
        monkeypatch.setattr(UceResult, "_relation_rows", recording)
        assert uce(L).total_kernel().is_trivial
        assert len(pulled) == rows
        # the nonzero-degree blocks are certified by the grading weight
        assert set(streamed) == {(0,)}


def _subquotient_oracle(u_cols, tdim, rel_rows, m, ring=ZZ):
    """ker(u)/R the long way: a basis of ker u, then the relations written in
    that basis.  Over Z one solve per relation gives their coordinates, whose
    module normal form is the answer; over a field, dim ker u - rank R."""
    ent = {(t, p): v for p, col in u_cols.items() for t, v in col.items()}
    U = SparseMatrix(tdim, m, ent, ring)
    rels = [r for r in rel_rows if r]
    if ring.is_field:
        S = kernel_basis(U)
        sub, rel_span = span(ring, m), span(ring, m)
        for vec in S:
            sub.add(vec)
        for r in rels:
            assert sub.contains(r), "relation outside ker u"
            rel_span.add(r)
        return ModuleShape(len(S) - rel_span.rank)
    S = integer_kernel(U)
    if not S:
        assert not any(v for r in rels for v in r.values())
        return ModuleShape(0)
    cols = sorted({c for vec in S for c in vec})
    colpos = {c: i for i, c in enumerate(cols)}
    K = SparseMatrix(
        len(cols), len(S), {(colpos[c], j): v for j, vec in enumerate(S) for c, v in vec.items()}
    )
    solve = integer_solver(K)
    coords = []
    for r in rels:
        assert all(c in colpos for c, v in r.items() if v), "relation outside ker u"
        x = solve({colpos[c]: int(v) for c, v in r.items() if v})
        assert x is not None, "relation outside ker u"
        coords.append(x)
    R = SparseMatrix.from_rows(coords, len(S)) if coords else SparseMatrix(0, len(S), {})
    return module_invariants(FinitelyPresentedModule(ZZ, len(S), R))


class TestIntegerKernelFromCokernel:
    @pytest.mark.parametrize("n", [3, 4])
    def test_sl_z_blocks_match_subquotient_oracle(self, Dz, n):
        L = sl_algebra(n, Dz)
        u = uce(L)
        targets = L.degree_blocks()
        for d, gens in u._gen_blocks.items():
            target = targets.get(d, [])
            tpos = {b: p for p, b in enumerate(target)}
            u_cols = {}
            for p, (i, j) in enumerate(gens):
                col = {tpos[t]: v for t, v in L.bracket_basis(i, j).items()}
                if col:
                    u_cols[p] = col
            rels = list(u._relation_rows(d, gens))
            oracle = _subquotient_oracle(u_cols, len(target), rels, len(gens))
            assert u.blocks[d].kernel_shape == oracle, d

    @pytest.mark.parametrize("rows, cols", [(1, 2), (2, 2)])
    def test_uider_hc_z_matches_subquotient_oracle(self, Dz, rows, cols):
        V = rectangular_pair(rows, cols, Dz)
        W = UIDerReference(V)
        oracle = _subquotient_oracle(
            W.ud_columns, W.inner.dim, W.relation_rows(), W.gens
        )
        assert uider(V).hc() == oracle

    def test_corrupted_constant_raises(self, Dz):
        L = sl_algebra(3, Dz)
        bracket = {k: dict(v) for k, v in L.bracket.items()}
        (i, j), vec = next((k, v) for k, v in sorted(bracket.items()) if len(v) == 1)
        bracket[(i, j)] = {k: 2 * c for k, c in vec.items()}
        bad = GradedLieAlgebra(ZZ, L.labels, L.degrees, bracket, check=False)
        assert bad.is_perfect()  # so uce gets past its precondition
        with pytest.raises(AssertionError, match="relation outside ker u"):
            uce(bad)

    def test_sl4_m2_z_kernel_zero(self):
        u = uce(sl_algebra(4, matrix_algebra(2, ZZ)))
        rep = kernel_report(u, build("A", 3))
        assert all(s.is_trivial for s in rep.by_degree.values())
        assert u.total_kernel().is_trivial


def _hermitian_tkk(n, ring):
    return tkk(hermitian_algebra(n, matrix_algebra(1, ring, involution="identity")).pair())


def _oct_tkk(ring):
    return tkk(rectangular_pair(1, 2, split_octonions(ring)))


def _rect_tkk(n, ring):
    return tkk(rectangular_pair(1, n, matrix_algebra(1, ring)))


# model -> (blocks, blocks whose every generator is certified by a torus
# weight, generators in the computed weight sub-blocks)
WEIGHT_MODELS = {
    "sl3-Z": (lambda: sl_algebra(3, matrix_algebra(1, ZZ)), 13, 6, 10),
    "sl4-Z": (lambda: sl_algebra(4, matrix_algebra(1, ZZ)), 43, 36, 21),
    "sl5-Z": (lambda: sl_algebra(5, matrix_algebra(1, ZZ)), 111, 110, 16),
    "sl3-M2Z": (lambda: sl_algebra(3, matrix_algebra(2, ZZ)), 19, 18, 25),
    "tkk-oct-Q": (lambda: _oct_tkk(QQ), 5, 4, 51),
    # the grading element acts by 3 on V+ over Z, by 1 = 3 over F_2, and
    # by 0 = 3 over F_3; the rest of the torus decides degrees +-1 and +-2
    "tkk-oct-Z": (lambda: _oct_tkk(ZZ), 5, 4, 51),
    "tkk-oct-F2": (lambda: _oct_tkk(GF(2)), 5, 4, 51),
    "tkk-oct-F3": (lambda: _oct_tkk(GF(3)), 5, 4, 46),
    "tkk-oct-F5": (lambda: _oct_tkk(GF(5)), 5, 4, 51),
    "tkk-H3-Q": (lambda: _hermitian_tkk(3, QQ), 5, 4, 12),
    "tkk-H4-Q": (lambda: _hermitian_tkk(4, QQ), 5, 4, 22),
    "tkk-albert-Q": (lambda: tkk(albert_algebra(QQ).pair()), 5, 4, 84),
    "tkk-albert-F5": (lambda: tkk(albert_algebra(GF(5)).pair()), 5, 4, 84),
    # rograd uce --model tkk-rect --n 4 --ring Z: (Z/2)^3 at +-1, one Z/2
    # from each of three weight sub-blocks
    "tkk-rect4-Z": (lambda: _rect_tkk(3, ZZ), 5, 2, 21),
}


def _block_u_cols(L, gens, target):
    """The covering map u of one block, by its columns."""
    tpos = {b: p for p, b in enumerate(target)}
    u_cols = {}
    for p, (i, j) in enumerate(gens):
        col = {tpos[t]: v for t, v in L.bracket_basis(i, j).items()}
        if col:
            u_cols[p] = col
    return u_cols


def _acts_by(L, h, lam) -> bool:
    """Whether [h, e_b] = lam[b] e_b for every basis vector e_b, by
    bracket_vec."""
    ring = L.ring
    for b in range(L.dim):
        w = ring.coerce(lam[b])
        if L.bracket_vec(h, {b: ring.coerce(1)}) != ({b: w} if w else {}):
            return False
    return True


def _pair_weight(L, i, j):
    """The torus weight lambda_i + lambda_j of x_i ^ x_j, in the ring."""
    ring = L.ring
    return [ring.coerce(a + b) for a, b in zip(*(L.diagonal_torus()[1][k] for k in (i, j)))]


def _is_unit(ring, mu) -> bool:
    """Whether some h in the torus has h(mu) a unit: over Z, gcd(mu) = 1."""
    return gcd(*mu) == 1 if ring.kind == "Z" else any(mu)


class TestWeightCertificate:
    """A weight sub-block whose torus weight mu is a unit has kernel 0 and
    reads no relation row; every other sub-block is computed."""

    @pytest.mark.parametrize("name", sorted(WEIGHT_MODELS))
    def test_skipped_blocks_match_the_full_quotient(self, name):
        make, blocks, certified, computed = WEIGHT_MODELS[name]
        L = make()
        ring = L.ring
        u = uce(L)
        assert len(u.blocks) == blocks
        assert sum(b.certified == b.n_gens for b in u.blocks.values()) == certified
        assert sum(b.n_gens - b.certified for b in u.blocks.values()) == computed
        zero = tuple(0 for _ in L.degrees[0])
        assert u.blocks[zero].certified < u.blocks[zero].n_gens
        hs, lam = L.diagonal_torus()
        for k, h in enumerate(hs):
            assert all(not any(L.degrees[i]) for i in h)
            assert _acts_by(L, h, [w[k] for w in lam])
        targets = L.degree_blocks()
        for d, blk in u.blocks.items():
            gens, target = u._gen_blocks[d], targets.get(d, [])
            assert blk.certified == sum(_is_unit(ring, _pair_weight(L, i, j)) for i, j in gens)
            # every block, certified or computed in parts, against the
            # quotient by all of its relation rows
            got = linalg.quotient_shape(
                ring,
                lambda: u._relation_rows(d, gens),
                len(gens),
                _block_u_cols(L, gens, target),
                len(target),
            )
            assert (blk.uce_shape, blk.kernel_shape) == got, d

    @pytest.mark.parametrize(
        "make, rank",
        [
            (lambda: _oct_tkk(QQ), 6),
            (lambda: _oct_tkk(ZZ), 6),
            (lambda: _oct_tkk(GF(5)), 6),
            (lambda: _oct_tkk(GF(3)), 5),
            (lambda: tkk(albert_algebra(QQ).pair()), 7),
            (lambda: _hermitian_tkk(4, QQ), 4),
            (lambda: sl_algebra(3, matrix_algebra(1, ZZ)), 2),
            (lambda: sl_algebra(4, matrix_algebra(1, ZZ)), 3),
            (lambda: sl_algebra(5, matrix_algebra(1, ZZ)), 4),
            (lambda: sl_algebra(3, matrix_algebra(2, ZZ)), 5),
        ],
        ids=["oct-Q", "oct-Z", "oct-F5", "oct-F3", "albert-Q", "H4-Q", "sl3-Z", "sl4-Z", "sl5-Z", "sl3-M2Z"],
    )
    def test_torus_rank(self, make, rank):
        assert len(make().diagonal_torus()[0]) == rank

    @pytest.mark.parametrize(
        "make, kernels",
        [
            (lambda: sl_algebra(4, matrix_algebra(1, GF(2))), 6),
            (lambda: sl_algebra(3, matrix_algebra(1, GF(3))), 6),
            (lambda: _oct_tkk(GF(3)), 1),
        ],
        ids=["sl4-F2", "sl3-F3", "tkk-oct-F3"],
    )
    def test_weights_vanishing_mod_p_leave_the_kernels(self, make, kernels):
        u = uce(make())
        nonzero = [b for b in u.blocks.values() if not b.kernel_shape.is_trivial]
        assert len(nonzero) == kernels
        assert all(b.certified < b.n_gens and b.kernel_shape == ModuleShape(1) for b in nonzero)

    def test_unchecked_algebra_skips_nothing(self):
        L = sl_algebra(4, matrix_algebra(1, QQ))
        bare = GradedLieAlgebra(L.ring, L.labels, L.degrees, L.bracket, check=False)
        assert bare.jacobi_ok is None
        u, checked = uce(bare), uce(L)
        assert all(b.certified == 0 for b in u.blocks.values())
        assert sum(b.certified == b.n_gens for b in checked.blocks.values()) == 42
        for d, blk in u.blocks.items():
            assert (blk.uce_shape, blk.kernel_shape) == (
                checked.blocks[d].uce_shape,
                checked.blocks[d].kernel_shape,
            )

    def test_sl3_z_torsion_sits_where_the_gcd_is_3(self, Dz):
        L = sl_algebra(3, Dz)
        u = uce(L)
        g = {
            d: gcd(*(c for i, j in u._gen_blocks[d] for c in _pair_weight(L, i, j)))
            for d in u.blocks
        }
        assert sorted(g.values()) == [0] + [1] * 6 + [3] * 6
        for d, blk in u.blocks.items():
            assert (blk.certified == blk.n_gens) == (g[d] == 1), d
            assert blk.kernel_shape == (ModuleShape(0, (3,)) if g[d] == 3 else ModuleShape(0)), d

    def test_kernel_not_killed_by_the_weight_raises(self, monkeypatch, Dz):
        process = UceResult._process_block

        def wrong(self, degree, gens, target):
            blk = process(self, degree, gens, target)
            if blk.kernel_shape.torsion:
                blk.kernel_shape = ModuleShape(0, (9,))
            return blk

        monkeypatch.setattr(UceResult, "_process_block", wrong)
        with pytest.raises(AssertionError, match="not killed by its weight gcd 3"):
            uce(sl_algebra(3, Dz))

    @pytest.mark.parametrize(
        "make, computed",
        [(lambda: tkk(albert_algebra(QQ).pair()), 84), (lambda: _oct_tkk(QQ), 51)],
        ids=["albert-Q", "oct-Q"],
    )
    def test_only_the_weight_zero_part_of_degree_0_is_computed(self, make, computed):
        L = make()
        u = uce(L)
        zero = u.blocks[(0,)]
        assert zero.n_gens - zero.certified == computed
        assert all(b.certified == b.n_gens for d, b in u.blocks.items() if d != (0,))
        weight_zero = [g for g in u._gen_blocks[(0,)] if not any(_pair_weight(L, *g))]
        assert len(weight_zero) == computed

    def test_torus_is_diagonal_on_every_basis_vector(self):
        L = tkk(albert_algebra(QQ).pair())
        hs, lam = L.diagonal_torus()
        assert len(hs) == 7
        assert all(_acts_by(L, h, [w[k] for w in lam]) for k, h in enumerate(hs))
        # corrupt [z, e_t] for a z in the support of h and a t outside
        # generators(): the equations on the generators still hold, so the
        # torus rests on the check of ad h on every basis vector
        gens = set(L.generators())
        z = min(hs[0])
        t = next(t for t in range(L.dim) if t not in gens and L.bracket_basis(z, t))
        key = (min(z, t), max(z, t))
        other = next(
            s for s in range(L.dim) if L.degrees[s] == L.degrees[t] and s not in L.bracket[key]
        )
        doubled = {k: 2 * v for k, v in L.bracket[key].items()}
        # doubled, ad z stays diagonal; with an e_other term it does not
        for vec, rank in ((doubled, 7), ({**doubled, other: 1}, 6)):
            bad = GradedLieAlgebra(QQ, L.labels, L.degrees, {**L.bracket, key: vec}, check=False)
            assert bad.generators() == L.generators()
            bad_hs, bad_lam = bad.diagonal_torus()
            assert all(_acts_by(bad, h, [w[k] for w in bad_lam]) for k, h in enumerate(bad_hs))
            assert len(bad_hs) == rank


class TestModuleShapeSum:
    def test_torsion_merges_into_invariant_factors(self):
        two, three = ModuleShape(0, (2,)), ModuleShape(0, (3,))
        assert two + three == ModuleShape(0, (6,))
        assert two + two == ModuleShape(0, (2, 2))
        assert ModuleShape(1, (2, 4)) + ModuleShape(2, (6,)) == ModuleShape(3, (2, 2, 12))
        assert sum([two, two, two], ModuleShape(0)) == ModuleShape(0, (2, 2, 2))
