import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from rograd import lie
from rograd.algebras import StructureAlgebra, matrix_algebra, split_octonions
from rograd.jordan import (
    hermitian_algebra,
    hermitian_grid,
    peirce,
    rectangular_grid,
    rectangular_pair,
)
from rograd.lie import (
    GradedLieAlgebra,
    assign_root_grading,
    ider,
    instr,
    sl_algebra,
    star_module,
    structural_predicates,
    tkk,
    uider,
    utkk,
)
from rograd.rings import GF, QQ, ZZ
from rograd.roots import build, three_grading
from test_algebras import incidence_algebras


@pytest.fixture(scope="module")
def DQ():
    return matrix_algebra(1, QQ, involution="identity")


@pytest.fixture(scope="module")
def M12(DQ):
    return rectangular_pair(1, 2, DQ)


class TestInstrAndTKK:
    def test_instr_m12(self, M12):
        assert instr(M12).dim == 4

    def test_instr_zero_pair(self, DQ):
        # zero-dimensional pair: instr is the zero algebra
        from rograd.jordan import JordanPair

        V = JordanPair(QQ, {1: 0, -1: 0}, {1: [], -1: []}, {1: [], -1: []}, {1: {}, -1: {}})
        assert instr(V).dim == 0

    def test_tkk_m12_is_sl3_shaped(self, M12):
        L = tkk(M12)
        assert L.dim == 8
        preds = structural_predicates(L)
        assert preds["is_perfect"]
        assert preds["centre_basis"] == []
        assert preds["jacobi_ok"]

    def test_tkk_degree_structure(self, M12):
        L = tkk(M12)
        blocks = L.degree_blocks()
        assert len(blocks[(1,)]) == 2 and len(blocks[(-1,)]) == 2
        assert len(blocks[(0,)]) == 4

    def test_bracket_degree_additivity(self, M12):
        L = tkk(M12)
        for (i, j), vec in L.bracket.items():
            want = (L.degrees[i][0] + L.degrees[j][0],)
            for k in vec:
                assert L.degrees[k] == want

    def test_closure_check_fires_on_non_jordan_pair(self):
        # random sign tensors on a 2+2 pair: not a Jordan pair, and the
        # delta span is not closed under brackets
        import random

        from rograd.jordan import JordanPair

        rng = random.Random(0)

        def op():
            return {
                j: {r: rng.choice((-1, 1)) for r in rng.sample(range(2), rng.randint(1, 2))}
                for j in range(2)
                if rng.random() < 0.7
            }

        Qdiag = {s: [op(), op()] for s in (1, -1)}
        Qlin = {s: {(0, 1): op()} for s in (1, -1)}
        V = JordanPair(QQ, {1: 2, -1: 2}, {1: ["a", "b"], -1: ["a", "b"]}, Qdiag, Qlin)
        with pytest.raises(AssertionError, match=re.escape("instr(V) is not bracket-closed")):
            tkk(V)
        with pytest.raises(AssertionError, match="operator span is not bracket-closed"):
            instr(V)


class TestUIDer:
    def test_hc_trivial_m12(self, M12):
        assert uider(M12).hc().is_trivial

    def test_ud_action_matches_triple(self, M12):
        # ud(x<>y) z = {x y z} on V+ basis elements
        U = uider(M12)
        V = M12
        one = QQ.coerce(1)
        for i in range(V.dim(1)):
            for j in range(V.dim(-1)):
                op = U.inner.basis  # basis ops act on V+ (+) V-
                from rograd.lie import _delta_block_op
                from rograd.linalg import _op_apply

                delta = _delta_block_op(V, {i: one}, {j: one})
                for k in range(V.dim(1)):
                    got = _op_apply(QQ, delta, {k: one})
                    want = V.triple(1, {i: one}, {j: one}, {k: one})
                    assert {p: v for p, v in got.items() if p < V.dim(1)} == want

    def test_utkk_kernel_and_parts(self, M12):
        U = utkk(M12)
        assert U.kernel_shape.is_trivial
        assert U.degree_part_dims() == {1: 2, -1: 2}

    def test_hc_over_z(self):
        Dz = matrix_algebra(1, ZZ)
        V = rectangular_pair(1, 2, Dz)
        assert uider(V).hc().is_trivial


class TestSL:
    def test_sl3_q(self):
        L = sl_algebra(3, matrix_algebra(1, QQ))
        assert L.dim == 8
        assert L.is_perfect()
        assert L.centre_basis() == []

    def test_sl3_f3_centre(self):
        L = sl_algebra(3, matrix_algebra(1, GF(3)))
        assert len(L.centre_basis()) == 1

    def test_sl3_bracket_rule(self):
        L = sl_algebra(3, matrix_algebra(1, ZZ))
        # [E12, E23] = E13: find basis indices by degree
        blocks = L.degree_blocks()
        i12 = blocks[(1, -1, 0)][0]
        i23 = blocks[(0, 1, -1)][0]
        i13 = blocks[(1, 0, -1)][0]
        out = L.bracket_basis(i12, i23)
        assert out == {i13: 1}

    def test_sl_requires_associative(self):
        with pytest.raises(ValueError):
            sl_algebra(3, split_octonions(QQ))

    def test_sl_A_grading_support(self):
        L = sl_algebra(4, matrix_algebra(1, ZZ))
        R = build("A", 3)
        assert set(L.support()) <= set(map(tuple, R.roots))

    @pytest.mark.parametrize(
        "ring, n, corrupt",
        [
            (ZZ, 1, "double"),
            (ZZ, 2, "double"),
            (QQ, 1, "bump"),
            (GF(5), 1, "bump"),
            (ZZ, 1, "extra"),
        ],
        ids=["Z-M1-double", "Z-M2-double", "Q-M1-bump", "F5-M1-bump", "Z-M1-extra"],
    )
    def test_corrupted_degree_zero_row_rejected(self, monkeypatch, ring, n, corrupt):
        """The degree-0 check compares spans both ways: a doubled row spans
        a smaller lattice over Z, a lead bumped by 1 leaves the trace-zero
        part over a field without changing the dimension, and an extra row
        E_11 1 spans more than the trace-zero part."""
        real = lie._verify_sl_zero_part

        def check_corrupted(L, D, k_size, amb_idx, rows, ring_):
            rows = [dict(r) for r in rows]
            degrees = list(L.degrees)
            zero = next(p for p, deg in enumerate(degrees) if not any(deg))
            row = rows[zero]
            if corrupt == "double":
                row.update({c: 2 * v for c, v in row.items()})
            elif corrupt == "bump":
                row[min(row)] += 1
            else:
                rows.append({amb_idx(0, 0, 0): 1})
                degrees.append(degrees[zero])
            real(SimpleNamespace(degrees=degrees), D, k_size, amb_idx, rows, ring_)

        monkeypatch.setattr(lie, "_verify_sl_zero_part", check_corrupted)
        with pytest.raises(AssertionError, match="sl_K degree-0 part mismatch"):
            sl_algebra(3, matrix_algebra(n, ring))


class TestStarModule:
    def test_one_star_anything_vanishes(self, DQ):
        J = hermitian_algebra(3, DQ)
        S = star_module(J)
        for i in range(J.dim):
            vec = S.star_vec(J.unit, J.basis_vec(i))
            assert S.relation_echelon() is not None
            residual = S.relation_echelon().reduce({k: int(v) for k, v in vec.items()})
            assert not residual  # 1 * a = 0 in J*J

    def test_bracket_formula_on_peirce(self, DQ):
        # [e_i * x_ij, e_i * y_ij] = -1/2 (x_ij * y_ij)
        from fractions import Fraction

        J = hermitian_algebra(4, DQ)
        S = star_module(J)
        es = [J.basis_vec(i) for i in range(4)]
        dec = peirce(J, es)
        x = dec.spaces[(1, 2)][0]
        y = dec.spaces[(1, 2)][0]
        # need two distinct elements; J_12 is 1-dim here, so scale
        y = {k: 3 * v for k, v in x.items()}
        lhs = S.bracket(S.star_vec(es[0], x), S.star_vec(es[0], y))
        rhs = S.star_vec(x, y)
        rhs = {k: Fraction(-1, 2) * v for k, v in rhs.items()}
        assert S.same_class(lhs, rhs)

    def test_h4_kernel_trivial(self, DQ):
        J = hermitian_algebra(4, DQ)
        dim, hc = star_module(J).dim_and_kernel()
        assert hc.is_trivial
        assert dim == ider(J).dim

    def test_ider_small(self):
        # 1-dimensional Jordan algebra: no inner derivations
        from rograd.jordan import JordanAlgebra

        J = JordanAlgebra(QQ, ["e"], {(0, 0): {0: 2}}, {0: 1})
        assert ider(J).dim == 0


class TestRootGrading:
    def test_a2_grading_of_tkk(self, M12, DQ):
        g = three_grading(build("A", 2), "collinear")
        fam = rectangular_grid(1, 2, DQ)
        L = tkk(M12)
        G = assign_root_grading(L, fam, g)
        blocks = G.degree_blocks()
        nonzero = {d: len(v) for d, v in blocks.items() if any(d)}
        assert set(nonzero.values()) == {1} and len(nonzero) == 6
        assert len(blocks[(0, 0, 0)]) == 2

    def test_a3_grading_dim15(self, DQ):
        V = rectangular_pair(1, 3, DQ)
        g = three_grading(build("A", 3), "collinear")
        fam = rectangular_grid(1, 3, DQ)
        G = assign_root_grading(tkk(V), fam, g)
        assert G.dim == 15
        R = build("A", 3)
        assert set(G.support()) == set(map(tuple, R.roots))

    def test_c4_grading(self, DQ):
        J = hermitian_algebra(4, DQ)
        G = assign_root_grading(
            tkk(J.pair()), hermitian_grid(J), three_grading(build("C", 4), "hermitian")
        )
        assert set(G.support()) == set(map(tuple, build("C", 4).roots))


class TestPredicates:
    def test_abelian_not_perfect(self):
        L = GradedLieAlgebra(QQ, ["a", "b"], [(0,), (0,)], {})
        preds = structural_predicates(L)
        assert not preds["is_perfect"]
        assert len(preds["centre_basis"]) == 2

    def test_jacobi_failure_detected(self):
        # "bracket" with [a,b] = c, [a,c] = b violates Jacobi? construct a
        # genuinely broken tensor: [a,b] = a is not antisymmetric-compatible
        with pytest.raises(AssertionError):
            GradedLieAlgebra(
                QQ,
                ["a", "b", "c"],
                [(0,), (0,), (0,)],
                {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}},
            )

    def test_report_text(self, M12):
        L = tkk(M12)
        text = L.report()
        assert "dim 8" in text and "perfect: True" in text

    def test_json_round(self, M12):
        L = tkk(M12)
        data = L.to_json()
        assert data["dim"] == 8 and len(data["degrees"]) == 8


def _dense_jacobi_failures(L):
    """Sorted basis triples on which Jacobi fails, by the dense check
    ad[e_i, e_j] = [ad e_i, ad e_j] applied to every e_l, in Fractions."""
    from fractions import Fraction

    n, p = L.dim, L.ring.characteristic
    br = {(i, j): L.bracket_basis(i, j) for i in range(n) for j in range(n)}
    bad = set()
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                out = {}  # [[e_i,e_j],e_l] - [e_i,[e_j,e_l]] + [e_j,[e_i,e_l]]
                for a, b, c, sign in ((i, j, l, 1), (j, l, i, 1), (i, l, j, -1)):
                    for t, x in br[a, b].items():
                        for s, y in br[t, c].items():
                            out[s] = out.get(s, 0) + sign * Fraction(x) * y
                if any(v % p if p else v for v in out.values()):
                    bad.add(tuple(sorted((i, j, l))))
    return bad


def _jacobi_model(name):
    from rograd.jordan import hermitian_algebra

    if name == "sl3-Q":
        return sl_algebra(3, matrix_algebra(1, QQ))
    if name == "tkk-H3-Q":
        return tkk(hermitian_algebra(3, matrix_algebra(1, QQ, involution="identity")).pair())
    if name == "tkk-M12-F5":
        return tkk(rectangular_pair(1, 2, matrix_algebra(1, GF(5))))
    return sl_algebra(3, matrix_algebra(1, GF(2**61 - 1)))


class TestSparseJacobi:
    TRIPLE = re.compile(r"Jacobi identity fails on basis triple \((\d+), (\d+), (\d+)\)")

    def _named_triple(self, L):
        """None when verify_jacobi accepts L, else the triple it names."""
        try:
            L.verify_jacobi()
        except AssertionError as exc:
            m = self.TRIPLE.fullmatch(str(exc))
            assert m, str(exc)
            return tuple(int(g) for g in m.groups())
        assert L.jacobi_ok
        return None

    @pytest.mark.parametrize("name", ("sl3-Q", "tkk-H3-Q", "tkk-M12-F5", "sl3-F(2^61-1)"))
    def test_agrees_with_dense_check_on_corruptions(self, name):
        import random

        L = _jacobi_model(name)
        assert self._named_triple(L) is None
        ring, n = L.ring, L.dim
        rng = random.Random(f"jacobi-{name}")
        raised = 0
        for _ in range(50):
            bracket = {key: dict(vec) for key, vec in L.bracket.items()}
            i, j = sorted(rng.sample(range(n), 2))
            k = rng.randrange(n)
            vec = bracket.setdefault((i, j), {})
            vec[k] = ring.add(vec.get(k, 0), ring.coerce(rng.choice((-2, -1, 1, 2))))
            bad = GradedLieAlgebra(ring, L.labels, L.degrees, bracket, check=False)
            named = self._named_triple(bad)
            failures = _dense_jacobi_failures(bad)
            if failures:
                assert named in failures
                raised += 1
            else:
                assert named is None
        assert raised

    @pytest.mark.parametrize("d", (0, 3))
    @pytest.mark.parametrize("r", (0, 1, 2))
    def test_single_rotation_violation_caught(self, d, r):
        # [e_x, e_y] = e_d and [e_d, e_z] = e_d, nothing else: of the three
        # cyclic terms of J(e_x, e_y, e_z) only [[e_x, e_y], e_z] is nonzero,
        # and every triple containing d satisfies Jacobi.  r places z first,
        # middle or last among x, y, z.
        others = [t for t in range(4) if t != d]
        z = others.pop(r)
        x, y = others
        bracket = {(x, y): {d: 1}, tuple(sorted((d, z))): {d: 1 if d < z else -1}}
        L = GradedLieAlgebra(QQ, list("abcd"), [(0,)] * 4, bracket, check=False)
        want = tuple(sorted((x, y, z)))
        assert _dense_jacobi_failures(L) == {want}
        assert self._named_triple(L) == want


def _sl2_sum(ring, corrupt=False):
    """sl_2 (+) sl_2 with the second summand in degree 0: e, h, f of degrees
    1, 0, -1, then e', h', f' all of degree 0.  corrupt sets [e', f'] =
    h' + e', which breaks Jacobi inside the degree-0 summand."""
    bracket = {}
    for o in (0, 3):
        bracket[(o, o + 1)] = {o: -2}  # [e, h] = -2e
        bracket[(o, o + 2)] = {o + 1: 1}  # [e, f] = h
        bracket[(o + 1, o + 2)] = {o + 2: -2}  # [h, f] = -2f
    if corrupt:
        bracket[(3, 5)] = {4: 1, 3: 1}
    degrees = [(1,), (0,), (-1,)] + [(0,)] * 3
    return GradedLieAlgebra(ring, list("ehfEHF"), degrees, bracket, check=False)


class TestGeneratingSetJacobi:
    """verify_jacobi evaluates only the triples that meet generators()."""

    TRIPLE = TestSparseJacobi.TRIPLE

    @pytest.mark.parametrize("name", ("tkk-H3-Q", "tkk-M12-F5"))
    def test_degree_zero_corruption_caught(self, name):
        # no triple of degree-0 indices meets generators(), which holds
        # indices of nonzero degree only: a broken [T_a, T_b] must still be
        # found through the triples that do
        L = _jacobi_model(name)
        ring = L.ring
        zero = [i for i, d in enumerate(L.degrees) if not any(d)]
        pairs = [(a, b) for (a, b) in sorted(L.bracket) if a in zero and b in zero]
        assert pairs
        for a, b in pairs[:6]:
            bracket = {key: dict(vec) for key, vec in L.bracket.items()}
            vec = bracket[(a, b)]
            k = min(vec)
            vec[k] = ring.add(vec[k], ring.coerce(1))
            bad = GradedLieAlgebra(ring, L.labels, L.degrees, bracket, check=False)
            gens = bad.generators()
            assert gens is not None and a not in gens and b not in gens
            failures = _dense_jacobi_failures(bad)
            assert failures
            with pytest.raises(AssertionError) as exc:
                bad.verify_jacobi()
            m = self.TRIPLE.fullmatch(str(exc.value))
            assert m and tuple(int(g) for g in m.groups()) in failures

    def test_non_generating_degrees_take_the_full_check(self):
        good = _sl2_sum(QQ)
        assert good.generators() is None
        good.verify_jacobi()
        assert good.jacobi_ok
        bad = _sl2_sum(QQ, corrupt=True)
        assert bad.generators() is None
        failures = _dense_jacobi_failures(bad)
        assert failures and all(min(t) >= 3 for t in failures)
        with pytest.raises(AssertionError) as exc:
            bad.verify_jacobi()
        m = self.TRIPLE.fullmatch(str(exc.value))
        assert m and tuple(int(g) for g in m.groups()) in failures

    def test_generators_span_the_lattice(self):
        # over Z the words in generators() span Z^dim; a bracket scaled by 2
        # spans an index-2^k sublattice, so no generating set is claimed
        L = sl_algebra(3, matrix_algebra(1, ZZ))
        assert L.generators() is not None
        bracket = {key: {k: 2 * v for k, v in vec.items()} for key, vec in L.bracket.items()}
        doubled = GradedLieAlgebra(ZZ, L.labels, L.degrees, bracket)
        assert doubled.generators() is None and doubled.jacobi_ok

    @pytest.mark.parametrize(
        "name, reduced, full",
        [("albert", 7_704, 49_888), ("oct", 2_733, 13_018)],
    )
    def test_jacobiator_evaluations(self, monkeypatch, name, reduced, full):
        # tkk evaluates only the (x+, T, y-) triples that meet generators();
        # the generic check on the same bracket keeps its full count
        from rograd.jordan import albert_algebra

        if name == "albert":
            V = albert_algebra(QQ).pair()
        else:
            V = rectangular_pair(1, 2, split_octonions(QQ))
        calls = []
        real = lie._jacobiator

        def counted(*args):
            calls.append(args[1:4])
            return real(*args)

        monkeypatch.setattr(lie, "_jacobiator", counted)
        L = tkk(V)
        assert len(L.generators()) == 15
        assert len(calls) == reduced
        gens = set(L.generators())
        if name == "oct":
            # exactly the (x+, T, y-) triples that meet generators() and
            # have a cyclic term that can be nonzero, each once, by a plain
            # loop over them
            ad = lie._integral_ad(L)
            n, k = L.n_plus, L.inner.dim
            want = []
            for x in range(n):
                for t in range(n, n + k):
                    for y in range(n + k, L.dim):
                        if gens.intersection((x, y)) and any(
                            lie._reaches(ad, a, b, c)
                            for a, b, c in ((x, t, y), (t, y, x), (y, x, t))
                        ):
                            want.append((x, t, y))
            assert sorted(tuple(sorted(t)) for t in calls) == want
        calls.clear()
        monkeypatch.setattr(lie, "_generating_set", lambda L, ad: None)
        GradedLieAlgebra(QQ, L.labels, L.degrees, L.bracket)
        assert len(calls) == full


class TestCentreOnGenerators:
    @pytest.mark.parametrize(
        "ring, model",
        [
            (QQ, "split"),
            (ZZ, "split"),
            (GF(5), "split"),
            (GF(5), "sl5"),
            (GF(3), "sl3"),
            (ZZ, "heisenberg"),
        ],
        ids=["Q-split", "Z-split", "F5-split", "F5-sl5", "F3-sl3", "Z-heisenberg"],
    )
    def test_nontrivial_centre_matches_full_route(self, ring, model):
        if model == "split":
            # sl_3 (+) R z, z central and of a root's degree, so that
            # generators() can pick it
            S = sl_algebra(3, matrix_algebra(1, ring))
            degrees = S.degrees + [S.degrees[0]]
            L = GradedLieAlgebra(ring, S.labels + ["z"], degrees, S.bracket, check=False)
        elif model == "heisenberg":
            L = GradedLieAlgebra(ring, "xzy", [(1,), (0,), (-1,)], {(0, 2): {1: 1}}, check=False)
        else:
            L = sl_algebra(int(model[2:]), matrix_algebra(1, ring))
        full = GradedLieAlgebra(ring, L.labels, L.degrees, L.bracket, check=False)
        L.verify_jacobi()
        assert L.generators() is not None
        assert full.jacobi_ok is None
        want = full.centre_basis()
        assert len(want) == 1
        assert L.centre_basis() == want

    def test_unchecked_algebra_takes_the_full_route(self, monkeypatch, M12):
        rows = []
        real = lie.rank_certified

        def recorded(factory, ncols, bound, ring):
            rows.append(sum(1 for _ in factory()))
            return real(factory, ncols, bound, ring)

        monkeypatch.setattr(lie, "rank_certified", recorded)
        L = lie._tkk(M12)  # Jacobi checked, centre not yet computed (cached)
        unchecked = GradedLieAlgebra(QQ, L.labels, L.degrees, L.bracket, check=False)
        rows.clear()
        assert L.centre_basis() == []
        assert unchecked.centre_basis() == []
        assert rows[0] < rows[1]
        monkeypatch.setattr(
            GradedLieAlgebra, "generators", lambda self: pytest.fail("generators() called")
        )
        assert unchecked.centre_basis() == []


def _generic(L):
    """The same bracket through the generic check (every triple that meets
    generators())."""
    return GradedLieAlgebra(L.ring, L.labels, L.degrees, L.bracket)


class TestJacobiByConstruction:
    """tkk and sl_algebra take part of Jacobi from their construction; the
    generic check must accept their brackets too."""

    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("model", ["albert", "M12O", "H4"])
    def test_generic_check_passes_on_tkk(self, model, ring):
        from rograd.jordan import albert_algebra

        if model == "albert":
            V = albert_algebra(ring).pair()
        elif model == "M12O":
            V = rectangular_pair(1, 2, split_octonions(ring))
        else:
            V = hermitian_algebra(4, matrix_algebra(1, ring, involution="identity")).pair()
        L = lie._tkk(V)
        assert L.jacobi_ok and L.jacobi_certificate == "operator-span"
        full = _generic(L)
        assert full.jacobi_ok and full.jacobi_certificate == "generators"

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=["Z", "Q", "F2", "F5"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_generic_check_passes_on_sl(self, size, ring):
        L = sl_algebra(3, matrix_algebra(size, ring))
        assert L.jacobi_ok and L.jacobi_certificate == "associative-ambient"
        assert _generic(L).jacobi_ok

    @settings(max_examples=8, deadline=None)
    @given(D=incidence_algebras())
    def test_generic_check_passes_on_sl_of_incidence_algebras(self, D):
        L = sl_algebra(3, D)
        assert L.jacobi_certificate == "associative-ambient"
        assert _generic(L).jacobi_ok

    def test_unscanned_coefficients_refused(self):
        # a D built without its law checks carries no associative flag, so
        # the commutator argument has nothing to stand on
        D = matrix_algebra(2, QQ)
        bare = StructureAlgebra(QQ, D.labels, D.mult, unit=D.unit, check=False)
        with pytest.raises(ValueError, match="associative"):
            sl_algebra(3, bare)

    def test_certificate_without_generators(self):
        L = _sl2_sum(QQ)
        assert L.jacobi_certificate is None
        L.verify_jacobi()
        assert L.jacobi_certificate == "all-triples"
