import re

import pytest

from rograd.algebras import matrix_algebra, split_octonions
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


class TestStarModule:
    def test_one_star_anything_vanishes(self, DQ):
        J = hermitian_algebra(3, DQ)
        S = star_module(J)
        for i in range(J.dim):
            vec = S.star_vec(J.unit, J.basis_vec(i))
            assert S.relation_echelon() is not None
            residual, _ = S.relation_echelon().reduce(
                {k: int(v) for k, v in vec.items()}
            )
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
