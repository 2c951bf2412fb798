"""Cross-cutting checks: uider gradings against the uce-side oracles,
JSON round trips, instance-level base-change dimension equalities, and a
few hypothesis properties on root systems."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rograd.algebras import StructureAlgebra, matrix_algebra, split_octonions
from rograd.centext import tilde_wedge
from rograd.jordan import JordanPair, albert_algebra, hermitian_algebra, rectangular_pair
from rograd.lie import GradedLieAlgebra, ider, instr, sl_algebra, tkk, uider
from rograd.rings import GF, QQ
from rograd.roots import RootSystem, Weight, build
from uider_reference import UIDerReference


class TestUIDerGrading:
    def test_zero_block_matches_tilde_wedge(self):
        # the degree-0 part of uider(M(1,2,D)) has the tilde-wedge dimension
        for D in (matrix_algebra(1, QQ), split_octonions(QQ)):
            V = rectangular_pair(1, 2, D)
            U = uider(V)
            dims = U.degree_dims()
            assert dims[(0, 0, 0)] == tilde_wedge(D).module.free_rank
            assert sum(dims.values()) == U.dim_over_field()

    def test_ud_graded(self):
        # gen degree alpha - beta matches the instr component of delta
        V = rectangular_pair(1, 3, matrix_algebra(1, QQ))
        U = uider(V)
        assert UIDerReference(V).gen_degrees is not None
        # root spaces of uider support lie in (R_1 - R_1)
        R = build("A", 3)
        for d in U.degree_dims():
            if any(d):
                assert R.is_root(d)

    def test_hermitian_pair_degrees(self):
        J = hermitian_algebra(3, matrix_algebra(1, QQ, involution="identity"))
        V = J.pair()
        assert V.degrees is not None
        R = build("C", 3)
        for sign in (1, -1):
            for d in V.degrees[sign]:
                assert R.is_root(d)

    def test_albert_pair_degrees(self):
        V = albert_algebra(QQ).pair()
        R = build("C", 3)
        for d in V.degrees[1]:
            assert R.is_root(d)


class TestZeroPair:
    def test_tkk_of_zero_pair(self):
        V = JordanPair(QQ, {1: 0, -1: 0}, {1: [], -1: []}, {1: [], -1: []}, {1: {}, -1: {}})
        L = tkk(V)
        assert L.dim == 0


class TestBaseChangeInstances:
    def test_split_model_dims_stable_q_vs_fp(self):
        # instance-level base-change equalities on split models
        for ring in (QQ, GF(5), GF(7)):
            O = split_octonions(ring)
            V = rectangular_pair(1, 2, O)
            assert instr(V).dim == 46
            D = matrix_algebra(1, ring)
            assert sl_algebra(3, D).dim == 8

    def test_ider_albert_dims_stable(self):
        for ring in (QQ, GF(5)):
            assert ider(albert_algebra(ring)).dim == 52


class TestJsonRoundTrips:
    def test_root_system(self):
        for t, r in (("C", 3), ("F", 4)):
            R = build(t, r)
            back = RootSystem.from_json(R.to_json())
            assert back.roots == R.roots and back.to_json() == R.to_json()

    def test_structure_algebra(self):
        O = split_octonions(QQ)
        back = StructureAlgebra.from_json(O.to_json(), QQ)
        assert back.mult == O.mult and back.flags == O.flags

    def test_graded_lie_algebra(self):
        L = sl_algebra(3, matrix_algebra(1, GF(3)))
        back = GradedLieAlgebra.from_json(L.to_json(), GF(3))
        assert back.bracket == L.bracket and back.degrees == L.degrees


coords3 = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


class TestHypothesisRoots:
    @given(coords3)
    @settings(max_examples=60, deadline=None)
    def test_reflection_involution(self, coords):
        R = build("A", 2)
        w = Weight(coords)
        for a in R.nonzero_roots:
            assert R.reflect(a, R.reflect(a, w)) == w

    @given(coords3, st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_orbit_closed_under_reflections(self, coords, i, j):
        R = build("G", 2)
        orbit = R.weyl_orbit(tuple(coords))
        a = R.nonzero_roots[(i * 5 + j) % len(R.nonzero_roots)]
        for v in orbit:
            assert tuple(R.reflect(a, v)) in orbit


class TestAlbertGrid:
    def test_albert_c3_grid(self):
        from rograd.jordan import albert_grid, verify_grid
        from rograd.roots import three_grading

        A = albert_algebra(QQ)
        rep = verify_grid(
            A.pair(), albert_grid(A), three_grading(build("C", 3), "hermitian")
        )
        assert rep.ok
        dims = rep.joint_dims()
        for root, d in dims.items():
            assert d == (1 if 2 in root else 8)
