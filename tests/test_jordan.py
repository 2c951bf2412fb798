import copy
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rograd import lie
from rograd.algebras import matrix_algebra, split_octonions
from rograd.jordan import (
    JordanAlgebra,
    JordanPair,
    albert_algebra,
    hermitian_algebra,
    hermitian_grid,
    pair_idempotent_peirce,
    peirce,
    rectangular_grid,
    rectangular_pair,
    verify_grid,
    verify_pair_identities,
)
from rograd.lie import (
    GradedLieAlgebra,
    OperatorLieAlgebra,
    _delta_block_op,
    _instr,
    ider,
    tkk,
    uider,
)
from rograd.linalg import _op_apply, _op_axpy, _op_bracket, _op_compose, _vec_axpy
from rograd.rings import GF, QQ, ZZ
from rograd.roots import build, three_grading
from test_algebras import incidence_algebras


@pytest.fixture(scope="module")
def DQ():
    return matrix_algebra(1, QQ, involution="identity")


@pytest.fixture(scope="module")
def M12(DQ):
    return rectangular_pair(1, 2, DQ)


class TestRectangularPair:
    def test_q_on_grid_members(self, M12):
        # Q_{E12}(E21) = E12: basis 0 of V+ is E[1,2], basis 0 of V- is E[2,1]
        out = _op_apply(M12.ring, M12.Q_of(1, {0: 1}), {0: 1})
        assert out == {0: 1}

    def test_collinearity_triple(self, M12):
        # {E12 E21 E13} = E13
        out = M12.triple(1, {0: 1}, {0: 1}, {1: 1})
        assert out == {1: 1}

    def test_orthogonal_annihilation(self, DQ):
        V = rectangular_pair(2, 2, DQ)
        # plus basis: (i,j) -> i*2+j; minus: (j,i) -> j*2+i
        # E13 = (0,0) plus; E42 = minus (1,1); orthogonal cells
        q = V.Q_of(1, {0: 1})  # Q_{E13}
        assert _op_apply(V.ring, q, {3: 1}) == {}  # Q_{E13} E42 = 0

    def test_identities_m12_m13(self, DQ):
        for j in (2, 3):
            V = rectangular_pair(1, j, DQ)
            rep = verify_pair_identities(V)
            assert all(viol == 0 for (_, viol, _) in rep.values())

    def test_identities_m22(self, DQ):
        V = rectangular_pair(2, 2, DQ)
        rep = verify_pair_identities(V)
        assert all(viol == 0 for (_, viol, _) in rep.values())

    def test_octonion_pair_rejected_when_too_big(self):
        O = split_octonions(QQ)
        with pytest.raises(ValueError):
            rectangular_pair(2, 2, O)  # card K = 4 needs associativity

    def test_grid_verifies(self, M12, DQ):
        g = three_grading(build("A", 2), "collinear")
        fam = rectangular_grid(1, 2, DQ)
        rep = verify_grid(M12, fam, g)
        assert rep.ok
        assert rep.joint_dims() == {(1, -1, 0): 1, (1, 0, -1): 1}

    def test_duplicated_idempotent_fails(self, M12, DQ):
        g = three_grading(build("A", 2), "collinear")
        fam = rectangular_grid(1, 2, DQ)
        dup = dict(fam)
        dup[(1, 0, -1)] = dup[(1, -1, 0)]
        rep = verify_grid(M12, dup, g)
        assert not rep.ok
        assert any("associated != expected" in f for f in rep.failures)


class TestPairIdempotentPeirce:
    def test_grid_member_spaces(self, M12, DQ):
        fam = rectangular_grid(1, 2, DQ)
        pp = pair_idempotent_peirce(M12, fam[(1, -1, 0)])
        assert len(pp[2][1]) == 1  # V_2 contains E12 * D
        assert len(pp[1][1]) == 1
        assert len(pp[0][1]) == 0

    def test_zero_idempotent(self, M12):
        pp = pair_idempotent_peirce(M12, ({}, {}))
        assert len(pp[0][1]) == M12.dim(1)
        assert len(pp[2][1]) == 0

    def test_collinear_grid_members_mutually_v1(self, M12, DQ):
        fam = rectangular_grid(1, 2, DQ)
        e, f = fam[(1, -1, 0)], fam[(1, 0, -1)]
        pp_e = pair_idempotent_peirce(M12, e)
        from rograd.linalg import span

        v1_plus = span(QQ, M12.dim(1))
        for v in pp_e[1][1]:
            v1_plus.add(v)
        assert v1_plus.contains(f[0])


class TestHermitianAlgebra:
    def test_h3_over_q(self, DQ):
        J = hermitian_algebra(3, DQ)
        assert J.dim == 6
        # the unit is an idempotent in the circle convention: u o u = 2u
        assert J.is_idempotent(J.unit)

    def test_product_rules(self, DQ):
        J = hermitian_algebra(3, DQ)
        idx = J.hermitian_data["index"]
        a12 = J.basis_vec(idx[(0, 1, 0)])
        b23 = J.basis_vec(idx[(1, 2, 0)])
        b21 = a12  # over Q with identity involution, 1[21] = 1[12]
        # a[12] o b[23] = (ab)[13]
        assert J.mul(a12, b23) == J.basis_vec(idx[(0, 2, 0)])
        # a[12] o b[21] = (ab + bbar abar)[11] + (ba + abar bbar)[22]
        out = J.mul(a12, b21)
        expected = J.add(
            J.smul(2, J.basis_vec(idx[(0, 0, 0)])),
            J.smul(2, J.basis_vec(idx[(1, 1, 0)])),
        )
        assert out == expected

    def test_h3_octonions_dim_27(self):
        O = split_octonions(QQ)
        J = hermitian_algebra(3, O)
        assert J.dim == 27

    def test_h4_needs_associative(self):
        O = split_octonions(QQ)
        with pytest.raises(ValueError):
            hermitian_algebra(4, O)

    def test_needs_half(self):
        D = matrix_algebra(1, ZZ, involution="identity")
        with pytest.raises(ValueError):
            hermitian_algebra(3, D)

    def test_peirce_square_lemma(self, DQ):
        # sum of J_ik^2 covers sum of J_ii for card I >= 3
        J = hermitian_algebra(3, DQ)
        es = [J.basis_vec(i) for i in range(3)]
        dec = peirce(J, es)
        from rograd.linalg import span

        off = []
        for (a, b), vecs in dec.spaces.items():
            if a != b:
                for x in vecs:
                    for y in vecs:
                        off.append(J.mul(x, y))
        squares = span(QQ, J.dim)
        for v in off:
            squares.add(v)
        for i in range(3):
            for v in dec.spaces[(i + 1, i + 1)]:
                assert squares.contains(v)

    def test_hermitian_grid_c4(self):
        D = matrix_algebra(1, QQ, involution="identity")
        J = hermitian_algebra(4, D)
        V = J.pair()
        g = three_grading(build("C", 4), "hermitian")
        rep = verify_grid(V, hermitian_grid(J), g)
        assert rep.ok
        assert all(d == 1 for d in rep.joint_dims().values())


@pytest.fixture(scope="module")
def A():
    return albert_algebra(QQ)


class TestAlbertAlgebra:

    def test_dimension(self, A):
        assert A.dim == 27

    def test_e_products(self, A):
        e1 = A.basis_vec(0)
        assert A.mul(e1, e1) == A.smul(2, e1)
        # e_1 o P_1(x) = 0
        p1x = A.basis_vec(3)
        assert A.mul(e1, p1x) == {}
        # e_2 o P_1(x) = P_1(x)
        assert A.mul(A.basis_vec(1), p1x) == p1x

    def test_p_cross_product(self, A):
        # P_1(x) o P_2(y) = P_3(ybar xbar)
        O = A.albert_data["octonions"]
        p_idx = A.albert_data["p_idx"]
        for t in (0, 3, 5):
            for s in (1, 4, 7):
                lhs = A.mul(A.basis_vec(p_idx(0, t)), A.basis_vec(p_idx(1, s)))
                prod = O.mul(O.conj(O.basis_vec(s)), O.conj(O.basis_vec(t)))
                rhs = {p_idx(2, u): c for u, c in prod.items()}
                assert lhs == rhs

    def test_p_same_index_norm(self, A):
        O = A.albert_data["octonions"]
        p_idx = A.albert_data["p_idx"]
        # P_1(x) o P_1(y) = N(x,y)(e_2 + e_3)
        lhs = A.mul(A.basis_vec(p_idx(0, 0)), A.basis_vec(p_idx(0, 4)))
        val = O.norm_bilinear(O.basis_vec(0), O.basis_vec(4))
        assert lhs == ({1: val, 2: val} if val else {})

    def test_matches_hermitian_construction(self, A):
        O = split_octonions(QQ)
        H = hermitian_algebra(3, O)
        assert H.dim == A.dim == 27

    def test_peirce(self, A):
        es = [A.basis_vec(i) for i in range(3)]
        dec = peirce(A, es)
        dims = dec.dims()
        assert dims[(1, 1)] == dims[(2, 2)] == dims[(3, 3)] == 1
        assert dims[(1, 2)] == dims[(1, 3)] == dims[(2, 3)] == 8

    def test_single_idempotent_unit(self, A):
        dec = peirce(A, [A.unit])
        assert dec.dims() == {(1, 1): 27}

    def test_unsupported_ring(self):
        with pytest.raises(ValueError):
            albert_algebra(GF(3))
        with pytest.raises(ValueError):
            albert_algebra(ZZ)

    def test_pair_idempotents(self, A):
        V = A.pair()
        for i in range(3):
            e = (A.basis_vec(i), A.basis_vec(i))
            assert V.is_idempotent(e)


class TestJordanAlgebraBasics:
    def test_u_operator_unit(self, DQ):
        J = hermitian_algebra(3, DQ)
        for i in range(J.dim):
            assert J.U_apply(J.unit, J.basis_vec(i)) == J.basis_vec(i)

    def test_non_commutative_table_refused(self):
        # (0, 1) and (1, 0) both stored, with different products
        circ = {(0, 0): {0: 2}, (0, 1): {1: 2}, (1, 0): {1: 1}, (1, 1): {}}
        with pytest.raises(ValueError, match="circle product is not commutative"):
            JordanAlgebra(QQ, ["e0", "e1"], circ, {0: 1})
        circ[(1, 0)] = {1: 2}
        assert JordanAlgebra(QQ, ["e0", "e1"], circ, {0: 1}).dim == 2

    def test_wrong_unit_refused(self):
        # Q x Q with the circle product: (1, 0) is an idempotent, not the unit
        circ = {(0, 0): {0: 2}, (1, 1): {1: 2}}
        with pytest.raises(ValueError, match="unit does not satisfy u o x = 2x"):
            JordanAlgebra(QQ, ["e0", "e1"], circ, {0: 1})
        assert JordanAlgebra(QQ, ["e0", "e1"], circ, {0: 1, 1: 1}).dim == 2

    def test_pair_identities_of_h3(self, DQ):
        V = hermitian_algebra(3, DQ).pair()
        rep = verify_pair_identities(V)
        assert all(viol == 0 for (_, viol, _) in rep.values())

    def test_json(self, DQ):
        data = hermitian_algebra(3, DQ).to_json()
        assert data["dim"] == 6
        assert "u_op" in data and "table" in data


class TestOctonionPairPeirce:
    def test_grid_member_v2_is_octonion_cell(self):
        # V_2 of (E_12, E_21) in M(1,2,O) is the full E_12*O cell (dim 8)
        O = split_octonions(QQ)
        V = rectangular_pair(1, 2, O)
        fam = rectangular_grid(1, 2, O)
        pp = pair_idempotent_peirce(V, fam[(1, -1, 0)])
        assert len(pp[2][1]) == 8 and len(pp[1][1]) == 8 and len(pp[0][1]) == 0
        # the V_2 plus-part is exactly the first coordinate cell
        for vec in pp[2][1]:
            assert all(c < 8 for c in vec)


# ---------------------------------------------------------------------------
# the exhaustive oracle: every JP1-JP3 linearization component on one sorted
# basis tuple per orbit of its interchangeable slots.  verify_pair_identities
# decides the same identities by one TKK build; the oracle checks it.
# ---------------------------------------------------------------------------


def _arrangements(c):
    """Number of distinct orderings of the tuple c."""
    return factorial(len(c)) // prod(factorial(k) for k in Counter(c).values())


def _slot_groups(slots: str):
    """Runs of a family's slot string as (kind, size): a bracketed run such
    as "[aa]" is one group of interchangeable slots, a bare letter a group
    of one.  "a[aa][bb]" gives [("a", 1), ("a", 2), ("b", 2)]."""
    runs = (m[1] or m[0] for m in re.finditer(r"\[([ab]+)\]|[ab]", slots))
    return [(run[0], len(run)) for run in runs]


def _families(V: JordanPair, sign: int):
    """The JP1-JP3 component families on V^sign as (name, slots, value).

    Slot kind "a" indexes the V^sign basis, "b" the V^{-sign} basis, in the
    order of value's arguments; every family lists its a slots first.
    value(*t) is the component on the basis tuple t as a sparse operator, {}
    where the identity holds.  Bracketed slots are interchangeable: permuting
    them maps the family's terms onto themselves, because Q_{e_k,e_l} =
    Q_{e_l,e_k} and Q_{x,y} is symmetric.  A composition whose factors do
    not meet is skipped as zero, and the inner Q-Q product of a three-factor
    term is kept for the lifetime of the returned values when it is formed.
    """
    ring = V.ring
    n = V.dim(sign)
    m = V.dim(-sign)
    # Q_{e_k} under the key k, and Q_{e_k,e_l} under (k, l) for every ordered
    # pair, with the doubled diagonal; Qm holds the same on V^{-sign}
    Q = dict(enumerate(V.Qdiag[sign]))
    Q.update(((i, j), V.QB_basis(sign, i, j)) for i in range(n) for j in range(n))
    Qm = dict(enumerate(V.Qdiag[-sign]))
    Qm.update(((i, j), V.QB_basis(-sign, i, j)) for i in range(m) for j in range(m))
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
                _op_axpy(ring, out, Q[k, l], ring.mul(ck, cl))
        return out

    def Qvec(x: dict):
        out = {}
        items = sorted(x.items())
        for idx, (k, ck) in enumerate(items):
            _op_axpy(ring, out, Q[k], ring.mul(ck, ck))
            for l, cl in items[idx + 1 :]:
                _op_axpy(ring, out, Q[k, l], ring.mul(ck, cl))
        return out

    # the rows of the right-hand factors, for the structural zero test
    Qrows = {k: _rows(op) for k, op in Q.items()}
    Dmrows = {k: _rows(op) for k, op in Dmtab.items()}
    # Qm[y] after Q[z], the inner product of every three-factor JP3 term,
    # stored under the unordered keys of y and z (Q[k, l] is Q[l, k]) and
    # only when the two meet.  qqq writes out the zero test instead of
    # calling after, because most of its calls end there.
    inner = {}
    Qkey = {k: _unordered(k) for k in Q}
    Qmkey = {k: _unordered(k) for k in Qm}

    def after(A, B, B_rows):
        """A after B; {} without composing when no row of B is a column of A."""
        if A.keys().isdisjoint(B_rows):
            return {}
        return _op_compose(ring, A, B)

    def dq(d, q):
        """D(e_i, f_j) after Q[q], for d = (i, j)."""
        return after(Dtab[d], Q[q], Qrows[q])

    def qd(q, d):
        """Q[q] after D(f_j, e_i) on V^{-sign}, for d = (j, i)."""
        return after(Q[q], Dmtab[d], Dmrows[d])

    def qqq(x, y, z):
        """Q[x] after Qm[y] after Q[z], composed right to left."""
        key = (Qmkey[y], Qkey[z])
        yz = inner.get(key)
        if yz is None:
            Y = Qm[y]
            if Y.keys().isdisjoint(Qrows[z]):
                return {}
            yz = inner[key] = _op_compose(ring, Y, Q[z])
        return _op_compose(ring, Q[x], yz)

    def total(*signed_terms):
        acc = {}
        for s, term in signed_terms:
            if term:
                _op_axpy(ring, acc, term, s)
        return acc

    return [
        (
            "JP1(3;1)",
            "ab",
            lambda a, b: total((1, dq((a, b), a)), (-1, qd(a, (b, a)))),
        ),
        (
            "JP1(2,1;1)",
            "aab",
            lambda a, c, b: total(
                (1, dq((a, b), (a, c))),
                (1, dq((c, b), a)),
                (-1, qd((a, c), (b, a))),
                (-1, qd(a, (b, c))),
            ),
        ),
        (
            "JP1(1,1,1;1)",
            "[aaa]b",
            lambda a, c, e, b: total(
                (1, dq((a, b), (c, e))),
                (1, dq((c, b), (a, e))),
                (1, dq((e, b), (a, c))),
                (-1, qd((c, e), (b, a))),
                (-1, qd((a, e), (b, c))),
                (-1, qd((a, c), (b, e))),
            ),
        ),
        (
            "JP2(2;2)",
            "ab",
            lambda a, b: total(
                (1, Dvec(col(Q[a], b), b)), (-1, Dvec2(a, col(Qm[b], a)))
            ),
        ),
        (
            "JP2(1,1;2)",
            "[aa]b",
            lambda a, c, b: total(
                (1, Dvec(col(Q[a, c], b), b)),
                (-1, Dvec2(a, col(Qm[b], c))),
                (-1, Dvec2(c, col(Qm[b], a))),
            ),
        ),
        (
            "JP2(2;1,1)",
            "a[bb]",
            lambda a, b, d: total(
                (1, Dvec(col(Q[a], b), d)),
                (1, Dvec(col(Q[a], d), b)),
                (-1, Dvec2(a, col(Qm[b, d], a))),
            ),
        ),
        (
            "JP2(1,1;1,1)",
            "[aa][bb]",
            lambda a, c, b, d: total(
                (1, Dvec(col(Q[a, c], b), d)),
                (1, Dvec(col(Q[a, c], d), b)),
                (-1, Dvec2(a, col(Qm[b, d], c))),
                (-1, Dvec2(c, col(Qm[b, d], a))),
            ),
        ),
        (
            "JP3(4;2)",
            "ab",
            lambda a, b: total(
                (1, Qvec(col(Q[a], b))), (-1, qqq(a, b, a))
            ),
        ),
        (
            "JP3(4;1,1)",
            "a[bb]",
            lambda a, b, d: total(
                (1, Qbvec(col(Q[a], b), col(Q[a], d))),
                (-1, qqq(a, (b, d), a)),
            ),
        ),
        (
            "JP3(3,1;2)",
            "aab",
            lambda a, c, b: total(
                (1, Qbvec(col(Q[a], b), col(Q[a, c], b))),
                (-1, qqq((a, c), b, a)),
                (-1, qqq(a, b, (a, c))),
            ),
        ),
        (
            "JP3(3,1;1,1)",
            "aa[bb]",
            lambda a, c, b, d: total(
                (1, Qbvec(col(Q[a], b), col(Q[a, c], d))),
                (1, Qbvec(col(Q[a], d), col(Q[a, c], b))),
                (-1, qqq((a, c), (b, d), a)),
                (-1, qqq(a, (b, d), (a, c))),
            ),
        ),
        (
            "JP3(2,2;2)",
            "[aa]b",
            lambda a, c, b: total(
                (1, Qvec(col(Q[a, c], b))),
                (1, Qbvec(col(Q[a], b), col(Q[c], b))),
                (-1, qqq(a, b, c)),
                (-1, qqq(c, b, a)),
                (-1, qqq((a, c), b, (a, c))),
            ),
        ),
        (
            "JP3(2,2;1,1)",
            "[aa][bb]",
            lambda a, c, b, d: total(
                (1, Qbvec(col(Q[a, c], b), col(Q[a, c], d))),
                (1, Qbvec(col(Q[a], b), col(Q[c], d))),
                (1, Qbvec(col(Q[a], d), col(Q[c], b))),
                (-1, qqq(a, (b, d), c)),
                (-1, qqq(c, (b, d), a)),
                (-1, qqq((a, c), (b, d), (a, c))),
            ),
        ),
        (
            "JP3(2,1,1;2)",
            "a[aa]b",
            lambda a, c, e, b: total(
                (1, Qbvec(col(Q[a], b), col(Q[c, e], b))),
                (1, Qbvec(col(Q[a, c], b), col(Q[a, e], b))),
                (-1, qqq(a, b, (c, e))),
                (-1, qqq((c, e), b, a)),
                (-1, qqq((a, c), b, (a, e))),
                (-1, qqq((a, e), b, (a, c))),
            ),
        ),
        (
            "JP3(2,1,1;1,1)",
            "a[aa][bb]",
            lambda a, c, e, b, d: total(
                (1, Qbvec(col(Q[a], b), col(Q[c, e], d))),
                (1, Qbvec(col(Q[a], d), col(Q[c, e], b))),
                (1, Qbvec(col(Q[a, c], b), col(Q[a, e], d))),
                (1, Qbvec(col(Q[a, c], d), col(Q[a, e], b))),
                (-1, qqq(a, (b, d), (c, e))),
                (-1, qqq((c, e), (b, d), a)),
                (-1, qqq((a, c), (b, d), (a, e))),
                (-1, qqq((a, e), (b, d), (a, c))),
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
                        (1, Qbvec(col(Q[p, q], b), col(Q[r, s], b))),
                        (-1, qqq((p, q), b, (r, s))),
                        (-1, qqq((r, s), b, (p, q))),
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
                        (1, Qbvec(col(Q[p, q], b), col(Q[r, s], d))),
                        (1, Qbvec(col(Q[p, q], d), col(Q[r, s], b))),
                        (-1, qqq((p, q), (b, d), (r, s))),
                        (-1, qqq((r, s), (b, d), (p, q))),
                    )
                )
            ),
        ),
    ]


def _unordered(key):
    """A table key with a pair (k, l) put in increasing order."""
    return key if type(key) is int or key[0] <= key[1] else (key[1], key[0])


def _rows(op: dict) -> set:
    """The rows holding a nonzero entry of the sparse operator op."""
    return set().union(*op.values())


def _pairings(w, x, y, z):
    return [((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))]


def _orbit_parts(n, sizes):
    """(part, orbit size) for every sorted index part: one combination with
    repetition from range(n) per group of the given sizes, chained, in
    lexicographic order."""
    for combo in product(*(combinations_with_replacement(range(n), size) for size in sizes)):
        yield tuple(chain.from_iterable(combo)), prod(_arrangements(c) for c in combo)


def _oracle(V, families=_families):
    """The report verify_pair_identities gives, by evaluating every family
    on one sorted tuple per orbit; raises AssertionError at the
    lexicographically least failing tuple of the first failing family."""
    report = {}
    for sign in (1, -1):
        dims = {"a": V.dim(sign), "b": V.dim(-sign)}
        for name, slots, value in families(V, sign):
            key = f"{name}@{'+' if sign == 1 else '-'}"
            groups = _slot_groups(slots)
            a_parts, b_parts = (
                list(_orbit_parts(dims[kind], [size for k, size in groups if k == kind]))
                for kind in "ab"
            )
            count = 0
            for pa, a_count in a_parts:
                for pb, b_count in b_parts:
                    count += a_count * b_count
                    if value(*pa, *pb):
                        raise AssertionError(f"Jordan pair identity {key} fails at {pa + pb}")
            report[key] = (count, 0, "exhaustive")
    return report



_FAMILY_KEYS = [
    f"{name}@{s}"
    for s in "+-"
    for name in (
        "JP1(3;1)", "JP1(2,1;1)", "JP1(1,1,1;1)", "JP2(2;2)", "JP2(1,1;2)",
        "JP2(2;1,1)", "JP2(1,1;1,1)", "JP3(4;2)", "JP3(4;1,1)", "JP3(3,1;2)",
        "JP3(3,1;1,1)", "JP3(2,2;2)", "JP3(2,2;1,1)", "JP3(2,1,1;2)",
        "JP3(2,1,1;1,1)", "JP3(1,1,1,1;2)", "JP3(1,1,1,1;1,1)",
    )
]

# numbers of (a, b) slots per family, in _FAMILY_KEYS order
_SLOTS = [(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1), (1, 2),
          (2, 1), (2, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]


def _exhaustive(d):
    """Report of a pair with dim V+ = dim V- = d: every basis tuple decided."""
    counts = [d ** (a + b) for a, b in _SLOTS] * 2
    return [(key, (count, 0, "exhaustive")) for key, count in zip(_FAMILY_KEYS, counts)]


def _random_pair(n, m, seed):
    """A pair with random integer Q tensors; it satisfies no JP identity."""
    rng = random.Random(seed)
    dims = {1: n, -1: m}

    def op(rows, cols):
        out = {}
        for j in range(cols):
            col = {i: rng.randint(-3, 3) for i in range(rows) if rng.random() < 0.6}
            col = {i: v for i, v in col.items() if v}
            if col:
                out[j] = col
        return out

    Qdiag = {s: [op(dims[s], dims[-s]) for _ in range(dims[s])] for s in (1, -1)}
    Qlin = {
        s: {(i, k): op(dims[s], dims[-s]) for i in range(dims[s]) for k in range(i + 1, dims[s])}
        for s in (1, -1)
    }
    labels = {s: [f"e{i}" for i in range(dims[s])] for s in (1, -1)}
    return JordanPair(QQ, dims, labels, Qdiag, Qlin)


class TestIdentityOrbits:
    def test_slot_groups_parse(self):
        assert _slot_groups("ab") == [("a", 1), ("b", 1)]
        assert _slot_groups("a[aa][bb]") == [("a", 1), ("a", 2), ("b", 2)]
        assert _slot_groups("[aaaa]b") == [("a", 4), ("b", 1)]

    def test_declared_groups_are_exactly_the_symmetries(self):
        V = _random_pair(4, 3, seed=11)
        grouped = 0
        for sign in (1, -1):
            size = {"a": V.dim(sign), "b": V.dim(-sign)}
            for name, slots, value in _families(V, sign):
                groups = _slot_groups(slots)
                kinds = "".join(kind * k for kind, k in groups)
                group_of = [g for g, (_, k) in enumerate(groups) for _ in range(k)]
                tuples = list(product(*(range(size[kind]) for kind in kinds)))
                values = {t: value(*t) for t in tuples}
                assert any(values.values()), name
                for p in range(len(kinds) - 1):
                    if kinds[p] != kinds[p + 1]:
                        continue

                    def swap(t):
                        return t[:p] + (t[p + 1], t[p]) + t[p + 2 :]

                    if group_of[p] == group_of[p + 1]:
                        grouped += 1
                        assert all(values[t] == values[swap(t)] for t in tuples), (name, p)
                    else:
                        assert any(values[t] != values[swap(t)] for t in tuples), (name, p)
        # adjacent in-group swaps per sign: 2+1+1+2+1+1+1+2+1+2+3+4
        assert grouped == 2 * 21

    def test_twelve_families_have_groups(self):
        V = _random_pair(4, 3, seed=11)
        names = [n for n, slots, _ in _families(V, 1) if "[" in slots]
        assert len(names) == 12 and len(_families(V, 1)) == 17

    @pytest.mark.parametrize("i_size,j_size", [(1, 2), (1, 3), (2, 2)])
    def test_reports_rectangular(self, DQ, i_size, j_size):
        V = rectangular_pair(i_size, j_size, DQ)
        rep = verify_pair_identities(V)
        assert V.dim(1) == V.dim(-1)
        assert list(rep.items()) == _exhaustive(V.dim(1))

    def test_report_h3(self, DQ):
        V = hermitian_algebra(3, DQ).pair()
        rep = verify_pair_identities(V)
        assert list(rep.items()) == _exhaustive(6)
        assert _oracle(V) == rep

    def test_report_octonion_pair(self):
        rep = verify_pair_identities(rectangular_pair(1, 2, split_octonions(QQ)))
        assert list(rep.items()) == _exhaustive(16)
        assert sum(c for c, _, _ in rep.values()) == 38454784
        assert sum(mode == "exhaustive" for _, _, mode in rep.values()) == 34

    def test_report_h4(self, DQ):
        rep = verify_pair_identities(hermitian_algebra(4, DQ).pair())
        assert list(rep.items()) == _exhaustive(10)
        assert sum(c for c, _, _ in rep.values()) == 2512600
        assert sum(mode == "exhaustive" for _, _, mode in rep.values()) == 34

    def test_corrupted_h3(self, DQ):
        V = hermitian_algebra(3, DQ).pair()
        V.Qlin[1][(0, 3)][0][1] = 5
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V)
        assert str(exc.value) == "Jordan pair identities fail: instr(V) is not bracket-closed"
        with pytest.raises(AssertionError) as exc:
            _oracle(V)
        assert str(exc.value) == "Jordan pair identity JP1(3;1)@+ fails at (3, 0)"

    def test_corrupted_octonion_pair(self):
        V = rectangular_pair(1, 2, split_octonions(QQ))
        V.Qlin[-1][max(V.Qlin[-1])].setdefault(3, {})[2] = 7
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V)
        assert str(exc.value) == "Jordan pair identities fail: instr(V) is not bracket-closed"
        with pytest.raises(AssertionError) as exc:
            _oracle(V)
        assert str(exc.value) == "Jordan pair identity JP1(2,1;1)@+ fails at (3, 6, 14)"

    def test_corrupted_first_failure_in_a_group(self, DQ):
        # the least failing tuple of JP1(1,1,1;1)@+ has three distinct
        # entries in its {a, c, e} group
        V = rectangular_pair(2, 3, DQ)
        V.Qdiag[-1][5].setdefault(2, {})[1] = 5
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V)
        assert str(exc.value) == "Jordan pair identities fail: instr(V) is not bracket-closed"

        def jp1_111(V, sign):
            return [f for f in _families(V, sign) if f[0] == "JP1(1,1,1;1)"]

        with pytest.raises(AssertionError) as exc:
            _oracle(V, jp1_111)
        assert str(exc.value) == "Jordan pair identity JP1(1,1,1;1)@+ fails at (0, 2, 3, 5)"


# ---------------------------------------------------------------------------
# the oracle: each orbit decided once, and the failure it reports is the
# least failing tuple of a plain scan of every tuple
# ---------------------------------------------------------------------------


def _kinds(slots):
    """The slot string without brackets: "a[aa][bb]" gives "aaabb"."""
    return "".join(kind * size for kind, size in _slot_groups(slots))


def _orbit_rep(t, slots):
    """t with each group of interchangeable slots sorted."""
    out, i = [], 0
    for _, size in _slot_groups(slots):
        out += sorted(t[i : i + size])
        i += size
    return tuple(out)


def _family_slots():
    """(name, slots) of the 17 families, which do not depend on the pair."""
    return [(name, slots) for name, slots, _ in _families(_random_pair(2, 2, seed=0), 1)]


def _value_digest(V):
    """sha256 prefix of every family value on every basis tuple, both signs."""
    h = hashlib.sha256()
    for sign in (1, -1):
        size = {"a": V.dim(sign), "b": V.dim(-sign)}
        for name, slots, value in _families(V, sign):
            for t in product(*(range(size[kind]) for kind in _kinds(slots))):
                op = value(*t)
                canon = sorted((j, sorted(col.items())) for j, col in op.items())
                h.update(repr((sign, name, t, canon)).encode())
    return h.hexdigest()[:16]


def _scan_first_failure(V, bad):
    """The failure message of a plain scan of every tuple in order, for
    families failing exactly on the orbits bad[sign, name]."""
    for sign in (1, -1):
        size = {"a": V.dim(sign), "b": V.dim(-sign)}
        for name, slots in _family_slots():
            for t in product(*(range(size[kind]) for kind in _kinds(slots))):
                if _orbit_rep(t, slots) in bad[sign, name]:
                    key = f"{name}@{'+' if sign == 1 else '-'}"
                    return f"Jordan pair identity {key} fails at {t}"
    return None


class TestDistinctTuples:
    def test_each_grid_tuple_evaluated_once(self):
        # families that hold everywhere, on a pair with dim V+ != dim V-
        calls = Counter()

        def counted(V, sign):
            def wrap(name):
                def traced(*t):
                    calls[sign, name, t] += 1
                    return {}

                return traced

            return [(name, slots, wrap(name)) for name, slots in _family_slots()]

        V = _random_pair(4, 3, seed=11)
        rep = _oracle(V, counted)
        assert set(calls.values()) == {1}
        expected = set()
        for sign in (1, -1):
            dims = {"a": V.dim(sign), "b": V.dim(-sign)}
            for name, slots in _family_slots():
                kinds = _kinds(slots)
                tuples = list(product(*(range(dims[kind]) for kind in kinds)))
                key = f"{name}@{'+' if sign == 1 else '-'}"
                assert rep[key] == (len(tuples), 0, "exhaustive"), key
                expected |= {(sign, name, _orbit_rep(t, slots)) for t in tuples}
        assert set(calls) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_first_failure_is_least_of_first_failing_grid(self, seed):
        # families failing on random slot-group orbits, against a plain scan
        # of every tuple in order
        rng = random.Random(seed)
        V = _random_pair(4, 3, seed=seed)
        bad = {(sign, name): set() for sign in (1, -1) for name, _ in _family_slots()}
        for sign, name in rng.sample(sorted(bad), 2):
            size = {"a": V.dim(sign), "b": V.dim(-sign)}
            slots = dict(_family_slots())[name]
            for _ in range(rng.randint(1, 4)):
                t = tuple(rng.randrange(size[kind]) for kind in _kinds(slots))
                bad[sign, name].add(_orbit_rep(t, slots))

        def fake(V, sign):
            return [
                (name, slots, lambda *t, s=slots, b=bad[sign, name]: _orbit_rep(t, s) in b)
                for name, slots in _family_slots()
            ]

        with pytest.raises(AssertionError) as exc:
            _oracle(V, fake)
        assert str(exc.value) == _scan_first_failure(V, bad)

    def test_family_values_as_recorded(self, DQ):
        # digests recorded with plain left-to-right composition of every term
        assert _value_digest(_random_pair(4, 3, seed=11)) == "26bce5f9bf423d1c"
        assert _value_digest(hermitian_algebra(3, DQ).pair()) == "921f566e029a4567"

    def test_corrupted_failure_in_two_windows(self, DQ):
        # pinned when the verifier checked index windows: its failing tuple
        # (6, 9, 6) lay in two of them; the oracle's least one is (0, 9, 6)
        V = hermitian_algebra(4, DQ).pair()
        V.Qlin[-1][(6, 8)].setdefault(9, {})[0] = -1
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V)
        assert str(exc.value) == "Jordan pair identities fail: instr(V) is not bracket-closed"
        with pytest.raises(AssertionError) as exc:
            _oracle(V)
        assert str(exc.value) == "Jordan pair identity JP1(2,1;1)@+ fails at (0, 9, 6)"


# ---------------------------------------------------------------------------
# the TKK certificate against the oracle, and the rings it accepts
# ---------------------------------------------------------------------------


def _small_pairs(ring):
    D = matrix_algebra(1, ring, involution="identity")
    return [
        rectangular_pair(1, 2, D),
        rectangular_pair(1, 3, D),
        rectangular_pair(2, 2, D),
        hermitian_algebra(3, D).pair(),
    ]


def _corrupt(V, rng):
    """A copy of V with one tensor entry changed by a nonzero amount."""
    W = copy.deepcopy(V)
    ring = W.ring
    sign = rng.choice((1, -1))
    n, m = W.dim(sign), W.dim(-sign)
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    if pairs and rng.random() < 0.5:
        op = W.Qlin[sign].setdefault(rng.choice(pairs), {})
    else:
        op = W.Qdiag[sign][rng.randrange(n)]
    j, row = rng.randrange(m), rng.randrange(n)
    col = op.setdefault(j, {})
    value = ring.coerce(col.get(row, 0) + rng.choice((-2, -1, 1, 2)))
    if ring.is_zero(value):
        del col[row]
        if not col:
            del op[j]
    else:
        col[row] = value
    return W


def _random_small_pair(ring, rng):
    """A pair of dimensions at most 2 with random sparse Q tensors, mostly
    not a Jordan pair; instr(V) closes on about half of them."""
    n, m = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])

    def op(rows, cols):
        out = {}
        for j in range(cols):
            for r in range(rows):
                if rng.random() < 0.4:
                    out.setdefault(j, {})[r] = ring.coerce(rng.choice((-2, -1, 1, 2)))
        return out

    dims = {1: n, -1: m}
    Qdiag = {s: [op(dims[s], dims[-s]) for _ in range(dims[s])] for s in (1, -1)}
    Qlin = {
        s: {(a, b): op(dims[s], dims[-s]) for a in range(dims[s]) for b in range(a + 1, dims[s])}
        for s in (1, -1)
    }
    return JordanPair(ring, dims, None, Qdiag, Qlin)


def _passes(check, V):
    try:
        check(V)
    except AssertionError:
        return False
    return True


class TestTKKCertificate:
    def test_jacobi_only_pair(self):
        # Q_e f = e on V+ but Q_f e = 2 f on V-: instr(V) is one-dimensional,
        # hence closed, and only Jacobi on (T, x+, y-) fails
        V = JordanPair(
            QQ, {1: 1, -1: 1}, {1: ["e"], -1: ["f"]},
            Qdiag={1: [{0: {0: 1}}], -1: [{0: {0: 2}}]}, Qlin={1: {}, -1: {}},
        )
        _instr(V)._verify_closed()
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V)
        assert str(exc.value) == (
            "Jordan pair identities fail: Jacobi identity fails on basis triple (0, 1, 2)"
        )
        with pytest.raises(AssertionError) as exc:
            _oracle(V)
        assert str(exc.value) == "Jordan pair identity JP1(3;1)@+ fails at (0, 0)"

    def test_centre_not_checked(self):
        # the zero pair is a Jordan pair whose TKK is abelian
        V = JordanPair(
            QQ, {1: 1, -1: 1}, {1: ["e"], -1: ["f"]}, Qdiag={1: [{}], -1: [{}]},
            Qlin={1: {}, -1: {}},
        )
        assert verify_pair_identities(V) == _oracle(V)
        with pytest.raises(ValueError, match="nontrivial centre"):
            tkk(V)

    def test_unlabelled_pair(self, DQ):
        V = _u_polarization_pair(hermitian_algebra(3, DQ))
        assert V.labels is None
        assert list(verify_pair_identities(V).items()) == _exhaustive(6)
        assert tkk(V).labels[:2] == ["x+0", "x+1"]

    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_oracle_agrees_on_valid_pairs(self, ring):
        for V in _small_pairs(ring):
            assert verify_pair_identities(V) == _oracle(V)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_oracle_agrees_on_corruptions(self, ring, seed):
        # 4 seeds x 2 rings x 4 pairs x 8 corruptions = 256 in all
        rng = random.Random(seed)
        rejected = 0
        for V in _small_pairs(ring):
            for _ in range(8):
                W = _corrupt(V, rng)
                verdict = _passes(verify_pair_identities, W)
                assert verdict == _passes(_oracle, W)
                rejected += not verdict
        assert rejected
        # every corruption fails on closure alone; random tensors of
        # dimension at most 2 supply pairs whose instr closes, where Jacobi
        # decides
        closed = set()
        for _ in range(60):
            W = _random_small_pair(ring, rng)
            verdict = _passes(verify_pair_identities, W)
            assert verdict == _passes(_oracle, W)
            if _passes(lie._assemble_tkk, W):
                closed.add(verdict)
        assert closed == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_tkk_triples_match_the_generic_check(self, ring, seed):
        # where instr(W) closes, the (x+, T, y-) triples that tkk evaluates
        # reject exactly the pairs that every triple rejects.  No
        # single-entry corruption of _small_pairs closes instr, so random
        # tensors of dimension at most 2 supply the closed cases
        rng = random.Random(seed)
        pairs = [_corrupt(V, rng) for V in _small_pairs(ring) for _ in range(8)]
        pairs += [_random_small_pair(ring, rng) for _ in range(60)]
        verdicts = []
        for W in pairs:
            try:
                L = lie._assemble_tkk(W)
            except AssertionError:
                continue  # instr(W) is not bracket-closed
            generic = _passes(
                lambda L: GradedLieAlgebra(L.ring, L.labels, L.degrees, L.bracket), L
            )
            verdict = _passes(lie._tkk, W)
            assert verdict == generic
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_uider_runs_the_tkk_check(self, ring, seed):
        # uider(V) builds TKK(V), so it raises on the corruptions that the
        # identity check rejects, and on no other
        rng = random.Random(seed)
        rejected = 0
        for V in _small_pairs(ring):
            for _ in range(8):
                W = _corrupt(V, rng)
                verdict = _passes(verify_pair_identities, W)
                assert verdict == _passes(uider, W)
                rejected += not verdict
        assert rejected
        # random pairs whose instr closes reach the Jacobi check
        closed = set()
        for _ in range(60):
            W = _random_small_pair(ring, rng)
            verdict = _passes(verify_pair_identities, W)
            assert verdict == _passes(uider, W)
            if _passes(lie._assemble_tkk, W):
                closed.add(verdict)
        assert closed == {True, False}

    @pytest.mark.parametrize(
        "make,dim",
        [
            (lambda: rectangular_pair(1, 2, split_octonions(ZZ)), 16),
            (lambda: rectangular_pair(2, 2, matrix_algebra(1, ZZ)), 4),
            (lambda: albert_algebra(GF(5)).pair(), 27),
            (lambda: albert_algebra(GF(7)).pair(), 27),
            (lambda: hermitian_algebra(4, matrix_algebra(1, GF(5), involution="identity")).pair(), 10),
        ],
        ids=["M12O-Z", "M22-Z", "albert-F5", "albert-F7", "H4-F5"],
    )
    def test_ring_policy_accepts(self, make, dim):
        assert list(verify_pair_identities(make()).items()) == _exhaustive(dim)

    def test_corrupted_z_form_rejected(self):
        V = rectangular_pair(1, 2, split_octonions(ZZ))
        assert V.ring == ZZ
        V.Qlin[-1][max(V.Qlin[-1])].setdefault(3, {})[2] = 7
        with pytest.raises(AssertionError, match="^Jordan pair identities fail: "):
            verify_pair_identities(V)

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_characteristic_refused(self, p):
        V = rectangular_pair(1, 2, matrix_algebra(1, GF(p)))
        with pytest.raises(ValueError, match="Z-form"):
            verify_pair_identities(V)

class TestIntegerQTensors:
    @pytest.mark.parametrize("make", ["h3", "albert"])
    def test_no_integral_fractions_stored(self, DQ, make):
        J = hermitian_algebra(3, DQ) if make == "h3" else albert_algebra(QQ)
        V = J.pair()
        entries = [
            v
            for s in (1, -1)
            for ops in (V.Qdiag[s], list(V.Qlin[s].values()))
            for op in ops
            for col in op.values()
            for v in col.values()
        ]
        assert entries
        assert not any(isinstance(v, Fraction) and v.denominator == 1 for v in entries)

    def test_d_op_matches_triple(self):
        # D_op reads Q_{e_a,e_k} columns; the triple product is the reference
        V = rectangular_pair(1, 2, split_octonions(QQ))
        rng = random.Random(5)
        for sign in (1, -1):
            for _ in range(3):
                x = {i: rng.randint(-2, 2) for i in rng.sample(range(V.dim(sign)), 3)}
                y = {j: Fraction(rng.randint(-3, 3), 2) for j in rng.sample(range(V.dim(-sign)), 3)}
                want = {}
                for k in range(V.dim(sign)):
                    vec = V.triple(sign, x, y, {k: 1})
                    if vec:
                        want[k] = vec
                assert V.D_op(sign, x, y) == want


def _assert_delta_table(V):
    """delta_table against one _delta_block_op call per basis pair, with
    the keys in row-major order and each op's columns sorted, and with the
    symmetry of _assert_delta_symmetric."""
    one = V.ring.coerce(1)
    table = V.delta_table()
    keys = [(i, j) for i in range(V.dim(1)) for j in range(V.dim(-1))]
    assert list(table) == keys
    for i, j in keys:
        want = _delta_block_op(V, {i: one}, {j: one})
        assert table[(i, j)] == want, (i, j)
        assert list(table[(i, j)]) == list(want), (i, j)
    _assert_delta_symmetric(V)


def _assert_delta_symmetric(V):
    """D(e_a, f_j) e_b = D(e_b, f_j) e_a on V+, and delta(e_i, f_j) f_v =
    delta(e_i, f_v) f_j on V-: the symmetry that lets TKK(V) skip its
    (x+, u+, y-) and (x+, y-, v-) triples."""
    table = V.delta_table()
    n, m = V.dim(1), V.dim(-1)
    for j in range(m):
        for a in range(n):
            for b in range(n):
                assert table[(a, j)].get(b) == table[(b, j)].get(a), (a, b, j)
    for i in range(n):
        for j in range(m):
            for v in range(m):
                assert table[(i, j)].get(n + v) == table[(i, v)].get(n + j), (i, j, v)


def _assembly_pairs():
    def D(ring):
        return matrix_algebra(1, ring, involution="identity")

    return [
        ("M12O-Q", lambda: rectangular_pair(1, 2, split_octonions(QQ))),
        ("M12O-Z", lambda: rectangular_pair(1, 2, split_octonions(ZZ))),
        ("M12O-F2", lambda: rectangular_pair(1, 2, split_octonions(GF(2)))),
        ("M12O-F5", lambda: rectangular_pair(1, 2, split_octonions(GF(5)))),
        ("albert-Q", lambda: albert_algebra(QQ).pair()),
        ("albert-F5", lambda: albert_algebra(GF(5)).pair()),
        ("H3-Q", lambda: hermitian_algebra(3, D(QQ)).pair()),
        ("H3-F7", lambda: hermitian_algebra(3, D(GF(7))).pair()),
        ("H4-Q", lambda: hermitian_algebra(4, D(QQ)).pair()),
        ("H4-F7", lambda: hermitian_algebra(4, D(GF(7))).pair()),
        ("M13-Q", lambda: rectangular_pair(1, 3, D(QQ))),
    ]


class TestDeltaTable:
    @pytest.mark.parametrize(
        "make", [m for _, m in _assembly_pairs()], ids=[k for k, _ in _assembly_pairs()]
    )
    def test_matches_delta_block_op(self, make):
        _assert_delta_table(make())

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_corruptions(self, ring, seed):
        # the single-entry corruptions of the oracle test above
        rng = random.Random(seed)
        for V in _small_pairs(ring):
            for _ in range(8):
                _assert_delta_table(_corrupt(V, rng))

    def test_off_canonical_keys_ignored(self, DQ):
        # QB_basis reads Qlin only at keys a < b, so entries stored at
        # (b, a) or (a, a) change no delta
        V = hermitian_algebra(3, DQ).pair()
        plain = V.delta_table()
        for sign in (1, -1):
            V.Qlin[sign][(4, 1)] = {0: {2: 3}, 5: {0: -1}}
            V.Qlin[sign][(2, 2)] = {3: {3: 7}}
        _assert_delta_table(V)
        assert V.delta_table() == plain

    def test_unreduced_entries(self):
        # stored F_5 entries outside 0..4, and one that is 0 mod 5, come out
        # reduced, as from D_op
        V = rectangular_pair(1, 2, matrix_algebra(1, GF(5), involution="identity"))
        V.Qdiag[1][0].setdefault(1, {})[0] = 7
        V.Qlin[-1].setdefault((0, 1), {}).setdefault(0, {})[1] = 10
        _assert_delta_table(V)


def _commutator_oracle(L):
    """{(a, b): coords} of every nonzero basis bracket, by one generic
    commutator and one express call per pair a < b (None: outside)."""
    out = {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            br = _op_bracket(L.ring, L.basis[a], L.basis[b])
            coords = L.express(br) if br else {}
            if coords != {}:
                out[(a, b)] = coords
    return out


def _fused_brackets(L):
    return {(a, b): c for a, b, c in L._basis_brackets() if c != {}}


class TestBasisBrackets:
    @pytest.mark.parametrize(
        "make", [m for _, m in _assembly_pairs()], ids=[k for k, _ in _assembly_pairs()]
    )
    def test_instr_matches_commutator_oracle(self, make):
        L = _instr(make())
        assert _fused_brackets(L) == _commutator_oracle(L)

    def test_ider_albert_matches_commutator_oracle(self):
        L = ider(albert_algebra(QQ))
        assert _fused_brackets(L) == _commutator_oracle(L)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
    def test_corruptions_match_commutator_oracle(self, ring, seed):
        # a bracket that leaves the span is None on both sides
        rng = random.Random(seed)
        outside = 0
        for V in _small_pairs(ring):
            for _ in range(8):
                L = _instr(_corrupt(V, rng))
                want = _commutator_oracle(L)
                assert _fused_brackets(L) == want
                outside += None in want.values()
        assert outside

    def test_albert_work_counts(self):
        # 79 basis ops: 3,081 pairs, 2,361 whose supports meet, 1,026
        # nonzero brackets
        L = _instr(albert_algebra(QQ).pair())
        done = list(L._basis_brackets())
        assert L.dim * (L.dim - 1) // 2 == 3081
        assert len(done) == 2361
        assert sum(1 for _, _, c in done if c) == 1026

    def test_unclosed_span_raises(self):
        # E_12 and E_21 bracket to E_11 - E_22, outside their span
        with pytest.raises(AssertionError, match="operator span is not bracket-closed"):
            OperatorLieAlgebra(QQ, 2, [{1: {0: 1}}, {0: {1: 1}}], closure_check=True)


def _pair_from_q(ring, dims, labels, q_funcs) -> JordanPair:
    """The stored tensors from black-box quadratic maps q(x)(y): Q_{e_i} is
    q(e_i) and Q_{e_i,e_k} is q(e_i + e_k) - q(e_i) - q(e_k), entries
    through ring.coerce."""
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


def _closure_pair(i_size, j_size, D):
    """M(I, J, D) from the quadratic maps x(yx) on V+ and (yx)y on V-,
    evaluated as products of matrices over D: the construction
    rectangular_pair reads off D's multiplication table instead."""
    dd = D.dim

    def to_dmat(vec, width):
        # index (r * width + c) * dd + t is coordinate t of cell (r, c)
        out = {}
        for p, v in vec.items():
            cell, t = divmod(p, dd)
            out.setdefault(divmod(cell, width), {})[t] = v
        return out

    def from_dmat(M, width):
        return {(r * width + c) * dd + t: v for (r, c), cell in M.items() for t, v in cell.items()}

    def dmul(A, B, cols):
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

    def q_plus(x, y):
        X = to_dmat(x, j_size)
        return from_dmat(dmul(X, dmul(to_dmat(y, i_size), X, j_size), j_size), j_size)

    def q_minus(y, x):
        Y = to_dmat(y, i_size)
        return from_dmat(dmul(dmul(Y, to_dmat(x, j_size), j_size), Y, i_size), i_size)

    dims = {1: i_size * j_size * dd, -1: j_size * i_size * dd}
    return _pair_from_q(D.ring, dims, None, {1: q_plus, -1: q_minus})


def _layout(V):
    """The stored tensors as nested item lists with each entry's type: equal
    layouts are equal tensors with the same key order at every level."""
    def items(op):
        return [(j, [(r, v, type(v)) for r, v in col.items()]) for j, col in op.items()]

    return [
        ([items(op) for op in V.Qdiag[s]], [(key, items(op)) for key, op in V.Qlin[s].items()])
        for s in (1, -1)
    ]


def _u_polarization_pair(J):
    """The (J, J) tensors as Q_x y = U_x y and its polarization, through
    U_apply: the construction JordanAlgebra.pair() reads off circ instead."""
    q = lambda x, y: J.U_apply(x, y)
    return _pair_from_q(J.ring, {1: J.dim, -1: J.dim}, None, {1: q, -1: q})


def _same_tensors(V, W):
    return all(V.Qdiag[s] == W.Qdiag[s] and V.Qlin[s] == W.Qlin[s] for s in (1, -1))


def _stored_entries(V):
    return [
        v
        for s in (1, -1)
        for ops in (V.Qdiag[s], list(V.Qlin[s].values()))
        for op in ops
        for col in op.values()
        for v in col.values()
    ]


@st.composite
def commutative_circ_algebras(draw):
    """Random commutative circle constants with 1/2 in the ring; not Jordan
    in general, which the polarization identity does not need."""
    ring = draw(st.sampled_from((QQ, GF(3), GF(5), GF(7))))
    if ring is QQ:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        scalar = st.integers(0, ring.p - 1)
    n = draw(st.integers(1, 4))
    circ = {
        (i, j): draw(st.dictionaries(st.integers(0, n - 1), scalar, max_size=n))
        for i in range(n)
        for j in range(i, n)
    }
    labels = [f"e{i}" for i in range(n)]
    return JordanAlgebra(ring, labels, circ, {0: 1}, check=False)


class TestPairTensorsFromCirc:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: albert_algebra(QQ),
            lambda: albert_algebra(GF(5)),
            lambda: albert_algebra(GF(7)),
            lambda: hermitian_algebra(3, matrix_algebra(1, QQ, involution="identity")),
            lambda: hermitian_algebra(4, matrix_algebra(1, QQ, involution="identity")),
            lambda: hermitian_algebra(3, matrix_algebra(2, QQ, involution="transpose")),
        ],
        ids=["albert-Q", "albert-F5", "albert-F7", "H3-Q", "H4-Q", "H3-M2Q"],
    )
    def test_equal_to_u_polarization(self, make):
        J = make()
        assert _same_tensors(J.pair(), _u_polarization_pair(J))

    @settings(max_examples=60, deadline=None)
    @given(J=commutative_circ_algebras())
    def test_polarization_on_random_commutative_circ(self, J):
        assert _same_tensors(J.pair(), _u_polarization_pair(J))

    @pytest.mark.parametrize("make", ["albert", "H3", "H4"])
    def test_albert_and_hermitian_entries_are_ints(self, DQ, make):
        J = albert_algebra(QQ) if make == "albert" else hermitian_algebra(int(make[1]), DQ)
        entries = _stored_entries(J.pair())
        assert entries and all(type(v) is int for v in entries)

    def test_minus_side_is_a_copy(self):
        V = albert_algebra(QQ).pair()
        assert V.Qdiag[1] == V.Qdiag[-1] and V.Qlin[1] == V.Qlin[-1]
        col = next(iter(V.Qdiag[1][0].values()))
        col[next(iter(col))] += 1
        assert V.Qdiag[1] != V.Qdiag[-1]
        op = next(iter(V.Qlin[-1].values()))
        op.clear()
        assert V.Qlin[1] != V.Qlin[-1]


def _rect_cases():
    rings = [("Q", QQ), ("Z", ZZ), ("F2", GF(2)), ("F3", GF(3)), ("F5", GF(5))]
    shapes = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
    cases = []
    for name, ring in rings:
        for i, j in shapes:
            for k in (1, 2):
                cases.append((f"M{k}{name}-{i}x{j}", i, j, lambda k=k, ring=ring: matrix_algebra(k, ring)))
            if i + j <= 3:
                cases.append((f"O{name}-{i}x{j}", i, j, lambda ring=ring: split_octonions(ring)))
    return cases


class TestRectangularTensors:
    """rectangular_pair reads the tensors off D's multiplication table; the
    quadratic maps on matrices over D, polarized, are the oracle."""

    @pytest.mark.parametrize(
        "i_size,j_size,make", [c[1:] for c in _rect_cases()], ids=[c[0] for c in _rect_cases()]
    )
    def test_equal_to_closure_pair(self, i_size, j_size, make):
        D = make()
        V, W = rectangular_pair(i_size, j_size, D), _closure_pair(i_size, j_size, D)
        assert V.dims == W.dims
        assert _same_tensors(V, W)
        assert _layout(V) == _layout(W)

    @settings(max_examples=30, deadline=None)
    @given(D=incidence_algebras())
    def test_equal_to_closure_pair_on_incidence_algebras(self, D):
        V, W = rectangular_pair(2, 2, D), _closure_pair(2, 2, D)
        assert _same_tensors(V, W)
        assert _layout(V) == _layout(W)
