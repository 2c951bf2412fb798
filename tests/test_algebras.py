from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rograd.algebras import (
    Element,
    StructureAlgebra,
    Triality,
    associator,
    check_triality,
    commutator,
    g1_operator,
    g1_span,
    is_derivation,
    lam,
    matrix_algebra,
    rho,
    sigma,
    split_octonions,
    standard_derivation,
    tensor_matrix_algebra,
    triality_add,
    triality_h,
    triality_h_inverse,
    split_octonions as _oct,
)
from rograd.linalg import _op_apply, _op_axpy, _op_bracket, _op_scale, op_span_dim
from rograd.rings import GF, QQ, ZZ


@pytest.fixture(scope="module")
def O():
    return split_octonions(QQ)


class TestMatrixAlgebra:
    def test_base_ring_as_algebra(self):
        A = matrix_algebra(1, ZZ)
        assert A.dim == 1 and A.flags["associative"] and A.flags["commutative"]

    def test_defining_rule(self):
        A = matrix_algebra(2, QQ)
        e12 = Element(A, A._vec({1: 1}))
        e21 = Element(A, A._vec({2: 1}))
        e11 = Element(A, A._vec({0: 1}))
        assert e12 * e21 == e11

    def test_associator_vanishes(self):
        A = matrix_algebra(2, QQ)
        xs = [Element(A, A.basis_vec(i)) for i in range(4)]
        for a, b, c in product(xs, repeat=3):
            assert associator(a, b, c).coords == {}

    def test_transpose_involution(self):
        A = matrix_algebra(3, QQ, involution="transpose")
        assert A.conj(A.basis_vec(1)) == A.basis_vec(3)  # E12 -> E21

    def test_mismatched_algebras_rejected(self):
        A = matrix_algebra(2, QQ)
        B = matrix_algebra(2, QQ)
        with pytest.raises(ValueError):
            commutator(Element(A, A.basis_vec(0)), Element(B, B.basis_vec(0)))

    def test_tensor_matrix_algebra(self):
        D = matrix_algebra(1, GF(3))
        M = tensor_matrix_algebra(3, D)
        assert M.dim == 9 and M.flags["associative"]


class TestSplitOctonions:
    def test_unit(self, O):
        for i in range(8):
            b = O.basis_vec(i)
            assert O.mul(O.unit, b) == b
            assert O.mul(b, O.unit) == b

    def test_norm_pairing_hyperbolic(self, O):
        # N(x_i, x^j) = delta_ij for the chosen basis
        for i in range(4):
            for j in range(4):
                val = O.norm_bilinear(O.basis_vec(i), O.basis_vec(4 + j))
                assert val == (1 if i == j else 0)

    def test_alternative_but_not_associative(self, O):
        assert O.flags["alternative"]
        assert not O.flags["associative"]
        found = any(
            O.associator(O.basis_vec(i), O.basis_vec(j), O.basis_vec(k))
            for i, j, k in product(range(8), repeat=3)
        )
        assert found

    def test_alt_identities_1_through_4(self, O):
        ring = O.ring
        basis = [O.basis_vec(i) for i in range(8)]
        for a, b in product(basis, repeat=2):
            La, Lb, Ra, Rb = O.L(a), O.L(b), O.R(a), O.R(b)
            ab = O.commutator(a, b)
            lhs1 = _op_bracket(ring, La, Lb)
            rhs1 = _op_axpy(
                ring,
                O.L(ab),
                _op_bracket(ring, La, Rb),
                -2,
            )
            assert lhs1 == rhs1
            lhs2 = _op_bracket(ring, Ra, Rb)
            rhs2 = _op_axpy(
                ring,
                _op_scale(ring, -1, O.R(ab)),
                _op_bracket(ring, La, Rb),
                -2,
            )
            assert lhs2 == rhs2
        for i, j, k in product(range(8), repeat=3):
            a, b, c = basis[i], basis[j], basis[k]
            inner = _op_bracket(ring, O.L(a), O.R(b))
            ab = O.commutator(a, b)
            assoc = O.associator(a, b, c)
            lhs3 = _op_bracket(ring, inner, O.L(c))
            rhs3 = _op_axpy(
                ring, O.L(assoc), _op_bracket(ring, O.L(ab), O.R(c)), -1
            )
            assert lhs3 == rhs3
            lhs4 = _op_bracket(ring, inner, O.R(c))
            rhs4 = _op_axpy(
                ring, O.R(assoc), _op_bracket(ring, O.R(ab), O.L(c))
            )
            assert lhs4 == rhs4

    def test_norm_multiplicative(self, O):
        basis = [O.basis_vec(i) for i in range(8)]
        samples = list(basis)
        for i in range(0, 8, 2):
            samples.append(O.add(basis[i], basis[(i + 3) % 8]))
        samples.append({i: Fraction(i + 1, 2) for i in range(8)})
        samples.append({i: ((-1) ** i) * (i % 3 + 1) for i in range(8)})
        for a in samples:
            for b in samples:
                assert O.norm_scalar(O.mul(a, b)) == O.ring.mul(
                    O.norm_scalar(a), O.norm_scalar(b)
                )

    @pytest.mark.parametrize("ring", [QQ, ZZ, GF(5), GF(7)])
    def test_involution_central(self, ring):
        # fixed points of the standard involution are multiples of 1
        # (characteristic 2 excluded, as in the source theory)
        A = split_octonions(ring)
        for i in range(8):
            b = A.basis_vec(i)
            fixed = A.sub(A.conj(b), b)
            sym = A.add(A.conj(b), b)
            # b + conj(b) is always a multiple of the unit
            A._unit_multiple(sym)
        # skew part has rank 7, symmetric part rank 1
        from rograd.linalg import SparseMatrix, field_rank

        fr = QQ if ring.kind != "Fp" else ring
        conj_rows_minus = []
        conj_rows_plus = []
        for j in range(8):
            b = A.basis_vec(j)
            minus = A.sub(A.conj(b), b)
            plus = A.add(A.conj(b), b)
            conj_rows_minus.append({k: fr.coerce(v) for k, v in minus.items()})
            conj_rows_plus.append({k: fr.coerce(v) for k, v in plus.items()})
        skew_dim = field_rank(SparseMatrix.from_rows(conj_rows_minus, 8, fr))
        sym_dim = field_rank(SparseMatrix.from_rows(conj_rows_plus, 8, fr))
        assert (skew_dim, sym_dim) == (7, 1)

    def test_conjugate_flips_associator_sign(self, O):
        for i, j, k in product(range(8), repeat=3):
            a, b, c = O.basis_vec(i), O.basis_vec(j), O.basis_vec(k)
            lhs = O.associator(O.conj(a), b, c)
            rhs = {m: O.ring.neg(v) for m, v in O.associator(a, b, c).items()}
            assert lhs == rhs


class TestStandardDerivations:
    def test_sd_antisymmetric_and_kills_unit(self, O):
        a, b = O.basis_vec(1), O.basis_vec(5)
        sd = standard_derivation(O, a, b)
        assert _op_apply(O.ring, sd, O.unit) == {}
        sd_aa = standard_derivation(O, a, a)
        assert sd_aa == {}
        sd_ba = standard_derivation(O, b, a)
        assert _op_axpy(O.ring, sd, sd_ba) == {}

    def test_sd_is_derivation(self, O):
        for i, j in [(0, 1), (1, 5), (2, 6), (3, 7), (1, 2)]:
            sd = standard_derivation(O, O.basis_vec(i), O.basis_vec(j))
            assert is_derivation(O, sd)

    def test_sd_span_dimension_14(self, O):
        ops = [
            standard_derivation(O, O.basis_vec(i), O.basis_vec(j))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        assert op_span_dim(ops, O.ring) == 14

    def test_sd_commutes_with_involution(self, O):
        # conj . SD . conj is again a derivation and equals -SD(abar, bbar)-ish;
        # concretely SD(a,b) maps skew to skew: check conj(SD(x)) = SD(conj(x))
        # for the involution-compatible form: SD commutes with z -> zbar on
        # the octonions in the sense conj(SD(a,b)(z)) = SD(abar, bbar)(zbar).
        for i, j in [(1, 5), (2, 7)]:
            a, b = O.basis_vec(i), O.basis_vec(j)
            sd = standard_derivation(O, a, b)
            sd_bar = standard_derivation(O, O.conj(a), O.conj(b))
            for k in range(8):
                z = O.basis_vec(k)
                lhs = O.conj(_op_apply(O.ring, sd, O.conj(z)))
                rhs = _op_apply(O.ring, sd_bar, z)
                assert lhs == rhs

    def test_requires_alternativity(self):
        # build a non-alternative algebra: 2-dim with e1*e1 = e2, e2*x = 0
        from rograd.algebras import StructureAlgebra

        A = StructureAlgebra(QQ, ["a", "b"], {(0, 0): {1: 1}, (0, 1): {1: 1}})
        assert not A.flags["alternative"]
        with pytest.raises(ValueError):
            standard_derivation(A, A.basis_vec(0), A.basis_vec(1))


class TestTrialities:
    def test_lambda_rho_are_trialities(self, O):
        for i in (0, 2, 5):
            assert check_triality(O, lam(O, O.basis_vec(i)))
            assert check_triality(O, rho(O, O.basis_vec(i)))

    def test_lambda_zero(self, O):
        T = lam(O, {})
        assert T.t1 == {}

    def test_sigma_first_component(self, O):
        a, b = O.basis_vec(1), O.basis_vec(6)
        T = sigma(O, a, b)
        assert T.t1 == _op_bracket(O.ring, O.L(a), O.R(b))
        assert check_triality(O, T)

    def test_lambda_lambda_bracket(self, O):
        from rograd.algebras import triality_bracket

        ring = O.ring
        for i, j in [(1, 5), (2, 3), (0, 6)]:
            a, b = O.basis_vec(i), O.basis_vec(j)
            lhs = triality_bracket(lam(O, a), lam(O, b), ring)
            rhs = triality_add(
                Triality(*[_op_axpy(ring, _op_scale(ring, 1, m), m, -3) for m in sigma(O, a, b).components()]),
                lam(O, O.commutator(a, b)),
                ring,
            )
            # -2 sigma + lambda([a,b]): build explicitly
            s = sigma(O, a, b)
            minus2s = Triality(
                *[_op_scale(ring, -2, m) for m in s.components()]
            )
            rhs = triality_add(minus2s, lam(O, O.commutator(a, b)), ring)
            for lm, rm in zip(lhs.components(), rhs.components()):
                assert lm == rm

    def test_rho_rho_bracket(self, O):
        from rograd.algebras import triality_bracket

        ring = O.ring
        for i, j in [(1, 5), (4, 2)]:
            a, b = O.basis_vec(i), O.basis_vec(j)
            lhs = triality_bracket(rho(O, a), rho(O, b), ring)
            s = sigma(O, a, b)
            minus2s = Triality(
                *[_op_scale(ring, -2, m) for m in s.components()]
            )
            rhs = triality_add(minus2s, rho(O, O.commutator(a, b)), ring, sign=-1)
            # -2 sigma(a,b) - rho([a,b])
            rhs = triality_add(
                minus2s,
                Triality(
                    *[
                        _op_scale(ring, -1, m)
                        for m in rho(O, O.commutator(a, b)).components()
                    ]
                ),
                ring,
            )
            for lm, rm in zip(lhs.components(), rhs.components()):
                assert lm == rm

    def test_h_round_trip_on_derivations(self, O):
        a, b = O.basis_vec(1), O.basis_vec(5)
        delta = standard_derivation(O, a, b)
        T = triality_h(O, delta, {}, {})
        assert T.t1 == delta and T.t2 == delta and T.t3 == delta
        back, aa, bb = triality_h_inverse(O, T)
        assert back == delta and aa == {} and bb == {}

    def test_h_round_trip_on_sigma(self, O):
        for i, j in [(1, 5), (2, 6), (3, 4)]:
            T = sigma(O, O.basis_vec(i), O.basis_vec(j))
            delta, a, b = triality_h_inverse(O, T)
            back = triality_h(O, delta, a, b)
            for lm, rm in zip(T.components(), back.components()):
                assert lm == rm
            assert is_derivation(O, delta)

    def test_h_requires_one_third(self):
        Oz = split_octonions(ZZ)
        with pytest.raises(ValueError):
            triality_h_inverse(Oz, lam(Oz, Oz.basis_vec(1)))
        O3 = split_octonions(GF(3))
        with pytest.raises(ValueError):
            triality_h(O3, {}, {}, {})


class TestG1Operators:
    def test_antisymmetry(self, O):
        a = O.basis_vec(2)
        op = g1_operator(O, a, a)
        assert op == {}

    def test_skew_for_norm(self, O):
        for i, j in [(0, 1), (1, 5), (2, 6), (3, 4)]:
            op = g1_operator(O, O.basis_vec(i), O.basis_vec(j))
            for x in range(8):
                for y in range(8):
                    gx = _op_apply(O.ring, op, O.basis_vec(x))
                    gy = _op_apply(O.ring, op, O.basis_vec(y))
                    val = O.ring.add(
                        O.norm_bilinear(gx, O.basis_vec(y)) if gx else 0,
                        O.norm_bilinear(O.basis_vec(x), gy) if gy else 0,
                    )
                    assert val == 0

    def test_span_is_so8(self, O):
        assert op_span_dim(g1_span(O), O.ring) == 28


@st.composite
def incidence_algebras(draw):
    """The incidence algebra of a random partial order on up to four points
    over Q, associative and unital, on a rescaled and relabelled basis."""
    k = draw(st.integers(1, 4))
    below = {(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())}
    for c in range(k):  # transitive closure
        below |= {(a, b) for (a, x) in below for (y, b) in below if x == y == c}
    pairs = [(a, a) for a in range(k)] + sorted(below)
    pairs = draw(st.permutations(pairs))
    pos = {ab: i for i, ab in enumerate(pairs)}
    scale = [Fraction(draw(st.sampled_from([1, -1, 2, 3])), draw(st.integers(1, 3))) for _ in pairs]
    mult = {}
    for (a, b), (c, d) in product(pairs, repeat=2):
        if b == c:  # E_ab E_bd = E_ad, rescaled
            i, j, t = pos[(a, b)], pos[(c, d)], pos[(a, d)]
            mult[(i, j)] = {t: scale[i] * scale[j] / scale[t]}
    unit = {pos[(a, a)]: 1 / scale[pos[(a, a)]] for a in range(k)}
    return StructureAlgebra(QQ, [str(p) for p in pairs], mult, unit=unit)


@st.composite
def random_tables(draw):
    """Sparse multiplication tables on up to five basis vectors, mostly not
    associative: random ones, and incidence algebras with one entry changed."""
    if draw(st.booleans()):
        A = draw(incidence_algebras())
        dim, mult = A.dim, {key: dict(vec) for key, vec in A.mult.items()}
        key = (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
        mult.setdefault(key, {})[draw(st.integers(0, dim - 1))] = draw(st.integers(-2, 2))
    else:
        dim = draw(st.integers(1, 5))
        idx = st.integers(0, dim - 1)
        vec = st.dictionaries(idx, st.integers(-2, 2), max_size=2)
        mult = draw(st.dictionaries(st.tuples(idx, idx), vec, max_size=2 * dim))
    return StructureAlgebra(QQ, [str(i) for i in range(dim)], mult)


@st.composite
def prime_field_tables(draw):
    """Sparse tables over F_2 or F_3 on up to five basis vectors: random
    ones, and unscaled incidence algebras with one entry changed."""
    ring = draw(st.sampled_from([GF(2), GF(3)]))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        below = {(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())}
        below |= {(a, b) for (a, x) in below for (y, b) in below if x == y}
        pairs = [(a, a) for a in range(k)] + sorted(below)
        pos = {ab: i for i, ab in enumerate(pairs)}
        dim = len(pairs)
        mult = {
            (pos[(a, b)], pos[(c, d)]): {pos[(a, d)]: 1}
            for (a, b), (c, d) in product(pairs, repeat=2)
            if b == c
        }
        key = (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
        mult.setdefault(key, {})[draw(st.integers(0, dim - 1))] = draw(st.integers(1, 2))
    else:
        dim = draw(st.integers(1, 5))
        idx = st.integers(0, dim - 1)
        vec = st.dictionaries(idx, st.integers(1, 2), max_size=2)
        mult = draw(st.dictionaries(st.tuples(idx, idx), vec, max_size=2 * dim))
    return StructureAlgebra(ring, [str(i) for i in range(dim)], mult)


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


def _full_scan_flags(A):
    """The law flags from every basis triple and pair."""
    basis = [A.basis_vec(i) for i in range(A.dim)]
    triples = product(range(A.dim), repeat=3)
    assoc = all(not A.associator(basis[i], basis[j], basis[k]) for i, j, k in triples)
    comm = all(
        A.mul(basis[i], basis[j]) == A.mul(basis[j], basis[i])
        for i, j in product(range(A.dim), repeat=2)
    )
    return {
        "associative": assoc,
        "alternative": assoc or _check_alternative(A, basis),
        "commutative": comm,
        "unital": A.unit is not None,
    }


class TestLawFlags:
    """The associativity check visits only the triples (i, j, k) with
    e_i e_j or e_j e_k nonzero; the flags must be those of the full scan."""

    @settings(max_examples=60, deadline=None)
    @given(A=incidence_algebras())
    def test_associative_tables(self, A):
        assert A.flags == _full_scan_flags(A)
        assert A.flags["associative"]

    @settings(max_examples=150, deadline=None)
    @given(A=random_tables())
    def test_random_tables(self, A):
        assert A.flags == _full_scan_flags(A)
        triples = list(A._associator_triples())
        assert len(triples) == len(set(triples))
        assert set(triples) == {
            (i, j, k)
            for i, j, k in product(range(A.dim), repeat=3)
            if A.mult.get((i, j)) or A.mult.get((j, k))
        }

    @settings(max_examples=150, deadline=None)
    @given(A=prime_field_tables())
    def test_prime_field_tables(self, A):
        assert A.flags == _full_scan_flags(A)

    def test_every_two_dimensional_table_over_f2(self):
        # 256 tables.  Over F_2 negation is the identity, so on some, e.g.
        # e1 e0 = e0 and e1 e1 = e0 + e1, every linearization holds and only
        # (x, x, y) != 0 breaks alternativity
        vecs = [{}, {0: 1}, {1: 1}, {0: 1, 1: 1}]
        keys = list(product(range(2), repeat=2))
        for choice in product(vecs, repeat=4):
            A = StructureAlgebra(GF(2), ["0", "1"], dict(zip(keys, choice)))
            assert A.flags == _full_scan_flags(A)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=["Z", "Q", "F2", "F3"])
    def test_split_octonions(self, ring):
        O = split_octonions(ring)
        assert O.flags == _full_scan_flags(O)
        assert O.flags["alternative"] and not O.flags["associative"]

    def test_named_algebras(self):
        for A in (matrix_algebra(3, ZZ), split_octonions(GF(3)), tensor_matrix_algebra(2, _oct(QQ))):
            assert A.flags == _full_scan_flags(A)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize(
        "make",
        [lambda: matrix_algebra(1, ZZ), lambda: matrix_algebra(2, ZZ), lambda: matrix_algebra(2, GF(5))],
        ids=["Z", "M2Z", "M2F5"],
    )
    def test_matrices_over_associative(self, make, K, monkeypatch):
        # M_K(D) takes associativity from D without the associator scan
        M = _unscanned(monkeypatch, K, make())
        assert M.flags["associative"]
        assert M.flags == _full_scan_flags(M)

    @settings(max_examples=30, deadline=None)
    @given(D=incidence_algebras(), K=st.integers(1, 3))
    def test_matrices_over_incidence_algebras(self, D, K):
        with pytest.MonkeyPatch.context() as mp:
            M = _unscanned(mp, K, D)
        assert M.flags == _full_scan_flags(M)

    @pytest.mark.parametrize("K", [1, 2])
    def test_matrices_over_octonions_scanned(self, K):
        M = tensor_matrix_algebra(K, _oct(QQ))
        assert M.flags == _full_scan_flags(M)
        assert not M.flags["associative"]
        assert M.flags["alternative"] == (K == 1)  # M_2(O) is not alternative


def _unscanned(monkeypatch, K, D):
    """tensor_matrix_algebra(K, D) with the associator scan forbidden."""

    def forbidden(self):
        raise AssertionError("associator scan on M_K(D) with D associative")

    monkeypatch.setattr(StructureAlgebra, "_associator_triples", forbidden)
    return tensor_matrix_algebra(K, D)
