import random
import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rograd.linalg import (
    FinitelyPresentedModule,
    IntEchelon,
    LatticeEchelon,
    ModularEchelon,
    ModuleShape,
    SparseMatrix,
    coordinates,
    field_rank,
    kernel_basis,
    module_invariants,
    quotient_shape,
    rank_certified,
    same_span,
    smith_normal_form,
    span,
)
from rograd.rings import GF, QQ, ZZ
from snf_reference import integer_kernel, solve_integer
from snf_reference import smith_normal_form as reference_snf


def dense(data, ring=ZZ):
    return SparseMatrix.from_dense(data, ring)


def snf_diagonal_of(M):
    """The reference SNF with its U*M*V checked, and the factors-only SNF
    checked against it."""
    factors, (U, V) = reference_snf(M)
    D = (U @ M) @ V
    diag = {}
    for (r, c), v in D.entries.items():
        assert r == c, "transformed matrix is not diagonal"
        diag[r] = v
    got = [diag[i] for i in sorted(diag)]
    assert got == factors
    assert smith_normal_form(M) == factors
    return factors, U, V


def det_int(M):
    # Bareiss determinant for small dense integer matrices
    a = [row[:] for row in M.to_dense()]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@st.composite
def sparse_matrices(draw, max_dim=60, max_entry=9, square=False):
    """Integer matrices up to max_dim x max_dim with one to three nonzero
    entries in each row, each at most max_entry in size.  A square one also
    has a nonzero diagonal, so that it is often invertible over Q."""
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
    value = st.integers(1, max_entry) | st.integers(-max_entry, -1)
    row = st.dictionaries(st.integers(0, n - 1), value, min_size=1, max_size=3)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if square:
        for i, r in enumerate(rows):
            r.setdefault(i, draw(value))
    return SparseMatrix.from_rows(rows, n)


def assert_chain(factors):
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(dense([[2, 0], [0, 3]])) == [1, 6]

    def test_identity(self):
        assert smith_normal_form(SparseMatrix.identity(3)) == [1, 1, 1]

    def test_zero_matrix(self):
        assert smith_normal_form(SparseMatrix(2, 4, {})) == []

    def test_transform_unimodularity(self):
        M = dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        factors, U, V = snf_diagonal_of(M)
        assert det_int(U) in (1, -1)
        assert det_int(V) in (1, -1)
        assert factors == [2, 2, 156]  # invariant chain 2 | 2 | 156

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_udv(self, data):
        M = dense(data)
        factors, U, V = snf_diagonal_of(M)
        assert det_int(U) in (1, -1)
        assert det_int(V) in (1, -1)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert all(f > 0 for f in factors)

    def test_requires_integers(self):
        with pytest.raises(ValueError):
            smith_normal_form(dense([[Fraction(1, 2)]], QQ))

    # The tests that need U and V run at up to 10 x 10; the factors-only
    # SNF is tested up to 60 x 60.
    @given(M=sparse_matrices(max_dim=10))
    @settings(max_examples=80, deadline=None)
    def test_sparse_transforms(self, M):
        factors, U, V = snf_diagonal_of(M)
        assert det_int(U) in (1, -1)
        assert det_int(V) in (1, -1)
        assert_chain(factors)
        # module_invariants reduces the rows to a lattice basis before its
        # SNF; the shape read off the SNF of the full matrix is the reference
        full = ModuleShape(M.cols - len(factors), tuple(d for d in factors if d != 1))
        assert module_invariants(FinitelyPresentedModule(ZZ, M.cols, M)) == full

    def test_factors_only_reads_diagonal_modulo_d(self):
        # the Hermite basis is the row (5, 0, 2) with lead 5, so d = 5; its
        # column lattice, which contains 5 * Z, is all of Z because
        # (-5, 0, -2) is primitive
        assert smith_normal_form(dense([[-5, 0, -2]])) == [1]
        assert smith_normal_form(dense([[4, 6]])) == [2]
        assert smith_normal_form(dense([[2, 0], [0, 3]])) == [1, 6]

    @pytest.mark.parametrize("n", (26, 60, 128))
    def test_many_non_unit_leads(self, n):
        # diag(f) * L * R, with L and R unitriangular, has the factors of
        # diag(f); f in {1, 2, 3, 4, 6} leaves 20 to 80 Hermite leads above 1
        rng = random.Random(n)
        f = [rng.choice((1, 2, 3, 4, 6)) for _ in range(n)]

        def unitriangular(lower):
            return [
                [int(i == j) or ((j < i) == lower and rng.random() < 0.1) * rng.choice((-1, 1))
                 for j in range(n)]
                for i in range(n)
            ]

        L, R = unitriangular(True), unitriangular(False)
        M = dense([
            [f[i] * sum(L[i][t] * R[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ])
        lat = LatticeEchelon(hermite=True)
        for row in M.row_dicts():
            lat.add(row)
        assert 20 <= sum(row[min(row)] != 1 for row in lat.basis_rows()) <= 80
        # factor i of diag(f) takes the i-th smallest power of 2 and of 3
        twos = sorted((v & -v).bit_length() - 1 for v in f)
        threes = sorted(int(v % 3 == 0) for v in f)
        chain = [2**a * 3**b for a, b in zip(twos, threes)]
        assert smith_normal_form(M) == chain
        assert reference_snf(M)[0] == chain

    @given(M=sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_factors_only(self, M):
        factors = smith_normal_form(M)
        assert_chain(factors)
        assert len(factors) == field_rank(SparseMatrix(M.rows, M.cols, M.entries, QQ))
        # the transpose has the same factors from another lattice and modulus
        assert smith_normal_form(M.transpose()) == factors

    @given(M=sparse_matrices(square=True))
    @settings(max_examples=40, deadline=None)
    def test_factors_multiply_to_the_determinant(self, M):
        factors = smith_normal_form(M)
        det = det_int(M)
        if det:
            assert len(factors) == M.rows and prod(factors) == abs(det)
        else:
            assert len(factors) < M.rows


class TestKernelBasis:
    def test_identity_kernel_empty(self):
        assert kernel_basis(SparseMatrix.identity(4, QQ)) == []

    def test_zero_matrix_full_kernel(self):
        ker = kernel_basis(SparseMatrix(2, 3, {}, QQ))
        assert len(ker) == 3

    def test_rank_one_row(self):
        ker = kernel_basis(dense([[1, 1, 0]], QQ))
        assert len(ker) == 2
        # vectors annihilated by the matrix
        for vec in ker:
            assert sum(vec.get(c, 0) for c in (0, 1)) == 0

    def test_late_row_with_smaller_lead(self):
        # regression: a later row with a smaller lead must still be cleared
        # at the earlier pivot columns (full reduction of the echelon)
        M = dense([[0, 1, 0, 1], [1, 1, 0, 0]], QQ)
        rows = M.row_dicts()
        for vec in kernel_basis(M):
            for row in rows:
                assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0

    def test_rank_nullity(self):
        M = dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]], QQ)
        assert field_rank(M) + len(kernel_basis(M)) == M.cols

    def test_mod_p(self):
        M = dense([[3, 3], [0, 3]], GF(3))
        assert len(kernel_basis(M)) == 2

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilated(self, data):
        M = dense(data, QQ)
        rows = M.row_dicts()
        for vec in kernel_basis(M):
            for row in rows:
                assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0


def _lattice(rows):
    lat = LatticeEchelon()
    for row in rows:
        lat.add(row)
    return lat


def _annihilates(M, vec):
    return all(sum(v * vec.get(c, 0) for c, v in row.items()) == 0 for row in M.row_dicts())


def _random_sparse(rng, n, max_entry=9):
    """An n x n integer matrix with one to three nonzero entries in each row,
    each at most max_entry in size."""
    rows = []
    for _ in range(n):
        cols = rng.sample(range(n), rng.randint(1, 3))
        rows.append({c: rng.choice([-1, 1]) * rng.randint(1, max_entry) for c in cols})
    return SparseMatrix.from_rows(rows, n)


class TestIntegerKernel:
    """kernel_basis over Z: the pure lattice {x : Mx = 0} from one Hermite
    basis, against the kernel read off the reference SNF's V."""

    @given(M=sparse_matrices(max_dim=10))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference_kernel(self, M):
        ker = kernel_basis(M)
        rank = field_rank(SparseMatrix(M.rows, M.cols, M.entries, QQ))
        assert len(ker) == M.cols - rank
        assert all(_annihilates(M, vec) for vec in ker)
        assert same_span(_lattice(ker), _lattice(integer_kernel(M)))

    def test_large_sparse_inputs_are_fast_and_pure(self):
        # the SNF with unreduced transforms that this kernel replaced took
        # over 3 s on most inputs of this kind, and 16 s on one
        rng = random.Random(20261020)
        nullity = 0
        for _ in range(20):
            M = _random_sparse(rng, 30)
            start = time.perf_counter()
            ker = kernel_basis(M)
            assert time.perf_counter() - start < 2.0
            rank = field_rank(SparseMatrix(M.rows, M.cols, M.entries, QQ))
            assert len(ker) == M.cols - rank
            assert all(_annihilates(M, vec) for vec in ker)
            # pure: Z^n modulo the kernel lattice is free
            if ker:
                assert smith_normal_form(SparseMatrix.from_rows(ker, M.cols)) == [1] * len(ker)
            nullity += len(ker)
        assert nullity > 0

    def test_kernel_is_saturated(self):
        # over Q (1, -1) and (2, -2) span the same kernel; over Z only the
        # first spans it
        assert kernel_basis(dense([[2, 2]])) == [{0: 1, 1: -1}]
        assert kernel_basis(dense([[2, 4]])) == [{0: 2, 1: -1}]
        assert kernel_basis(SparseMatrix.identity(3)) == []
        assert kernel_basis(SparseMatrix(2, 2, {})) == [{0: 1}, {1: 1}]


class TestModuleInvariants:
    def test_z_mod_3(self):
        m = FinitelyPresentedModule(ZZ, 1, dense([[3]]))
        assert module_invariants(m) == ModuleShape(0, (3,))

    def test_free_of_rank_2_over_q(self):
        m = FinitelyPresentedModule(QQ, 2, SparseMatrix(0, 2, {}, QQ))
        assert module_invariants(m) == ModuleShape(2)

    def test_coprime_relations_kill(self):
        m = FinitelyPresentedModule(ZZ, 1, dense([[2], [3]]))
        assert module_invariants(m).is_trivial

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_operation_invariance(self, data, i, j, mult):
        rows = [dict(enumerate(r)) for r in data]
        base = module_invariants(
            FinitelyPresentedModule(ZZ, 3, SparseMatrix.from_rows(rows, 3))
        )
        i %= len(rows)
        j %= len(rows)
        if i != j:
            moved = [dict(r) for r in rows]
            for c in range(3):
                v = moved[i].get(c, 0) + mult * moved[j].get(c, 0)
                if v:
                    moved[i][c] = v
                else:
                    moved[i].pop(c, None)
            redone = module_invariants(
                FinitelyPresentedModule(ZZ, 3, SparseMatrix.from_rows(moved, 3))
            )
            assert redone == base


class TestIntegerLattices:
    def test_integer_kernel(self):
        M = dense([[1, 1, 1]])
        ker = kernel_basis(M)
        assert len(ker) == 2
        for vec in ker:
            assert sum(vec.values()) == 0
        assert ker == [{0: 1, 2: -1}, {1: 1, 2: -1}]

    def test_solve(self):
        # the reference solver, and the lattice membership that replaced it
        M = dense([[2, 1], [0, 3]])
        x = solve_integer(M, {0: 5, 1: 3})
        assert x == {0: 2, 1: 1}
        assert solve_integer(dense([[2]]), {0: 3}) is None
        columns = span(ZZ, 2)
        for col in M.transpose().row_dicts():
            columns.add(col)
        assert columns.contains({0: 5, 1: 3})
        assert not columns.contains({0: 5, 1: 2})

    def test_lattice_echelon_membership(self):
        lat = LatticeEchelon()
        lat.add({0: 2, 1: 0})
        lat.add({0: 0, 1: 2})
        assert lat.contains({0: 2, 1: -4})
        assert not lat.contains({0: 1})
        grew = lat.add({0: 1, 1: 1})
        assert grew
        assert lat.contains({0: 1, 1: 1})
        assert not lat.contains({0: 1})

    def test_int_echelon_tracked_solve(self):
        originals = {0: {0: 2, 1: 0}, 1: {0: 1, 1: 1}}
        coords = coordinates(QQ, [originals[0], originals[1]], 2)({0: 3, 1: 1})
        assert coords is not None
        # reconstruct: coords refer to basis indices
        rebuilt = {}
        for k, coef in coords.items():
            for c, v in originals[k].items():
                rebuilt[c] = rebuilt.get(c, Fraction(0)) + coef * v
        assert rebuilt == {0: Fraction(3), 1: Fraction(1)}


class TestModularEngine:
    def test_streaming_rank(self):
        rng = np.random.default_rng(7)
        A = rng.integers(-4, 5, size=(40, 12))
        rows = [{c: int(v) for c, v in enumerate(row) if v} for row in A]
        ech = ModularEchelon(12)
        ech.add_batch(rows[:17])
        ech.add_batch(rows[17:])
        exact = IntEchelon()
        for row in A:
            exact.add({c: int(v) for c, v in enumerate(row) if v})
        assert ech.rank == exact.rank

    def test_certified_rank(self):
        rows = [{0: 1, 1: 2}, {1: 1}, {0: 1, 1: 3}]
        assert rank_certified(lambda: iter(rows), 2, 2) == 2
        rows2 = [{0: 2}, {0: 3}]
        assert rank_certified(lambda: iter(rows2), 2, 2) == 1

    def test_fp_kernel(self):
        ech = ModularEchelon(3, p=5)
        ech.add_batch([{0: 1, 1: 2}, {2: 1}])
        ker = ech.kernel()
        assert len(ker) == 1
        assert ker[0] == {1: 1, 0: (-2) % 5}


class TestSubquotient:
    """ker(u)/R through quotient_shape, for u = one row on three columns."""

    def test_z_subquotient(self):
        # ker [1 1 1] over Z modulo 3 * (1,-1,0)
        u_cols = {c: {0: 1} for c in range(3)}
        _, shape = quotient_shape(ZZ, lambda: iter([{0: 3, 1: -3}]), 3, u_cols, 1)
        assert shape == ModuleShape(1, (3,))

    def test_field_subquotient(self):
        # ker [1 -1 0] over Q = span{(1,1,0), (0,0,1)}, modulo (0,0,2)
        u_cols = {0: {0: 1}, 1: {0: -1}}
        _, shape = quotient_shape(QQ, lambda: iter([{2: 2}]), 3, u_cols, 1)
        assert shape == ModuleShape(1)

    def test_relation_outside_span_rejected(self):
        # ker u = Z e_0, and the relation e_1 lies outside it
        with pytest.raises(AssertionError, match="relation outside ker u"):
            quotient_shape(ZZ, lambda: iter([{1: 1}]), 2, {1: {0: 1}}, 1)


class TestSerialization:
    def test_round_trip(self):
        M = SparseMatrix(2, 3, {(0, 0): Fraction(1, 2), (1, 2): -3}, QQ)
        data = M.to_json()
        assert ["0", "0", "1/2"] == [str(x) for x in data["entries"][0]]
        back = SparseMatrix.from_json(data, QQ)
        assert back == M

    def test_matmul(self):
        A = dense([[1, 2], [0, 1]])
        B = dense([[1, 0], [3, 1]])
        assert (A @ B).to_dense() == [[7, 2], [3, 1]]
