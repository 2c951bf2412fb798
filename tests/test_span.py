"""The one span interface of linalg: each ring's backend against the generic
references (FieldEchelon over fields, the SNF with transforms of
snf_reference over Z), kernels read off the spans, quotient_shape against
the per-ring computations it replaced, and the structural bound of
rank_certified over F_p."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rograd.algebras import matrix_algebra
from rograd.centext import uce
from rograd.lie import OperatorLieAlgebra, sl_algebra
from rograd.linalg import (
    FieldEchelon,
    FinitelyPresentedModule,
    IntEchelon,
    LatticeEchelon,
    ModularEchelon,
    ModuleShape,
    SparseMatrix,
    _op_axpy,
    _op_flatten,
    coordinates,
    field_rank,
    integer_kernel_mod_relations,
    kernel_basis,
    module_invariants,
    quotient_shape,
    rank_certified,
    same_span,
    span,
)
from rograd.rings import GF, QQ, ZZ
from snf_reference import integer_solver, smith_normal_form

PRIMES = (2, 5, 2**61 - 1)


def sparse_rows(value, max_cols=10, max_rows=14):
    """(ncols, rows, probe): random sparse rows (0-3 entries each) and one
    extra vector to test for membership."""
    row = lambda n: st.dictionaries(st.integers(0, n - 1), value, max_size=3)
    return st.integers(1, max_cols).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(row(n), max_size=max_rows), row(n))
    )


INTS = st.one_of(st.integers(-6, 6), st.integers(-(10**20), 10**20))
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


def _reference(ring, ncols, rows):
    ref = FieldEchelon(ring)
    for row in rows:
        ref.add(row)
    return ref


def _ref_contains(ref, vec):
    residual, _ = ref.reduce(vec)
    return not residual


def _independent(ring, rows):
    """The rows that raise the rank over the field of the ring (Q over Z),
    in order."""
    ref = FieldEchelon(QQ if ring.kind == "Z" else ring)
    return [row for row in rows if ref.add(row)]


def _ref_coordinates(ring, basis, vec):
    """Oracle for coordinates: a tracked FieldEchelon of the basis over the
    field (Q over Z), its coefficients coerced into the ring (which raises
    over Z on a fraction); None outside the span."""
    ref = FieldEchelon(QQ if ring.kind == "Z" else ring, track=True)
    for row in basis:
        ref.add(row)
    residual, coords = ref.reduce(vec)
    if residual:
        return None
    coords = {k: ring.coerce(c) for k, c in coords.items()}
    return {k: c for k, c in coords.items() if not ring.is_zero(c)}


def _check_coordinates(ring, rows, probes, ncols):
    """coordinates of the independent rows against the oracle on probes;
    a dependent list gives None."""
    basis = _independent(ring, rows)
    if len(basis) < len(rows):
        assert coordinates(ring, rows, ncols) is None
    solve = coordinates(ring, basis, ncols)
    for vec in probes:
        try:
            expected = _ref_coordinates(ring, basis, vec)
        except ValueError:
            with pytest.raises(ValueError, match="not an integer"):
                solve(vec)
            continue
        got = solve(vec)
        assert got == expected
        if got is not None:
            assert _rebuilds(ring, basis, vec, {}, got)


def _rebuilds(ring, rows, vec, residual, coords):
    """vec == sum(coords[k] * rows[k]) + residual, mod p over F_p."""
    total = dict(residual)
    for k, coef in coords.items():
        for c, v in rows[k].items():
            total[c] = total.get(c, 0) + coef * v
    diff = [Fraction(vec.get(c, 0)) - total.get(c, 0) for c in set(vec) | set(total)]
    if ring.kind == "Fp":
        return all(d % ring.p == 0 for d in diff)
    return not any(diff)


class TestFieldBackends:
    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=sparse_rows(INTS))
    def test_fp_matches_field_echelon(self, p, data):
        ncols, rows, probe = data
        ring = GF(p)
        ech = span(ring, ncols)
        assert isinstance(ech, ModularEchelon)
        grew = [ech.add(row) for row in rows]
        ref = FieldEchelon(ring)
        assert grew == [ref.add(row) for row in rows]
        assert ech.rank == ref.rank
        assert ech.basis_rows() == [ref.pivots[c][0] for c in sorted(ref.pivots)]
        assert ech.is_full(ncols) == (ref.rank == ncols)
        assert ech.contains(probe) == _ref_contains(ref, probe)
        for row in rows:
            assert ech.contains(row)

    @settings(max_examples=80, deadline=None)
    @given(data=sparse_rows(RATIONALS))
    def test_q_matches_field_echelon(self, data):
        ncols, rows, probe = data
        ech = span(QQ, ncols)
        assert isinstance(ech, IntEchelon)
        grew = [ech.add(row) for row in rows]
        ref = _reference(QQ, ncols, [])
        assert grew == [ref.add(row) for row in rows]
        assert ech.rank == ref.rank
        # primitive integer rows; divided by their lead they are the
        # lead-1 rows of the generic echelon
        lead_one = [
            {c: Fraction(v, row[min(row)]) for c, v in row.items()}
            for row in ech.basis_rows()
        ]
        assert lead_one == [ref.pivots[c][0] for c in sorted(ref.pivots)]
        assert ech.is_full(ncols) == (ref.rank == ncols)
        assert ech.contains(probe) == _ref_contains(ref, probe)

    @pytest.mark.parametrize("ring", [QQ, GF(5), GF(2**61 - 1)], ids=str)
    @settings(max_examples=50, deadline=None)
    @given(data=sparse_rows(RATIONALS))
    def test_tracked_reduce_rebuilds_the_vector(self, ring, data):
        """coordinates against the tracked reduce of FieldEchelon: the same
        coefficients, which rebuild the vector, and None outside the span."""
        ncols, rows, probe = data
        if ring.kind == "Fp":
            rows = [{c: ring.coerce(v.numerator) for c, v in r.items()} for r in rows]
            probe = {c: ring.coerce(v.numerator) for c, v in probe.items()}
        _check_coordinates(ring, rows, rows + [probe], ncols)


class TestLatticeBackend:
    @settings(max_examples=80, deadline=None)
    @given(data=sparse_rows(INTS))
    def test_z_matches_snf(self, data):
        ncols, rows, probe = data
        lat = span(ZZ, ncols)
        for row in rows:
            lat.add(row)
        # rank over Q
        assert lat.rank == _reference(QQ, ncols, rows).rank
        # all of Z^n exactly when Z^n / lattice is trivial
        rel = SparseMatrix.from_rows(rows, ncols, ZZ) if rows else SparseMatrix(0, ncols, {})
        quotient = module_invariants(FinitelyPresentedModule(ZZ, ncols, rel))
        assert lat.is_full(ncols) == quotient.is_trivial
        # membership: probe is an integer combination of the rows
        if rows:
            # one reference SNF of the relations serves every right-hand side
            solve = integer_solver(rel.transpose())
            in_lattice = solve({c: v for c, v in probe.items() if v})
            assert lat.contains(probe) == (in_lattice is not None)
            for row in lat.basis_rows():
                assert solve(row) is not None
        for row in rows:
            assert lat.contains(row)
        leads = [min(row) for row in lat.basis_rows()]
        assert leads == sorted(leads)

    @settings(max_examples=80, deadline=None)
    @given(data=sparse_rows(INTS))
    def test_z_quotient_matches_full_snf(self, data):
        """The reference for test_z_matches_snf, whose module_invariants goes
        through a lattice basis too: the quotient read off the SNF, with
        transforms, of the full relation matrix."""
        ncols, rows, _ = data
        rel = SparseMatrix.from_rows(rows, ncols, ZZ) if rows else SparseMatrix(0, ncols, {})
        factors, _ = smith_normal_form(rel)
        full = ModuleShape(ncols - len(factors), tuple(d for d in factors if d != 1))
        assert module_invariants(FinitelyPresentedModule(ZZ, ncols, rel)) == full
        lat = span(ZZ, ncols)
        for row in rows:
            lat.add(row)
        assert lat.is_full(ncols) == full.is_trivial

    @settings(max_examples=80, deadline=None)
    @given(data=sparse_rows(INTS), order=st.randoms(use_true_random=False))
    def test_hermite_basis(self, data, order):
        ncols, rows, probe = data
        plain, herm = LatticeEchelon(), LatticeEchelon(hermite=True)
        for row in rows:
            assert herm.add(row) == plain.add(row)
        assert same_span(herm, plain)
        assert herm.contains(probe) == plain.contains(probe)
        # the same leads; every entry in a later pivot column is reduced
        leads = {c: row[c] for c, row in herm.pivots.items()}
        assert leads == {c: row[c] for c, row in plain.pivots.items()}
        for lead, row in herm.pivots.items():
            assert min(row) == lead
            for c, v in row.items():
                if c != lead and c in leads:
                    assert 0 <= v < leads[c]
        # the Hermite normal form depends only on the lattice
        shuffled = LatticeEchelon(hermite=True)
        for row in order.sample(rows, len(rows)):
            shuffled.add(row)
        assert shuffled.basis_rows() == herm.basis_rows()

    @settings(max_examples=40, deadline=None)
    @given(data=sparse_rows(INTS))
    def test_z_tracked_coordinates_are_rational(self, data):
        """Over Z coordinates solves over Q: the rational coefficients of
        the oracle, or ValueError where one of them is not an integer."""
        ncols, rows, probe = data
        _check_coordinates(ZZ, rows, rows + [probe], ncols)

    def test_z_tracked_coordinates_need_not_be_integral(self):
        solve = coordinates(ZZ, [{0: 2}], 1)
        assert solve({0: -4}) == {0: -2}
        assert solve({}) == {}
        with pytest.raises(ValueError, match="not an integer"):
            solve({0: 1})


def _ring_op(ring, op):
    """op with its entries coerced into ring and zeros dropped."""
    out = {}
    for j, col in op.items():
        col = {i: ring.coerce(v) for i, v in col.items()}
        col = {i: v for i, v in col.items() if not ring.is_zero(v)}
        if col:
            out[j] = col
    return out


def _tracked_express(L, op):
    """Reference coordinates of op in the basis of L, by _ref_coordinates."""
    n = L.carrier_dim
    basis = [_op_flatten(b, n) for b in L.basis]
    return _ref_coordinates(L.ring, basis, _op_flatten(op, n))


class TestOperatorCoordinates:
    @pytest.mark.parametrize("ring", [QQ, ZZ, GF(5), GF(2**61 - 1)], ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_express_matches_tracked_span(self, ring, data):
        n = data.draw(st.integers(1, 3))
        value = RATIONALS if ring.kind == "Q" else st.integers(-4, 4)
        col = st.dictionaries(st.integers(0, n - 1), value, max_size=2)
        op = st.dictionaries(st.integers(0, n - 1), col, max_size=2)
        gens = [_ring_op(ring, g) for g in data.draw(st.lists(op, max_size=4))]
        L = OperatorLieAlgebra(ring, n, gens, closure_check=False)
        probes = [_ring_op(ring, g) for g in data.draw(st.lists(op, max_size=3))]
        # a combination of the generators lies in the span; over Z its
        # rational coefficients can give coordinates that are not integers
        coef = st.integers(-4, 4) if ring.kind == "Fp" else RATIONALS
        combo = {}
        for g in gens:
            _op_axpy(QQ, combo, g, data.draw(coef))
        if ring.kind != "Z" or all(
            Fraction(v).denominator == 1 for col in combo.values() for v in col.values()
        ):
            probes.append(_ring_op(ring, combo))
        for probe in probes:
            try:
                expected = _tracked_express(L, probe)
            except ValueError:
                with pytest.raises(ValueError):
                    L.express(probe)
            else:
                assert L.express(probe) == expected

    def test_express_over_z_rejects_a_fractional_coordinate(self):
        L = OperatorLieAlgebra(ZZ, 1, [{0: {0: 2}}], closure_check=False)
        assert L.express({0: {0: -4}}) == {0: -2}
        assert L.express({0: {0: 0}}) == {}
        with pytest.raises(ValueError, match="not an integer"):
            L.express({0: {0: 1}})


class TestCoordinates:
    @pytest.mark.parametrize("ring", [QQ, ZZ, GF(5)], ids=str)
    def test_dependent_basis_gives_none(self, ring):
        assert coordinates(ring, [{0: 1, 1: 2}, {1: 1}, {0: 2, 1: 1}], 2) is None
        assert coordinates(ring, [{0: 1}, {0: 3}], 2) is None
        assert coordinates(ring, [{}], 2) is None

    @pytest.mark.parametrize("ring", [QQ, ZZ, GF(5)], ids=str)
    def test_vector_outside_the_span_gives_none(self, ring):
        solve = coordinates(ring, [{0: 1, 2: 1}, {1: 1}], 3)
        assert solve({0: 1}) is None
        assert solve({2: 1}) is None
        assert solve({0: 2, 1: -1, 2: 2}) == {0: ring.coerce(2), 1: ring.coerce(-1)}

    def test_fractional_coordinate_over_z_raises(self):
        solve = coordinates(ZZ, [{0: 2}], 1)
        with pytest.raises(ValueError, match="not an integer"):
            solve({0: 1})
        # over Q the same solve is exact
        assert coordinates(QQ, [{0: 2}], 1)({0: 1}) == {0: Fraction(1, 2)}


class TestKernels:
    @pytest.mark.parametrize("ring", [QQ, GF(2), GF(5), GF(2**61 - 1)], ids=str)
    @settings(max_examples=50, deadline=None)
    @given(data=sparse_rows(RATIONALS))
    def test_kernel_basis(self, ring, data):
        ncols, rows, _ = data
        if ring.kind == "Fp":
            rows = [{c: v.numerator for c, v in r.items()} for r in rows]
        M = SparseMatrix.from_rows(rows, ncols, ring) if rows else SparseMatrix(0, ncols, {}, ring)
        ker = kernel_basis(M)
        ref = _reference(ring, ncols, M.row_dicts())
        assert len(ker) == ncols - ref.rank == ncols - field_rank(M)
        free = []
        for vec in ker:
            own = [c for c in vec if c not in ref.pivots]
            assert len(own) == 1 and vec[own[0]] == 1
            free.append(own[0])
            for row in M.row_dicts():
                dot = sum(Fraction(v) * vec.get(c, 0) for c, v in row.items())
                assert ring.is_zero(ring.coerce(dot)) if ring.kind == "Q" else dot % ring.p == 0
        assert free == sorted(set(free))

    def test_kernel_basis_over_z(self):
        # over Q the kernel vector with entry 1 in its free column is
        # (-3/2, 1); over Z the kernel lattice is spanned by (3, -2)
        M = SparseMatrix.from_rows([{0: 2, 1: 3}], 2, ZZ)
        assert kernel_basis(SparseMatrix(1, 2, M.entries, QQ)) == [{0: Fraction(-3, 2), 1: 1}]
        assert kernel_basis(M) == [{0: 3, 1: -2}]
        assert kernel_basis(SparseMatrix.identity(2, ZZ)) == []


class TestQuotientShape:
    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
    def test_every_uce_sl3_block_matches_the_per_ring_result(self, ring):
        L = sl_algebra(3, matrix_algebra(1, ring))
        u = uce(L)
        blocks = L.degree_blocks()
        for d, gens in u._gen_blocks.items():
            m = len(gens)
            target = blocks.get(d, [])
            tpos = {b: p for p, b in enumerate(target)}
            u_cols = {}
            for p, (i, j) in enumerate(gens):
                col = {tpos[t]: v for t, v in L.bracket_basis(i, j).items()}
                if col:
                    u_cols[p] = col
            rows = list(u._relation_rows(d, gens))
            got = quotient_shape(ring, lambda: iter(rows), m, u_cols, len(target))
            if ring.kind == "Z":
                want = integer_kernel_mod_relations(u_cols, len(target), rows, m)
            else:
                if ring.kind == "Fp":
                    ech = ModularEchelon(m, ring.p)
                    ech.add_batch(rows)
                else:
                    ech = IntEchelon()
                    for row in rows:
                        ech.add(row)
                dim = m - ech.rank
                want = (ModuleShape(dim), ModuleShape(dim - len(target)))
            assert got == want, d
            assert (u.blocks[d].uce_shape, u.blocks[d].kernel_shape) == got


    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=str)
    def test_relations_beyond_ker_u_raise_over_a_field(self, ring):
        # u has rank 1 on two generators, so R fits in a line; two
        # independent relations cannot lie in ker u
        rows = [{0: 1}, {1: 1}]
        with pytest.raises(AssertionError, match="relation outside ker u"):
            quotient_shape(ring, lambda: iter(rows), 2, {0: {0: 1}}, 1)

    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=str)
    def test_a_relation_outside_ker_u_raises_over_a_field(self, ring):
        # ker u = k e_0, and the one relation e_1 has rank 1 <= dim ker u:
        # only applying u to the row shows that it lies outside ker u
        with pytest.raises(AssertionError, match=r"relation outside ker u \(relation row 0\)"):
            quotient_shape(ring, lambda: iter([{1: 1}]), 2, {1: {0: 1}}, 1)


class TestRankCertifiedOverFp:
    def test_too_small_a_bound_raises(self):
        rows = [{0: 1}, {1: 1}, {0: 1, 1: 1}]
        with pytest.raises(AssertionError, match="rank exceeds its structural upper bound"):
            rank_certified(lambda: iter(rows), 2, 1, GF(5))

    def test_rank_mod_p_not_over_q(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 5}]
        # over F_5 the rows span only the line of (1, 2)
        assert rank_certified(lambda: iter(rows), 2, 2, GF(5)) == 1
        assert rank_certified(lambda: iter(rows), 2, 2) == 2

    def test_stops_at_the_bound(self):
        # the bound is checked after each batch of rows: the stream is not
        # read past the batch that reaches it
        def rows():
            for _ in range(2048):
                yield {0: 1}
            yield {1: 1}
            for _ in range(2048):
                yield {0: 1, 1: 3}
            raise AssertionError("streamed past the bound")

        assert rank_certified(rows, 2, 2, GF(7)) == 2
