import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rograd.jordan as jordan
from rograd.algebras import matrix_algebra, split_octonions
from rograd.jordan import (
    JordanAlgebra,
    JordanPair,
    _families,
    _index_windows,
    _pair_from_q,
    _slot_groups,
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
from rograd.linalg import _op_apply
from rograd.rings import GF, QQ, ZZ
from rograd.roots import build, three_grading


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
        rep = verify_pair_identities(V, budget=10_000)
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

    def test_pair_identities_of_h3(self, DQ):
        V = hermitian_algebra(3, DQ).pair()
        rep = verify_pair_identities(V, budget=8_000)
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
# the identity verifier: slot-symmetry orbits, reports and failure messages
# ---------------------------------------------------------------------------

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

# instances per family on one sign, in _FAMILY_KEYS order, and the mode of
# each (e = exhaustive, w = windowed)
_REPORTS = {
    "M12O": (
        [256, 4096, 5056, 256, 4096, 4096, 5776, 256, 4096, 4096, 5776, 4096, 5776,
         5056, 24016, 20416, 96976],
        "eeweeeweeewewwwww",
    ),
    "H4Q": (
        [100, 1000, 10000, 100, 1000, 1000, 10000, 100, 1000, 1000, 10000, 1000,
         10000, 10000, 12064, 9760, 50752],
        "eeeeeeeeeeeeeewww",
    ),
    "H3Q": (
        [36, 216, 1296, 36, 216, 216, 1296, 36, 216, 216, 1296, 216, 1296, 1296,
         7776, 7776, 20992],
        "eeeeeeeeeeeeeeeew",
    ),
}


def _expected(counts, modes):
    """The report of a pair with dim V+ = dim V-, whose two signs report alike."""
    return [
        (key, (count, 0, "exhaustive" if mode == "e" else "windowed"))
        for key, count, mode in zip(_FAMILY_KEYS, counts * 2, modes * 2)
    ]


def _exhaustive(d):
    """Report of a pair with dim V+ = dim V- = d checked exhaustively."""
    # numbers of (a, b) slots per family, in _FAMILY_KEYS order
    slots = [(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1), (1, 2),
             (2, 1), (2, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    return _expected([d ** (a + b) for a, b in slots], "e" * 17)


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
        rep = verify_pair_identities(V, budget=10_000)
        assert V.dim(1) == V.dim(-1)
        assert list(rep.items()) == _exhaustive(V.dim(1))

    def test_report_h3(self, DQ):
        rep = verify_pair_identities(hermitian_algebra(3, DQ).pair(), budget=8_000)
        assert list(rep.items()) == _expected(*_REPORTS["H3Q"])

    def test_report_octonion_pair(self):
        rep = verify_pair_identities(rectangular_pair(1, 2, split_octonions(QQ)))
        assert list(rep.items()) == _expected(*_REPORTS["M12O"])
        assert sum(c for c, _, _ in rep.values()) == 388384
        assert sum(mode == "exhaustive" for _, _, mode in rep.values()) == 18

    def test_report_h4(self, DQ):
        rep = verify_pair_identities(hermitian_algebra(4, DQ).pair())
        assert list(rep.items()) == _expected(*_REPORTS["H4Q"])
        assert sum(c for c, _, _ in rep.values()) == 257752
        assert sum(mode == "exhaustive" for _, _, mode in rep.values()) == 28

    def test_corrupted_h3(self, DQ):
        V = hermitian_algebra(3, DQ).pair()
        V.Qlin[1][(0, 3)][0][1] = 5
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V, budget=8_000)
        assert str(exc.value) == "Jordan pair identity JP1(3;1)@+ fails at (3, 0)"

    def test_corrupted_octonion_pair(self):
        V = rectangular_pair(1, 2, split_octonions(QQ))
        V.Qlin[-1][max(V.Qlin[-1])].setdefault(3, {})[2] = 7
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V, budget=8_000)
        assert str(exc.value) == "Jordan pair identity JP1(2,1;1)@+ fails at (3, 6, 14)"

    def test_corrupted_first_failure_in_a_group(self, DQ):
        # windowed: the first failing grid's least failing tuple has three
        # distinct entries in the {a, c, e} group of JP1(1,1,1;1)
        V = rectangular_pair(2, 3, DQ)
        V.Qdiag[-1][5].setdefault(2, {})[1] = 5
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V, budget=100, window=3)
        assert str(exc.value) == "Jordan pair identity JP1(1,1,1;1)@+ fails at (0, 2, 5, 5)"

    def test_window_below_two_rejected(self, DQ, M12):
        for window in (1, 0):
            with pytest.raises(ValueError):
                verify_pair_identities(M12, window=window)
            with pytest.raises(ValueError):
                verify_pair_identities(rectangular_pair(2, 2, DQ), budget=10, window=window)


# ---------------------------------------------------------------------------
# the identity verifier: each distinct tuple of the grids decided once, with
# values and messages pinned from plain composition of every term on every
# tuple of every grid
# ---------------------------------------------------------------------------


def _kinds(slots):
    """The slot string without brackets: "a[aa][bb]" gives "aaabb"."""
    return "".join(kind * size for kind, size in _slot_groups(slots))


def _grid_union(slots, dims, budget, window):
    """The distinct tuples of every grid the verifier checks for a family
    with these slots, read off the grids themselves."""
    kinds = _kinds(slots)
    if prod(dims[kind] for kind in kinds) <= budget:
        windows = {kind: [range(d)] for kind, d in dims.items()}
    else:
        windows = {kind: _index_windows(d, window) for kind, d in dims.items()}
    return {
        t
        for wa, wb in product(windows["a"], windows["b"])
        for t in product(*(wa if kind == "a" else wb for kind in kinds))
    }


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


def _scan_first_failure(V, bad, budget, window):
    """The failure message of a plain scan of every tuple of every grid in
    order, for families failing exactly on the orbits bad[sign, name]."""
    for sign in (1, -1):
        size = {"a": V.dim(sign), "b": V.dim(-sign)}
        for name, slots in _family_slots():
            kinds = _kinds(slots)
            if prod(size[kind] for kind in kinds) <= budget:
                windows = {kind: [range(d)] for kind, d in size.items()}
            else:
                windows = {kind: _index_windows(d, window) for kind, d in size.items()}
            for wa, wb in product(windows["a"], windows["b"]):
                for t in product(*(wa if kind == "a" else wb for kind in kinds)):
                    if _orbit_rep(t, slots) in bad[sign, name]:
                        key = f"{name}@{'+' if sign == 1 else '-'}"
                        return f"Jordan pair identity {key} fails at {t}"
    return None


class TestDistinctTuples:
    @pytest.mark.parametrize(
        "pair,dim,budget", [("M12O", 16, 50_000), ("H4Q", 10, 50_000), ("H3Q", 6, 8_000)]
    )
    def test_recorded_instances_are_distinct_tuples(self, pair, dim, budget):
        counts, modes = _REPORTS[pair]
        dims = {"a": dim, "b": dim}
        slots = [s for _, s in _family_slots()]
        assert [len(_grid_union(s, dims, budget, 4)) for s in slots] == counts
        windowed = [dim ** sum(ch in "ab" for ch in s) > budget for s in slots]
        assert windowed == [mode == "w" for mode in modes]

    def test_each_grid_tuple_evaluated_once(self, DQ, monkeypatch):
        calls = Counter()
        families = jordan._families

        def counted(V, sign):
            def wrap(name, value):
                def traced(*t):
                    calls[sign, name, t] += 1
                    return value(*t)

                return traced

            return [(name, slots, wrap(name, value)) for name, slots, value in families(V, sign)]

        monkeypatch.setattr(jordan, "_families", counted)
        V = rectangular_pair(2, 3, DQ)
        rep = verify_pair_identities(V, budget=100, window=3)
        assert set(calls.values()) == {1}
        expected = set()
        for sign in (1, -1):
            dims = {"a": V.dim(sign), "b": V.dim(-sign)}
            for name, slots in _family_slots():
                union = _grid_union(slots, dims, 100, 3)
                key = f"{name}@{'+' if sign == 1 else '-'}"
                assert rep[key][0] == len(union), key
                expected |= {(sign, name, _orbit_rep(t, slots)) for t in union}
        assert set(calls) == expected
        assert sum(mode == "windowed" for _, _, mode in rep.values()) == 2 * 14

    @pytest.mark.parametrize("seed", range(12))
    def test_first_failure_is_least_of_first_failing_grid(self, monkeypatch, seed):
        # families failing on random slot-group orbits, against a plain scan
        # of every tuple of every grid in order
        rng = random.Random(seed)
        V = _random_pair(6, 5, seed=seed)
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

        expected = _scan_first_failure(V, bad, budget=50, window=3)
        monkeypatch.setattr(jordan, "_families", fake)
        if expected is None:
            verify_pair_identities(V, budget=50, window=3)
        else:
            with pytest.raises(AssertionError) as exc:
                verify_pair_identities(V, budget=50, window=3)
            assert str(exc.value) == expected

    def test_family_values_as_recorded(self, DQ):
        # digests recorded with plain left-to-right composition of every term
        assert _value_digest(_random_pair(4, 3, seed=11)) == "26bce5f9bf423d1c"
        assert _value_digest(hermitian_algebra(3, DQ).pair()) == "921f566e029a4567"

    def test_corrupted_failure_in_two_windows(self, DQ):
        # windowed: (6, 9, 6) lies in the a-windows (6, 7, 8, 9) and
        # (0, 3, 6, 9) and in three b-windows; message as recorded before
        # tuples were owned by their first grid
        V = hermitian_algebra(4, DQ).pair()
        V.Qlin[-1][(6, 8)].setdefault(9, {})[0] = -1
        with pytest.raises(AssertionError) as exc:
            verify_pair_identities(V, budget=100, window=4)
        assert str(exc.value) == "Jordan pair identity JP1(2,1;1)@+ fails at (6, 9, 6)"


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
