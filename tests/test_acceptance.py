"""Acceptance criteria, one test per criterion.

Each test prints a `[PASS] criterion N` line with its runtime (visible with
pytest -s or -rA).  All comparisons are exact: set equality for tables,
module normal forms for kernels, zero violations in the property suites.
"""
import time
from itertools import product

import pytest

from rograd.algebras import (
    g1_span,
    matrix_algebra,
    split_octonions,
    standard_derivation,
)
from rograd.centext import (
    angle,
    kernel_report,
    octonion_angle_kernel,
    star_kernel,
    uce,
)
from rograd.degsums import degenerate_sums_algorithm, degenerate_sums_bruteforce
from rograd.jordan import (
    albert_algebra,
    hermitian_algebra,
    hermitian_grid,
    peirce,
    rectangular_pair,
)
from rograd.lie import (
    assign_root_grading,
    ider,
    sl_algebra,
    star_module,
    structural_predicates,
    tkk,
)
from rograd.linalg import IntEchelon, ModuleShape, _op_axpy, _op_bracket, _op_scale, op_span_dim
from rograd.rings import GF, QQ, ZZ
from rograd.roots import build, three_grading, vneg


def _report(n, started, detail=""):
    print(f"[PASS] criterion {n}: {detail} ({time.time() - started:.1f}s)")


def pm(*vecs):
    out = set()
    for v in vecs:
        out.add(tuple(v))
        out.add(vneg(v))
    return out


def signs(n):
    return {s for s in product((1, -1), repeat=n)}


def two_eps(n, coef=2):
    out = set()
    for i in range(n):
        v = [0] * n
        v[i] = coef
        out.add(tuple(v))
        out.add(vneg(tuple(v)))
    return out


CLASSIFICATION_TABLES = {
    ("A", 2): {3: pm((1, -2, 1), (1, 1, -2), (2, -1, -1))},
    ("A", 3): {2: pm((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))},
    ("B", 3): {2: two_eps(3) | signs(3)},
    ("B", 4): {2: two_eps(4) | signs(4)},
    ("B", 5): {2: two_eps(5)},
    ("C", 2): {2: two_eps(2) | pm((2, 2), (2, -2))},
    ("C", 3): {
        2: two_eps(3)
        | pm((2, 2, 0), (2, -2, 0), (2, 0, 2), (2, 0, -2), (0, 2, 2), (0, 2, -2))
    },
    ("C", 5): {
        2: two_eps(5)
        | {
            tuple(a + b for a, b in zip(u, v))
            for u in two_eps(5)
            for v in two_eps(5)
            if sum(x * y for x, y in zip(u, v)) == 0
        }
    },
    ("D", 4): {2: two_eps(4) | signs(4)},
    ("D", 5): {2: two_eps(5)},
    ("E", 6): {},
    ("E", 7): {},
    ("E", 8): {},
    ("F", 4): {2: two_eps(4) | signs(4)},
    ("G", 2): {
        2: {tuple(2 * c for c in v) for v in pm((1, -1, 0), (1, 0, -1), (0, 1, -1))},
        3: {tuple(3 * c for c in v) for v in pm((1, -1, 0), (1, 0, -1), (0, 1, -1))},
    },
}


def test_criterion_01_classification_tables():
    t0 = time.time()
    for (letter, rank), expected in sorted(CLASSIFICATION_TABLES.items()):
        R = build(letter, rank)
        for report in (degenerate_sums_bruteforce(R), degenerate_sums_algorithm(R)):
            assert set(report.by_divisor) == set(expected), (letter, rank)
            for n, vecs in expected.items():
                assert report.by_divisor[n] == frozenset(vecs), (letter, rank, n)
    _report(1, t0, f"{len(CLASSIFICATION_TABLES)} classification table rows, both classifier paths")


def test_criterion_02_algorithm_bruteforce_agreement():
    t0 = time.time()
    supported = (
        [("A", r) for r in range(1, 7)]
        + [("B", r) for r in range(2, 7)]
        + [("C", r) for r in range(2, 7)]
        + [("D", r) for r in range(4, 7)]
        + [("G", 2), ("F", 4), ("E", 6)]
    )
    checked = 0
    for letter, rank in supported:
        if letter == "A" and rank == 1:
            continue  # A_1 handled as C_1 in the source theory; not built here
        R = build(letter, rank)
        assert degenerate_sums_algorithm(R) == degenerate_sums_bruteforce(R)
        checked += 1
    _report(2, t0, f"agreement on {checked} supported systems incl. empty results")


def test_criterion_03_octonion_suite():
    t0 = time.time()
    O = split_octonions(QQ)
    sd_ops = [
        standard_derivation(O, O.basis_vec(i), O.basis_vec(j))
        for i in range(8)
        for j in range(i + 1, 8)
    ]
    assert op_span_dim(sd_ops, QQ) == 14
    assert angle(O).module == ModuleShape(14)
    assert octonion_angle_kernel(O) == (14, 14, 0)
    # alternative identities 1-4 on all 8^3 basis triples
    ring = O.ring
    basis = [O.basis_vec(i) for i in range(8)]
    for a, b in product(basis, repeat=2):
        ab = O.commutator(a, b)
        assert _op_bracket(ring, O.L(a), O.L(b)) == _op_axpy(
            ring, O.L(ab), _op_bracket(ring, O.L(a), O.R(b)), -2
        )
        assert _op_bracket(ring, O.R(a), O.R(b)) == _op_axpy(
            ring,
            _op_scale(ring, -1, O.R(ab)),
            _op_bracket(ring, O.L(a), O.R(b)),
            -2,
        )
    for a, b, c in product(basis, repeat=3):
        inner = _op_bracket(ring, O.L(a), O.R(b))
        ab = O.commutator(a, b)
        assoc = O.associator(a, b, c)
        assert _op_bracket(ring, inner, O.L(c)) == _op_axpy(
            ring, O.L(assoc), _op_bracket(ring, O.L(ab), O.R(c)), -1
        )
        assert _op_bracket(ring, inner, O.R(c)) == _op_axpy(
            ring, O.R(assoc), _op_bracket(ring, O.R(ab), O.L(c))
        )
    _report(3, t0, "StanDer=14, <O,O>=14, kernel 0, alt ids on 8^3 triples")


def test_criterion_04_sl3q_vs_tkk():
    t0 = time.time()
    V = rectangular_pair(1, 2, matrix_algebra(1, QQ))
    L = tkk(V)
    S = sl_algebra(3, matrix_algebra(1, QQ))
    for alg in (L, S):
        assert alg.dim == 8
        preds = structural_predicates(alg)
        assert preds["is_perfect"] and preds["centre_basis"] == []
        assert uce(alg).total_kernel().is_trivial
    # matching graded shapes: 6 one-dimensional root spaces + 2-dim L_0
    from rograd.jordan import rectangular_grid

    G = assign_root_grading(
        L,
        rectangular_grid(1, 2, matrix_algebra(1, QQ)),
        three_grading(build("A", 2), "collinear"),
    )
    g_dims = sorted(len(v) for v in G.degree_blocks().values())
    s_dims = sorted(len(v) for v in S.degree_blocks().values())
    assert g_dims == s_dims == [1, 1, 1, 1, 1, 1, 2]
    _report(4, t0, "dim 8, perfect, centreless, uce kernel 0, matching gradings")


def test_criterion_05_uce_sl3_z():
    t0 = time.time()
    L = sl_algebra(3, matrix_algebra(1, ZZ))
    u = uce(L)
    R = build("A", 2)
    rep = kernel_report(u, R, "sl3(Z)")
    ds = degenerate_sums_bruteforce(R).by_divisor[3]
    nonzero_kernel = {
        d for d, s in rep.by_degree.items() if not s.is_trivial
    }
    assert nonzero_kernel == set(ds)
    for d in ds:
        assert rep.by_degree[d] == ModuleShape(0, (3,))
    zero_key = (0, 0, 0)
    assert rep.by_degree[zero_key].is_trivial  # (ker u)_0 = HC_1(Z) = 0
    for d, blk in u.blocks.items():
        if rep.classification.get(d) == "root":
            assert blk.bijective
    _report(5, t0, "six Z/3 blocks exactly on DS(A_2,3); root blocks bijective")


def test_criterion_06_uce_sl4_sl5_z():
    t0 = time.time()
    Dz = matrix_algebra(1, ZZ)
    u4 = uce(sl_algebra(4, Dz))
    R4 = build("A", 3)
    rep4 = kernel_report(u4, R4, "sl4(Z)")
    ds4 = degenerate_sums_bruteforce(R4).by_divisor[2]
    nonzero = {d for d, s in rep4.by_degree.items() if not s.is_trivial}
    assert nonzero == set(ds4) and len(ds4) == 6
    for d in ds4:
        assert rep4.by_degree[d] == ModuleShape(0, (2,))
    assert rep4.by_degree[(0, 0, 0, 0)].is_trivial  # HC_1(Z) = 0
    u5 = uce(sl_algebra(5, Dz))
    assert all(not any(d) for d in u5.kernel_degrees())
    _report(6, t0, "sl4(Z): six Z/2 blocks, trivial degree 0; sl5(Z): degree 0 only")


def test_criterion_07_albert_suite():
    t0 = time.time()
    A = albert_algebra(QQ)
    assert A.dim == 27
    I = ider(A)
    assert I.dim == 52
    S = star_module(A)
    es = [A.basis_vec(i) for i in range(3)]
    dec = peirce(A, es)
    out = S.decompose(dec)
    assert out["dim_star"] == 52 and out["hc"].is_trivial
    assert out["dim_D"] == 24 and out["ud_D"].dim == 24
    assert out["dim_D0"] == 28 and out["ud_D0"].dim == 28
    # ud(D_0) restricted to the P_3 Peirce block equals the g1 span
    O = A.albert_data["octonions"]
    p_idx = A.albert_data["p_idx"]
    block = [p_idx(2, t) for t in range(8)]
    pos = {c: t for t, c in enumerate(block)}
    restricted = []
    for op in out["ud_D0"].basis:
        small = {}
        for j, col in op.items():
            if j in pos:
                entries = {pos.get(i): v for i, v in col.items()}
                assert None not in entries, "D_0 action leaves the Peirce block"
                small[pos[j]] = entries
        restricted.append(small)
    g1 = g1_span(O)
    assert op_span_dim(restricted, QQ) == 28
    assert op_span_dim(g1, QQ) == 28
    assert op_span_dim(restricted + g1, QQ) == 28  # equal spans
    L = tkk(A.pair())
    assert L.dim == 133
    u = uce(L)
    assert u.total_kernel().is_trivial
    _report(7, t0, "27/52/133; J*J = D_0(+)D (24+28); ud(D_0) = g1 span; uce kernel 0")


def test_criterion_08_octonion_tkk_simply_connected():
    t0 = time.time()
    O = split_octonions(QQ)
    V = rectangular_pair(1, 2, O)
    L = tkk(V)
    assert L.dim == 78
    u = uce(L)
    assert u.total_kernel().is_trivial
    _report(8, t0, "dim TKK(M(1,2,O)) = 78 and uce kernel 0 (simply connected)")


def test_criterion_09_property_suites():
    t0 = time.time()
    from rograd.verify import SUITES, run_suites

    ok, lines = run_suites(list(SUITES))
    for line in lines:
        print(" ", line)
    assert ok, "property suite violations:\n" + "\n".join(
        l for l in lines if "[FAIL]" in l
    )
    _report(9, t0, f"verify --suite all: {len(lines)} checks, zero violations")


def test_criterion_10_c_type_h4():
    t0 = time.time()
    D = matrix_algebra(1, QQ, involution="identity")
    J = hermitian_algebra(4, D)
    assert star_kernel(J).is_trivial
    L = tkk(J.pair())
    u = uce(L)
    assert u.total_kernel().is_trivial
    G = assign_root_grading(
        L, hermitian_grid(J), three_grading(build("C", 4), "hermitian")
    )
    R = build("C", 4)
    assert set(G.support()) == set(map(tuple, R.roots))
    _report(10, t0, "H4(Q): ud_JA kernel 0, uce kernel 0, support = C_4")
