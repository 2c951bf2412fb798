"""Property suites behind `rograd verify`.

Each suite returns a list of (check name, ok, detail) triples; a suite
passes when every check is ok.  The checks are deterministic and exact.
"""
from __future__ import annotations

import time


def _check(results, name, fn):
    t0 = time.time()
    try:
        detail = fn()
        results.append((name, True, f"{detail if detail is not None else 'ok'} ({time.time() - t0:.1f}s)"))
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        results.append((name, False, f"{type(exc).__name__}: {exc}"))


def suite_linalg():
    from .linalg import (
        FinitelyPresentedModule,
        ModuleShape,
        SparseMatrix,
        field_rank,
        kernel_basis,
        module_invariants,
        smith_normal_form,
    )
    from .rings import QQ, ZZ

    results = []

    def snf_props():
        import random

        rng = random.Random(20260808)
        for trial in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            data = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            M = SparseMatrix.from_dense(data)
            factors, (U, V) = smith_normal_form(M)
            D = (U @ M) @ V
            for (r, c), v in D.entries.items():
                assert r == c
            got = [v for (r, c), v in sorted(D.entries.items())]
            assert got == factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
        return "40 random SNF transforms verified"

    def rank_nullity():
        import random

        rng = random.Random(77)
        for trial in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            data = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            M = SparseMatrix.from_dense(data, QQ)
            assert field_rank(M) + len(kernel_basis(M)) == n
        return "rank + nullity = cols on 40 samples"

    def row_op_invariance():
        M1 = SparseMatrix.from_dense([[2, 4], [6, 8]])
        M2 = SparseMatrix.from_dense([[2, 4], [0, -4]])  # r2 -= 3 r1
        s1 = module_invariants(FinitelyPresentedModule(ZZ, 2, M1))
        s2 = module_invariants(FinitelyPresentedModule(ZZ, 2, M2))
        assert s1 == s2
        return str(s1)

    _check(results, "snf unimodular transforms", snf_props)
    _check(results, "rank-nullity over Q", rank_nullity)
    _check(results, "module invariants row-op invariant", row_op_invariance)
    return results


def suite_roots():
    from .roots import build

    results = []
    types = [
        ("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4),
        ("F", 4), ("G", 2), ("E", 6),
    ]

    def axioms():
        for t, r in types:
            R = build(t, r)
            for a in R.nonzero_roots:
                assert R.pairing(a, a) == 2
                for b in R.nonzero_roots:
                    assert R.reflect(a, b) in R.roots
                    assert isinstance(R.pairing(b, a), int)
                for k in (2, 3, -2, -3):
                    assert tuple(k * c for c in a) not in R.roots
        return f"{len(types)} systems: closure, integrality, reducedness"

    def strings():
        for t, r in [("A", 3), ("B", 3), ("G", 2), ("C", 3)]:
            R = build(t, r)
            for a in R.nonzero_roots:
                for b in R.nonzero_roots:
                    R.root_string(a, b)  # raises on a gap or overlength
        return "root strings gap-free"

    def gradings():
        from .roots import three_grading, vadd, vneg

        cases = [
            ("A", 3, "rectangular"), ("A", 4, "collinear"),
            ("B", 3, "odd-quadratic"), ("C", 4, "hermitian"),
            ("D", 4, "even-quadratic"), ("D", 5, "alternating"),
        ]
        for t, r, kind in cases:
            R = build(t, r)
            g = three_grading(R, kind, part=2)
            for a in g.one:
                assert vneg(a) in g.minus_one
                for b in g.one:
                    assert vadd(a, b) not in R.roots
        return f"{len(cases)} three-gradings verified"

    _check(results, "root system axioms", axioms)
    _check(results, "root strings", strings)
    _check(results, "three-gradings", gradings)
    return results


def suite_degsums():
    from .degsums import degenerate_sums_algorithm, degenerate_sums_bruteforce
    from .roots import build, dot

    results = []
    supported = (
        [("A", r) for r in range(2, 7)]
        + [("B", r) for r in range(2, 7) if r >= 2]
        + [("C", r) for r in range(2, 7)]
        + [("D", r) for r in range(4, 7)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )

    def agreement():
        for t, r in supported:
            if t == "B" and r == 2:
                continue  # B_2 = C_2; the C model is the supported one
            R = build(t, r)
            assert degenerate_sums_algorithm(R) == degenerate_sums_bruteforce(R)
        return f"{len(supported) - 1} systems agree with brute force"

    def pair_lemmas():
        for t, r in [("A", 2), ("A", 3), ("B", 4), ("C", 3), ("G", 2)]:
            R = build(t, r)
            rep = degenerate_sums_bruteforce(R)
            for n, vecs in rep.by_divisor.items():
                for gamma in vecs:
                    scaled = tuple(R.coord_scale * c for c in gamma)
                    pairs = rep.pairs[gamma]
                    assert pairs
                    found = False
                    for pair in pairs:
                        a, b = [tuple(R.coord_scale * c for c in x) for x in pair]
                        beta = a if dot(a, a) >= dot(b, b) else b
                        if R.pairing(scaled, beta) == n:
                            found = True
                    assert found, "longer-summand pairing lemma"
                    if n == 2:
                        assert any(
                            R.pairing(
                                tuple(R.coord_scale * c for c in tuple(p)[0]),
                                tuple(R.coord_scale * c for c in tuple(p)[1]),
                            )
                            == 0
                            for p in pairs
                        ), "orthogonal-pair lemma"
        return "divisor lemmas hold on classified sums"

    _check(results, "algorithm = brute force", agreement)
    _check(results, "degenerate pair lemmas", pair_lemmas)
    return results


def suite_algebras():
    from .algebras import (
        check_triality,
        is_derivation,
        lam,
        rho,
        sigma,
        split_octonions,
        standard_derivation,
    )
    from .linalg import _op_apply, _op_axpy, _op_bracket, op_span_dim
    from .rings import GF, QQ, ZZ

    results = []

    def alt_ids():
        from itertools import product

        for ring in (QQ, ZZ, GF(5)):
            O = split_octonions(ring)
            basis = [O.basis_vec(i) for i in range(8)]
            for a, b in product(basis, repeat=2):
                ab = O.commutator(a, b)
                lhs = _op_bracket(ring, O.L(a), O.L(b))
                rhs = _op_axpy(ring, O.L(ab), _op_bracket(ring, O.L(a), O.R(b)), -2)
                assert lhs == rhs
        return "alternative identity on 3 rings"

    def derivations():
        O = split_octonions(QQ)
        ops = []
        for i in range(8):
            for j in range(i + 1, 8):
                sd = standard_derivation(O, O.basis_vec(i), O.basis_vec(j))
                ops.append(sd)
        for sd in ops[:8]:
            assert is_derivation(O, sd)
            assert _op_apply(O.ring, sd, O.unit) == {}
        assert op_span_dim(ops, O.ring) == 14
        return "StanDer span = 14, Leibniz holds"

    def trialities():
        O = split_octonions(QQ)
        for i, j in [(0, 5), (1, 6), (2, 3)]:
            assert check_triality(O, lam(O, O.basis_vec(i)))
            assert check_triality(O, rho(O, O.basis_vec(j)))
            assert check_triality(O, sigma(O, O.basis_vec(i), O.basis_vec(j)))
        return "lambda/rho/sigma trialities"

    def g1s():
        O = split_octonions(QQ)
        from .algebras import g1_span

        assert op_span_dim(g1_span(O), O.ring) == 28
        return "g1 span = so(8)"

    _check(results, "alternative identities", alt_ids)
    _check(results, "standard derivations", derivations)
    _check(results, "trialities", trialities)
    _check(results, "g1 operators", g1s)
    return results


def suite_jordan(budget: int = 50_000):
    from .algebras import matrix_algebra, split_octonions
    from .jordan import (
        albert_algebra,
        hermitian_algebra,
        peirce,
        rectangular_pair,
        verify_pair_identities,
    )
    from .rings import QQ

    results = []
    DQ = matrix_algebra(1, QQ, involution="identity")

    def identities():
        modes = {}
        pairs = {
            "M(1,2,Q)": rectangular_pair(1, 2, DQ),
            "M(1,3,Q)": rectangular_pair(1, 3, DQ),
            "M(2,2,Q)": rectangular_pair(2, 2, DQ),
            "M(1,2,O)": rectangular_pair(1, 2, split_octonions(QQ)),
            "H3(Q)": hermitian_algebra(3, DQ).pair(),
            "H4(Q)": hermitian_algebra(4, DQ).pair(),
            "Albert": albert_algebra(QQ).pair(),
        }
        for name, V in pairs.items():
            rep = verify_pair_identities(V, budget=budget)
            assert all(v == 0 for (_, v, _) in rep.values())
            modes[name] = sorted({m for (_, _, m) in rep.values()})
        return "; ".join(f"{k}:{'/'.join(v)}" for k, v in modes.items())

    def peirce_rules():
        for J in (
            hermitian_algebra(3, DQ),
            hermitian_algebra(4, DQ),
            albert_algebra(QQ),
        ):
            m = 3 if J.dim != 10 else 4
            es = [J.basis_vec(i) for i in range(m)]
            peirce(J, es)  # verifies rules 1-5 internally
        return "Peirce rules on H3(Q), H4(Q), Albert"

    _check(results, "jordan pair identities + linearizations", identities)
    _check(results, "peirce multiplication rules", peirce_rules)
    return results


def suite_lie():
    from .algebras import matrix_algebra, split_octonions
    from .jordan import (
        hermitian_algebra,
        hermitian_grid,
        rectangular_grid,
        rectangular_pair,
    )
    from .lie import assign_root_grading, sl_algebra, structural_predicates, tkk
    from .rings import GF, QQ, ZZ
    from .roots import build, three_grading

    results = []

    def constructions():
        DQ = matrix_algebra(1, QQ, involution="identity")
        algebras = [
            tkk(rectangular_pair(1, 2, DQ)),
            tkk(rectangular_pair(1, 3, DQ)),
            tkk(hermitian_algebra(3, DQ).pair()),
            sl_algebra(3, matrix_algebra(1, ZZ)),
            sl_algebra(3, matrix_algebra(1, GF(3))),
            sl_algebra(4, matrix_algebra(1, ZZ)),
        ]
        for L in algebras:
            assert L.jacobi_ok
        return f"{len(algebras)} constructions pass Jacobi and degree checks"

    def grid_isomorphisms():
        # ad e_beta^- : L_alpha -> L_{alpha-beta} is an isomorphism whenever
        # <alpha, beta-check> = 1 (checked in TKK coordinates)
        from .jordan import verify_grid
        from .linalg import span

        DQ = matrix_algebra(1, QQ, involution="identity")
        cases = [
            (
                rectangular_pair(1, 3, DQ),
                rectangular_grid(1, 3, DQ),
                three_grading(build("A", 3), "collinear"),
            ),
            (
                hermitian_algebra(3, DQ).pair(),
                None,
                three_grading(build("C", 3), "hermitian"),
            ),
        ]
        J3 = hermitian_algebra(3, DQ)
        cases[1] = (J3.pair(), hermitian_grid(J3), cases[1][2])
        checked = 0
        for V, fam, g in cases:
            L = tkk(V)
            rep = verify_grid(V, fam, g)
            assert rep.ok
            R = g.system
            n, k = L.n_plus, L.inner.dim
            ring = L.ring
            G = assign_root_grading(L, fam, g)
            blocks = G.degree_blocks()
            for alpha in fam:
                for beta in fam:
                    if alpha == beta or R.pairing(alpha, beta) != 1:
                        continue
                    target = tuple(a - b for a, b in zip(alpha, beta))
                    src = rep.joint[alpha][1]
                    tgt = blocks.get(target, [])
                    assert len(src) == len(tgt), "graded component dims differ"
                    fm = {n + k + j: v for j, v in fam[beta][1].items()}
                    ech = span(ring, L.dim)
                    count = sum(
                        1
                        for x in src
                        if ech.add(L.bracket_vec(dict(x), fm))
                    )
                    assert count == len(src), "grid transport not injective"
                    checked += 1
        return f"{checked} transport isomorphisms verified"

    _check(results, "lie constructions", constructions)
    _check(results, "grid transport isomorphisms", grid_isomorphisms)
    return results


def suite_centext():
    from .algebras import matrix_algebra
    from .jordan import hermitian_algebra, rectangular_pair
    from .lie import sl_algebra, tkk, uider
    from .centext import cocycle_extension, d2, d3, hc1, kernel_report, uce
    from .rings import GF, QQ, ZZ
    from .roots import build

    results = []

    def torsion_law():
        Dz = matrix_algebra(1, ZZ)
        for k, rs in ((3, build("A", 2)), (4, build("A", 3))):
            L = sl_algebra(k, Dz)
            u = uce(L)
            rep = kernel_report(u, rs, f"sl{k}(Z)")  # raises if torsion law fails
            for d, shape in rep.by_degree.items():
                cls = rep.classification[d]
                if cls.startswith("degenerate_sum"):
                    n = int(cls.split("(")[1][:-1])
                    assert all(n % f == 0 for f in shape.torsion)
        return "n_gamma kills every degenerate-sum block (A_2, A_3 over Z)"

    def cocycles():
        for p in (None, 2, 3):
            ring = ZZ if p is None else GF(p)
            Dp = matrix_algebra(1, ring)
            e2 = cocycle_extension(sl_algebra(3, Dp), "A2", Dp)
            assert e2.is_perfect()
            e3 = cocycle_extension(sl_algebra(4, Dp), "A3", Dp)
            assert e3.is_perfect()
            # composite uce -> L (+) Z -> L agrees with u: projecting the
            # extension bracket of lifted generators returns [x, y]
            L = e2.L
            one = ring.coerce(1)
            for i in range(L.dim):
                for j in range(i + 1, L.dim):
                    lifted = e2.bracket(({i: one}, {}), ({j: one}, {}))
                    assert e2.project(lifted) == L.bracket_basis(i, j)
        return "A2/A3 cocycle laws exhaustive over Z, F_2, F_3"

    def uce_zero_iso():
        DQ = matrix_algebra(1, QQ, involution="identity")
        for V in (rectangular_pair(1, 2, DQ), hermitian_algebra(3, DQ).pair()):
            L = tkk(V)
            u = uce(L)
            blk = u.blocks[(0,)]
            ud = uider(V)
            assert blk.uce_shape.free_rank == ud.dim_over_field()
            assert not blk.uce_shape.torsion
        return "uce(L)_0 matches uider(V) (normal forms)"

    def uce_perfect():
        Dz = matrix_algebra(1, ZZ)
        u = uce(sl_algebra(3, Dz))
        assert u.verify_perfect()
        u2 = uce(sl_algebra(3, matrix_algebra(1, GF(3))))
        assert u2.verify_perfect()
        return "uce(L) perfect (direct span test)"

    _check(results, "torsion law on DS blocks", torsion_law)
    _check(results, "2-cocycle laws", cocycles)
    _check(results, "uce degree-0 vs uider", uce_zero_iso)
    _check(results, "uce perfectness", uce_perfect)
    return results


SUITES = {
    "linalg": suite_linalg,
    "roots": suite_roots,
    "degsums": suite_degsums,
    "algebras": suite_algebras,
    "jordan": suite_jordan,
    "lie": suite_lie,
    "centext": suite_centext,
}


def run_suites(names):
    """Run the named suites; returns (all_ok, lines)."""
    lines = []
    all_ok = True
    for name in names:
        for check, ok, detail in SUITES[name]():
            all_ok &= ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {check} -- {detail}")
    return all_ok, lines
