from fractions import Fraction

import pytest

from rograd.roots import Weight, build, dot, three_grading, vadd, vneg

EXPECTED_COUNTS = {
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 3): 18,
    ("C", 3): 18,
    ("D", 4): 24,
    ("D", 5): 40,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("F", 4): 48,
    ("G", 2): 12,
}

UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)]
    + [(t, r) for t in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

SMALL = [("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("letter,rank", sorted(EXPECTED_COUNTS))
def test_cardinalities(letter, rank):
    R = build(letter, rank)
    assert len(R.nonzero_roots) == EXPECTED_COUNTS[(letter, rank)]
    assert R.zero in R.roots


@pytest.mark.parametrize("letter,rank", SMALL + [("E", 6)])
def test_root_system_axioms(letter, rank):
    R = build(letter, rank)
    for a in R.nonzero_roots:
        assert R.pairing(a, a) == 2
        # reducedness
        assert all(
            tuple(k * c for c in a) not in R.roots for k in (2, 3, -2, -3)
        )
        for b in R.nonzero_roots:
            assert R.reflect(a, b) in R.roots
            assert isinstance(R.pairing(b, a), int)
    # reflections are involutions on sample weights
    x = Weight([Fraction(1, 3)] + [0] * (R.ambient_dim - 1))
    a = R.nonzero_roots[0]
    assert R.reflect(a, R.reflect(a, x)) == x


def test_build_rejects_bad_input():
    for bad in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build(*bad)


class TestPairing:
    @pytest.mark.parametrize("letter,rank", UP_TO_RANK_8)
    def test_integral_pairings_are_ints(self, letter, rank):
        R = build(letter, rank)
        simple = R.simple_roots()
        for a in R.nonzero_roots:
            assert all(type(R.pairing(a, b)) is int for b in simple)
        for i, w in enumerate(R.fundamental_weights()):
            for j, a in enumerate(simple):
                val = R.pairing(w, a)
                assert type(val) is int and val == (i == j)

    def test_non_integral_pairings_are_fractions(self):
        R = build("A", 2)
        assert R.pairing((1, 0, 0), (1, 1, 1)) == Fraction(2, 3)
        third = Weight((Fraction(1, 3), 0, 0))
        assert R.pairing(third, (1, -1, 0)) == Fraction(1, 3)
        assert type(R.pairing(third, (1, -1, 0))) is Fraction
        half = Weight((Fraction(1, 2), Fraction(-1, 2), 0))
        assert type(R.pairing(half, (1, -1, 0))) is int
        assert type(R.pairing((True, False, False), (1, -1, 0))) is int

    def test_a2_values(self):
        R = build("A", 2)
        assert R.pairing((1, -1, 0), (1, 0, -1)) == 1

    def test_orthogonal_in_d4(self):
        R = build("D", 4)
        assert R.pairing((1, 1, 0, 0), (0, 0, 1, 1)) == 0

    def test_zero_root_rejected(self):
        R = build("A", 2)
        with pytest.raises(ValueError):
            R.pairing((1, -1, 0), (0, 0, 0))


class TestReflect:
    def test_reflect_self(self):
        R = build("A", 2)
        a = (1, -1, 0)
        assert R.reflect(a, a) == vneg(a)

    def test_orthogonal_fixed(self):
        R = build("D", 4)
        assert R.reflect((1, 1, 0, 0), (0, 0, 1, -1)) == (0, 0, 1, -1)

    def test_a2_example(self):
        R = build("A", 2)
        assert R.reflect((1, -1, 0), (1, 0, -1)) == (0, 1, -1)


class TestWeylOrbit:
    def test_root_orbit_a2(self):
        R = build("A", 2)
        orbit = R.weyl_orbit((1, -1, 0))
        assert orbit == set(R.nonzero_roots)

    def test_orbit_of_zero(self):
        R = build("B", 3)
        assert R.weyl_orbit((0, 0, 0)) == {(0, 0, 0)}

    def test_double_second_weight_a3(self):
        R = build("A", 3)
        omega = R.fundamental_weights()[1]
        doubled = tuple(2 * c for c in omega.coords)
        orbit = R.weyl_orbit(doubled)
        expected = set()
        for v in [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1)]:
            expected.add(v)
            expected.add(vneg(v))
        assert orbit == expected

    @pytest.mark.parametrize("letter,rank", UP_TO_RANK_8)
    def test_simple_vs_full_reflection_orbits(self, letter, rank):
        R = build(letter, rank)
        simple_roots = R.simple_roots()
        vectors = [R.nonzero_roots[0], R.long_roots()[0]]
        vectors.append(next(r for r in R.nonzero_roots if dot(r, r) == R.short_norm))
        if rank <= 6:  # the full orbit costs |orbit| * |R| reflections
            vectors.append(vadd(simple_roots[0], simple_roots[-1]))
        # fundamental weights of A_n and E_6 have fractional coordinates;
        # E_7's (here omega_1 and omega_7) are integral in the scaled model
        weights = R.fundamental_weights()
        if letter == "A":
            vectors += [w.coords for w in weights[:2] + weights[-1:]]
        elif letter == "E" and rank < 8:
            vectors += [weights[0].coords, weights[-1].coords]
        for x in vectors:
            full = R._orbit(x, R.nonzero_roots)
            simple = R._orbit(x, simple_roots)
            assert full == simple
            assert full == R.weyl_orbit(Weight(x))
            integral = all(type(c) is int for c in x)
            assert all(all(type(c) is int for c in v) == integral for v in full)


class TestFundamentalWeights:
    @pytest.mark.parametrize(
        "letter,rank",
        SMALL + [("A", 1), ("B", 4), ("B", 5), ("C", 5), ("D", 5), ("E", 6), ("E", 7), ("E", 8)],
    )
    def test_duality(self, letter, rank):
        R = build(letter, rank)
        simple = R.simple_roots()
        for i, w in enumerate(R.fundamental_weights()):
            for j, a in enumerate(simple):
                assert R.pairing(w, a) == (1 if i == j else 0)

    def test_a3_middle_weight(self):
        R = build("A", 3)
        w = R.fundamental_weights()[1]
        assert w.coords == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(-1, 2),
        )

    def test_c2_first_weight(self):
        R = build("C", 2)
        w = R.fundamental_weights()[0]
        assert tuple(2 * c for c in w.coords) == (2, 0)

    def test_bad_base_rejected(self):
        R = build("A", 2)
        with pytest.raises(ValueError):
            R.fundamental_weights(base=[(1, -1, 0), (-1, 1, 0)])

    @pytest.mark.parametrize(
        "letter,base,message",
        [
            ("A", [(1, -1, 0)], "base has wrong size"),
            ("A", [(1, -1, 0), (-1, 1, 0)], "base is not linearly independent"),
            ("A", [(1, -1, 0), (1, 1, 0)], r"\(1, 1, 0\) is not a root"),
            # (1, 1) is half of (2, 0) + (0, 2)
            ("C", [(2, 0), (0, 2)], "base does not generate the root lattice"),
            # (1, 0, -1) is alpha_1 minus the second base root
            ("A", [(1, -1, 0), (0, -1, 1)], "base is not a root basis"),
        ],
    )
    def test_bad_base_messages(self, letter, base, message):
        with pytest.raises(ValueError, match=message):
            build(letter, 2).fundamental_weights(base=base)


class TestThreeGradings:
    def test_a2_collinear(self):
        R = build("A", 2)
        g = three_grading(R, "collinear")
        assert g.one == frozenset({(1, -1, 0), (1, 0, -1)})

    def test_c3_hermitian(self):
        R = build("C", 3)
        g = three_grading(R, "hermitian")
        assert len(g.one) == 6
        assert (2, 0, 0) in g.one and (1, 1, 0) in g.one

    def test_g2_not_graded(self):
        R = build("G", 2)
        with pytest.raises(ValueError):
            three_grading(R, "collinear")

    @pytest.mark.parametrize(
        "letter,rank,kind",
        [
            ("A", 3, "rectangular"),
            ("B", 3, "odd-quadratic"),
            ("C", 4, "hermitian"),
            ("D", 4, "even-quadratic"),
            ("D", 4, "alternating"),
            ("D", 5, "alternating"),
        ],
    )
    def test_grading_invariants(self, letter, rank, kind):
        R = build(letter, rank)
        g = three_grading(R, kind, part=2)
        # R_1 + R_1 never lands in R; -R_1 = R_{-1}
        for a in g.one:
            for b in g.one:
                assert vadd(a, b) not in R.roots
        assert g.minus_one == frozenset(vneg(r) for r in g.one)


class TestRootStrings:
    def test_orthogonal_simply_laced(self):
        R = build("A", 3)
        s = R.root_string((1, -1, 0, 0), (0, 0, 1, -1))
        assert s == [(1, -1, 0, 0)]

    def test_a2_string(self):
        R = build("A", 2)
        s = R.root_string((1, -1, 0), (0, 1, -1))
        assert s == [(1, -1, 0), (1, 0, -1)]

    def test_g2_short_long(self):
        R = build("G", 2)
        alpha = (1, -1, 0)  # short
        beta = (-2, 1, 1)  # long, <alpha, beta-check> = -1
        assert R.pairing(alpha, beta) == -1
        s = R.root_string(alpha, beta)
        assert len(s) == 2

    def test_gap_freeness_everywhere(self):
        R = build("G", 2)
        for a in R.nonzero_roots:
            for b in R.nonzero_roots:
                s = R.root_string(a, b)  # raises on a gap
                assert a in s


def test_json_export_deterministic():
    R = build("A", 2)
    data = R.to_json()
    assert data["type"] == "A" and data["rank"] == 2
    assert data["roots"] == sorted(data["roots"])
    assert len(data["roots"]) == 7  # six nonzero plus zero
