from fractions import Fraction
from itertools import product

import pytest

from rograd.degsums import (
    degenerate_pairs,
    degenerate_sums_algorithm,
    degenerate_sums_bruteforce,
    divisor,
)
from rograd.roots import RootSystem, build, vneg

from degsums_reference import degenerate_sums_reference


def pm(*vecs):
    out = set()
    for v in vecs:
        out.add(tuple(v))
        out.add(vneg(v))
    return out


def signs(n, coef=1):
    return {tuple(coef * s for s in signs) for signs in product((1, -1), repeat=n)}


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
    ("C", 3): {2: two_eps(3) | pm((2, 2, 0), (2, -2, 0), (2, 0, 2), (2, 0, -2), (0, 2, 2), (0, 2, -2))},
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
        2: {
            tuple(2 * c for c in v)
            for v in pm((1, -1, 0), (1, 0, -1), (0, 1, -1))
        },
        3: {
            tuple(3 * c for c in v)
            for v in pm((1, -1, 0), (1, 0, -1), (0, 1, -1))
        },
    },
}


class TestDivisor:
    def test_root_of_a2_is_one(self):
        R = build("A", 2)
        assert divisor((1, -1, 0), R) == 1

    def test_c3_long_root(self):
        R = build("C", 3)
        assert divisor((2, 0, 0), R) == 2

    def test_a2_degenerate_sum(self):
        R = build("A", 2)
        assert divisor((2, -1, -1), R) == 3

    def test_zero_rejected(self):
        R = build("A", 2)
        with pytest.raises(ValueError):
            divisor((0, 0, 0), R)

    def test_vector_outside_span_rejected(self):
        R = build("A", 2)
        with pytest.raises(ValueError):
            divisor((1, 1, 1), R)  # orthogonal to all of A_2

    def test_f4_takes_standard_coordinates(self):
        # (-2, 0, 0, 0) is a divisor-2 sum of the F_4 table; read in the
        # scaled coordinates it would be the root -eps_1, of divisor 1
        assert divisor((-2, 0, 0, 0), build("F", 4)) == 2

    @pytest.mark.parametrize("letter,rank", [("F", 4), ("E", 6), ("E", 7), ("E", 8)])
    def test_scaled_systems_agree_with_the_table(self, letter, rank):
        R = build(letter, rank)
        report = degenerate_sums_bruteforce(R)
        for n, vecs in report.by_divisor.items():
            assert all(divisor(v, R) == n for v in vecs)
        for r in R.nonzero_roots:
            std = tuple(c // R.coord_scale for c in r)
            if tuple(c * R.coord_scale for c in std) == r:
                assert divisor(std, R) == 1
            else:  # a half-integer root of E or F has no integer coordinates
                assert divisor(tuple(Fraction(c, R.coord_scale) for c in r), R) == 1

    @pytest.mark.parametrize("letter,rank", sorted(CLASSIFICATION_TABLES))
    def test_every_table_sum_has_its_divisor(self, letter, rank):
        R = build(letter, rank)
        for n, vecs in CLASSIFICATION_TABLES[(letter, rank)].items():
            assert all(divisor(v, R) == n for v in vecs)


@pytest.mark.parametrize("letter,rank", sorted(CLASSIFICATION_TABLES))
def test_bruteforce_matches_classification_tables(letter, rank):
    R = build(letter, rank)
    report = degenerate_sums_bruteforce(R)
    expected = CLASSIFICATION_TABLES[(letter, rank)]
    assert set(report.by_divisor) == set(expected)
    for n, vecs in expected.items():
        assert report.by_divisor[n] == frozenset(vecs)


@pytest.mark.parametrize("letter,rank", sorted(CLASSIFICATION_TABLES))
def test_algorithm_equals_bruteforce(letter, rank):
    R = build(letter, rank)
    assert degenerate_sums_algorithm(R) == degenerate_sums_bruteforce(R)


REFERENCE_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [(t, r) for t in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,rank", REFERENCE_SYSTEMS)
def test_bruteforce_equals_the_vector_sum_reference(letter, rank):
    # DegenerateSumReport equality compares the expressing pairs too
    R = build(letter, rank)
    assert degenerate_sums_bruteforce(R) == degenerate_sums_reference(R)


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 4), ("A", 5), ("B", 6), ("C", 4), ("C", 6), ("D", 6)],
)
def test_algorithm_equals_bruteforce_higher_rank(letter, rank):
    R = build(letter, rank)
    assert degenerate_sums_algorithm(R) == degenerate_sums_bruteforce(R)


class TestPairStructure:
    def test_a2_unique_pair(self):
        R = build("A", 2)
        pairs = degenerate_pairs((2, -1, -1), R)
        assert pairs == frozenset(
            {frozenset({(1, -1, 0), (1, 0, -1)})}
        )

    def test_a3_two_pairs(self):
        R = build("A", 3)
        pairs = degenerate_pairs((1, 1, -1, -1), R)
        assert len(pairs) == 2

    @pytest.mark.parametrize(
        "letter,rank,gamma",
        [("F", 4, (1, 0, 0, 0)), ("E", 8, (1, 1, 0, 0, 0, 0, 0, 0))],
    )
    def test_half_integer_roots_in_standard_coords(self, letter, rank, gamma):
        # E and F are stored scaled by 2; their half-integer roots come back
        # as exact Fractions
        R = build(letter, rank)
        pairs = degenerate_pairs(gamma, R)
        assert any(type(c) is Fraction for p in pairs for r in p for c in r)
        for p in pairs:
            a, b = p
            assert tuple(x + y for x, y in zip(a, b)) == gamma
            for r in p:
                assert any(r) and tuple(c * R.coord_scale for c in r) in R.roots

    def test_root_of_a4_has_no_pairs(self):
        R = build("A", 4)
        report = degenerate_sums_bruteforce(R)
        assert report.by_divisor == {}

    def test_longer_summand_pairing_equals_divisor(self):
        # Lemma: <gamma, beta-check> = n_gamma for the longer summand beta
        for letter, rank in [("B", 3), ("C", 3), ("G", 2), ("A", 2)]:
            R = build(letter, rank)
            report = degenerate_sums_bruteforce(R)
            for n, vecs in report.by_divisor.items():
                for gamma in vecs:
                    scaled = tuple(R.coord_scale * c for c in gamma)
                    found = False
                    for pair in report.pairs[gamma]:
                        a, b = [
                            tuple(R.coord_scale * c for c in r) for r in pair
                        ]
                        from rograd.roots import dot

                        beta = a if dot(a, a) >= dot(b, b) else b
                        if R.pairing(scaled, beta) == n:
                            found = True
                    assert found

    def test_divisor_two_has_orthogonal_pair(self):
        for letter, rank in [("B", 4), ("C", 3), ("D", 4), ("A", 3)]:
            R = build(letter, rank)
            report = degenerate_sums_bruteforce(R)
            for gamma in report.by_divisor.get(2, ()):
                assert any(
                    R.pairing(*(tuple(pair))) == 0 for pair in report.pairs[gamma]
                )

    def test_ds_meets_roots_only_in_type_c(self):
        for letter, rank in [("A", 3), ("B", 3), ("D", 4), ("G", 2)]:
            R = build(letter, rank)
            report = degenerate_sums_bruteforce(R)
            assert not (report.all_sums() & {tuple(r) for r in R.nonzero_roots})
        R = build("C", 3)
        report = degenerate_sums_bruteforce(R)
        overlap = report.all_sums() & {tuple(r) for r in R.nonzero_roots}
        assert overlap == two_eps(3)


def test_a1_both_classifiers_agree():
    # one node and no end of degree 1: the simple root is its own order
    R = build("A", 1)
    assert R.simple_roots() == [(1, -1)]
    report = degenerate_sums_algorithm(R)
    assert report == degenerate_sums_bruteforce(R)
    assert report.to_json() == []


def test_table_and_json_output():
    R = build("B", 3)
    report = degenerate_sums_bruteforce(R)
    table = report.to_table()
    assert "B_3 | 2 |" in table
    data = report.to_json()
    assert data[0]["divisor"] == 2
    assert len(data[0]["sums"]) == 14


def test_bruteforce_rejects_a_non_integral_pairing():
    # 2((1,0)|(1,2)) = 2 is not a multiple of |(1,2)|^2 = 5
    R = RootSystem("X", 2, [(1, 0), (-1, 0), (1, 2), (-1, -2)])
    with pytest.raises(AssertionError, match="non-integral pairing in the root lattice"):
        degenerate_sums_bruteforce(R)
