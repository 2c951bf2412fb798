"""sl_K(D) from its generators and their transposed brackets, against the
closure search of sl_reference, and the bracket loop's closure check."""
from itertools import product

import pytest

from rograd import lie
from rograd.algebras import StructureAlgebra, matrix_algebra
from rograd.lie import sl_algebra
from rograd.rings import GF, QQ, ZZ
from sl_reference import sl_reference

RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}

# strict order relations a < b of small posets on their points
POSETS = {
    "chain3": (3, {(0, 1), (1, 2), (0, 2)}),
    "vee": (3, {(0, 1), (0, 2)}),
    "diamond": (4, {(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)}),
}


def incidence_algebra(ring, points, below):
    """The incidence algebra of a poset on its basis E_ab (a <= b)."""
    pairs = [(a, a) for a in range(points)] + sorted(below)
    pos = {ab: i for i, ab in enumerate(pairs)}
    mult = {
        (pos[(a, b)], pos[(c, d)]): {pos[(a, d)]: 1}
        for (a, b), (c, d) in product(pairs, repeat=2)
        if b == c
    }
    unit = {pos[(a, a)]: 1 for a in range(points)}
    return StructureAlgebra(ring, [f"E{a}{b}" for a, b in pairs], mult, unit=unit)


CASES = {
    f"sl{k}-M{d}-{name}": (k, lambda d=d, ring=ring: matrix_algebra(d, ring))
    for name, ring in RINGS.items()
    for d, ks in ((1, range(3, 7)), (2, range(3, 6)))
    for k in ks
}
CASES.update(
    {
        f"sl{k}-{poset}-{name}": (
            k,
            lambda poset=poset, ring=ring: incidence_algebra(ring, *POSETS[poset]),
        )
        for poset in POSETS
        for name, ring in RINGS.items()
        if name != "F5"
        for k in (3, 4)
    }
)


def _typed(vec):
    return None if vec is None else {k: (v, type(v)) for k, v in vec.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_same_algebra_as_the_closure_search(name):
    k, make = CASES[name]
    D = make()
    L, ref = sl_algebra(k, D), sl_reference(k, D)
    assert L.to_json() == ref.to_json()
    assert L.labels == ref.labels and L.degrees == ref.degrees
    assert L.jacobi_certificate == ref.jacobi_certificate == "associative-ambient"
    data, ref_data = L.sl_data, ref.sl_data
    assert data.keys() == ref_data.keys()
    assert data["k"] == ref_data["k"] and data["D"] is ref_data["D"] is D
    roots, ref_roots = data["root_system"], ref_data["root_system"]
    assert (roots.type_letter, roots.rank, roots.roots) == (
        ref_roots.type_letter,
        ref_roots.rank,
        ref_roots.roots,
    )
    assert data["degree_of_basis"] == ref_data["degree_of_basis"]
    assert [_typed(v) for v in data["coordinate_of_basis"]] == [
        _typed(v) for v in ref_data["coordinate_of_basis"]
    ]


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
def test_withheld_degree_zero_brackets_are_caught(monkeypatch, ring, size):
    """The span of transposed brackets is only a candidate: with every bracket
    that has an entry in cell (0, 0) withheld, some bracket of basis rows
    leaves the span and the bracket loop refuses the algebra."""
    D = matrix_algebra(size, ring)
    real = lie.span
    withheld = []

    class Withholding:
        def __init__(self, inner):
            self.inner = inner

        def add(self, row):
            if row and min(row) < D.dim:  # cell (0, 0): columns 0 .. dim D - 1
                withheld.append(row)
                return False
            return self.inner.add(row)

        def basis_rows(self):
            return self.inner.basis_rows()

    def first_span_withholds(ring_, ncols):
        inner = real(ring_, ncols)
        monkeypatch.setattr(lie, "span", real)
        return Withholding(inner)

    monkeypatch.setattr(lie, "span", first_span_withholds)
    with pytest.raises(AssertionError, match="bracket left the generated span"):
        sl_algebra(3, D)
    assert withheld
