"""H_n(D) and the Albert algebra, both read off D-valued matrices, against
the hand-derived tables of hermitian_reference."""
import pytest

from hermitian_reference import albert_reference, hermitian_reference
from rograd.algebras import matrix_algebra, split_octonions
from rograd.jordan import albert_algebra, albert_grid, hermitian_algebra, hermitian_grid
from rograd.rings import GF, QQ

CASES = {
    "H3-Q": lambda: (3, matrix_algebra(1, QQ, involution="identity")),
    "H4-Q": lambda: (4, matrix_algebra(1, QQ, involution="identity")),
    "H5-F7": lambda: (5, matrix_algebra(1, GF(7), involution="identity")),
    "H3-M2Q": lambda: (3, matrix_algebra(2, QQ, involution="transpose")),
    "H4-M2F5": lambda: (4, matrix_algebra(2, GF(5), involution="transpose")),
    "H3-O-Q": lambda: (3, split_octonions(QQ)),
    "H3-O-F5": lambda: (3, split_octonions(GF(5))),
    "albert-Q": lambda: QQ,
    "albert-F5": lambda: GF(5),
    "albert-F7": lambda: GF(7),
}


def _typed(vec):
    return {k: (v, type(v)) for k, v in vec.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_matrix_construction_matches_the_old_tables(name):
    args = CASES[name]()
    if name.startswith("albert"):
        J, grid = albert_algebra(args), albert_grid
        ref, degrees, ref_grid = albert_reference(args)
    else:
        J, grid = hermitian_algebra(*args), hermitian_grid
        ref, degrees, ref_grid = hermitian_reference(*args)
    assert J.labels == ref.labels
    assert J.circ.keys() == ref.circ.keys()
    assert {k: _typed(v) for k, v in J.circ.items()} == {
        k: _typed(v) for k, v in ref.circ.items()
    }
    assert _typed(J.unit) == _typed(ref.unit)
    V = J.pair()
    assert V.degrees == {1: degrees, -1: [tuple(-c for c in r) for r in degrees]}
    assert grid(J) == ref_grid


def test_star_kernel_refuses_albert():
    from rograd.centext import star_kernel

    with pytest.raises(ValueError, match="hermitian matrix Jordan algebra"):
        star_kernel(albert_algebra(GF(5)))
