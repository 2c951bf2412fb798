"""uider(V) and HC(V) on the torus-weight sub-blocks of TKK(V), against the
whole-module relation stream of uider_reference."""
import pytest

from rograd import lie
from rograd.algebras import matrix_algebra, split_octonions
from rograd.jordan import JordanPair, albert_algebra, hermitian_algebra, rectangular_pair
from rograd.lie import GradedLieAlgebra, uider
from rograd.linalg import ModuleShape
from rograd.rings import GF, QQ, ZZ
from uider_reference import UIDerReference

RINGS = {"Q": QQ, "Z": ZZ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def integral_albert(ring):
    """Albert's pair over Q, whose Q tensors are all integers, coerced into
    ring: a pair over Z and over every F_p, F_2 and F_3 included."""
    V = albert_algebra(QQ).pair()

    def coerced(op):
        op = {j: {r: ring.coerce(v) for r, v in col.items()} for j, col in op.items()}
        return {j: {r: v for r, v in col.items() if v} for j, col in op.items()}

    W = JordanPair(
        ring,
        V.dims,
        V.labels,
        {s: [coerced(op) for op in V.Qdiag[s]] for s in (1, -1)},
        {s: {k: coerced(op) for k, op in V.Qlin[s].items()} for s in (1, -1)},
    )
    W.degrees = V.degrees
    return W


def _models():
    out = {}
    for name, ring in RINGS.items():
        D = matrix_algebra(1, ring)
        out[f"M13-{name}"] = lambda D=D: rectangular_pair(1, 3, D)
        out[f"M22-{name}"] = lambda D=D: rectangular_pair(2, 2, D)
        out[f"M12O-{name}"] = lambda ring=ring: rectangular_pair(1, 2, split_octonions(ring))
    for name in ("Q", "F3", "F5"):
        D = matrix_algebra(1, RINGS[name], involution="identity")
        out[f"H3-{name}"] = lambda D=D: hermitian_algebra(3, D).pair()
    out["albertZ-F2"] = lambda: integral_albert(GF(2))
    return out


MODELS = _models()
HC = {
    "M22-Z": ModuleShape(0, (2, 2, 2, 2)),
    "M22-F2": ModuleShape(5),
    "M13-F2": ModuleShape(1),
    "M12O-F3": ModuleShape(1),
    "albertZ-F2": ModuleShape(1),
}


def _computed_gens(monkeypatch):
    """The generators of every sub-block that quotient_shape computes."""
    seen = []
    shape = lie.quotient_shape

    def counting(ring, rows, ncols, *args):
        seen.append(ncols)
        return shape(ring, rows, ncols, *args)

    monkeypatch.setattr(lie, "quotient_shape", counting)
    return seen


@pytest.mark.parametrize("name", sorted(MODELS))
def test_hc_and_degree_dims_match_the_whole_module(name):
    V = MODELS[name]()
    U, W = uider(V), UIDerReference(V)
    assert U.hc() == W.hc() == HC.get(name, ModuleShape(0))
    assert U.degree_dims() == W.degree_dims()
    assert sum(U.degree_dims().values()) == U.hc().free_rank + U.inner.dim


@pytest.mark.parametrize(
    "make, computed, gens",
    [
        (lambda: albert_algebra(QQ).pair(), 27, 729),
        (MODELS["M12O-Q"], 16, 256),
        (MODELS["M12O-F3"], None, 256),
        (MODELS["M22-Z"], None, 16),
        (MODELS["M22-F2"], None, 16),
        (MODELS["H3-F3"], None, 36),
    ],
    ids=["albert-Q", "M12O-Q", "M12O-F3", "M22-Z", "M22-F2", "H3-F3"],
)
def test_torus_off_is_the_whole_module_per_degree(monkeypatch, make, computed, gens):
    # with every weight forced to 0 each degree is one sub-block, all of it
    # computed: the whole-module computation
    V = make()
    seen = _computed_gens(monkeypatch)
    U = uider(V)
    weighted = U.hc(), U.degree_dims()
    assert U.gens == gens
    if computed is not None:
        assert sum(seen) == computed
    monkeypatch.setattr(
        GradedLieAlgebra, "diagonal_torus", lambda self: ([], [()] * self.dim)
    )
    seen.clear()
    U = uider(V)
    assert (U.hc(), U.degree_dims()) == weighted
    assert sum(seen) == gens


@pytest.mark.parametrize(
    "make",
    [
        lambda ring: rectangular_pair(1, 3, matrix_algebra(1, ring)),
        lambda ring: rectangular_pair(1, 2, split_octonions(ring)),
    ],
    ids=["M13", "M12O"],
)
def test_degree_dims_over_z_are_the_q_free_ranks(make):
    assert uider(make(ZZ)).degree_dims() == uider(make(QQ)).degree_dims()


def test_degree_dims_needs_a_root_grading():
    V = rectangular_pair(1, 2, matrix_algebra(1, QQ))
    V.degrees = None
    U = uider(V)
    assert U.hc().is_trivial
    with pytest.raises(ValueError, match="no root grading"):
        U.degree_dims()


def test_kernel_not_killed_by_the_weight_raises(monkeypatch):
    # over Z every computed sub-block's HC must be killed by its weight gcd
    V = MODELS["M22-Z"]()
    shape = lie.quotient_shape

    def wrong(*args):
        quotient, kernel = shape(*args)
        return quotient, ModuleShape(0, (7,)) if kernel.torsion else kernel

    monkeypatch.setattr(lie, "quotient_shape", wrong)
    with pytest.raises(AssertionError, match="not killed by its weight gcd"):
        uider(V).hc()
