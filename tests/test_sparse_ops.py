"""The sparse vector and operator helpers of linalg, and the one place they live.

Each helper is checked against a naive dense product of Fractions over Z, Q,
F_5 and F_{2^61-1}, and every result must be canonical: no zero entry, no
empty column, F_p entries reduced.  Operators are compared with ==
throughout the package, which is sound only on canonical forms.
"""
import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rograd.linalg import (
    _op_apply,
    _op_axpy,
    _op_bracket,
    _op_compose,
    _op_flatten,
    _op_scale,
    _vec_axpy,
)
from rograd.rings import GF, QQ, ZZ

N = 5
RINGS = [ZZ, QQ, GF(5), GF(2**61 - 1)]


def _scalars(ring):
    if ring.kind == "Z":
        raw = st.integers(-6, 6)
    elif ring.kind == "Q":
        raw = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    else:
        raw = st.integers(0, ring.p - 1)
    return raw.map(ring.coerce)


def _nonzero(ring):
    return _scalars(ring).filter(lambda v: not ring.is_zero(v))


def _vectors(ring):
    return st.dictionaries(st.integers(0, N - 1), _nonzero(ring), max_size=N)


def _ops(ring):
    return st.dictionaries(
        st.integers(0, N - 1), _vectors(ring).filter(bool), max_size=N
    )


@st.composite
def _case(draw):
    ring = draw(st.sampled_from(RINGS))
    return (
        ring,
        draw(_scalars(ring)),
        [draw(_vectors(ring)) for _ in range(2)],
        [draw(_ops(ring)) for _ in range(2)],
    )


# -- the dense reference ----------------------------------------------------


def _dense_vec(x):
    return [Fraction(x.get(i, 0)) for i in range(N)]


def _dense_op(A):
    return [[Fraction(A.get(j, {}).get(i, 0)) for j in range(N)] for i in range(N)]


def _reduce(ring, v):
    if ring.kind == "Fp":
        return int(v) % ring.p
    return ring.coerce(v)


def _sparse_vec(ring, xs):
    vals = [_reduce(ring, v) for v in xs]
    return {i: v for i, v in enumerate(vals) if v}


def _sparse_op(ring, M):
    cols = {j: _sparse_vec(ring, [M[i][j] for i in range(N)]) for j in range(N)}
    return {j: col for j, col in cols.items() if col}


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(N)) for j in range(N)] for i in range(N)]


def _canonical_vec(ring, x):
    for v in x.values():
        assert not ring.is_zero(v)
        if ring.kind == "Fp":
            assert 0 < v < ring.p
        if ring.kind == "Z":
            assert isinstance(v, int)


def _canonical_op(ring, A):
    for col in A.values():
        assert col, "empty column"
        _canonical_vec(ring, col)


# -- the helpers against it -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_case())
def test_vec_axpy(case):
    ring, c, (x, y), _ = case
    want = _sparse_vec(ring, [a + c * b for a, b in zip(_dense_vec(x), _dense_vec(y))])
    acc = dict(x)
    got = _vec_axpy(ring, acc, y, c)
    assert got is acc and got == want
    _canonical_vec(ring, got)
    # the coefficient may come in unreduced, as -1 does
    minus = _vec_axpy(ring, dict(x), y, -1)
    assert minus == _sparse_vec(ring, [a - b for a, b in zip(_dense_vec(x), _dense_vec(y))])
    _canonical_vec(ring, minus)


@settings(max_examples=60, deadline=None)
@given(_case())
def test_op_axpy_and_scale(case):
    ring, c, _, (A, B) = case
    DA, DB = _dense_op(A), _dense_op(B)
    acc = {j: dict(col) for j, col in A.items()}
    got = _op_axpy(ring, acc, B, c)
    want = [[DA[i][j] + c * DB[i][j] for j in range(N)] for i in range(N)]
    assert got is acc and got == _sparse_op(ring, want)
    _canonical_op(ring, got)
    # A - A is the zero operator, with no empty column left behind
    assert _op_axpy(ring, {j: dict(col) for j, col in A.items()}, A, -1) == {}
    scaled = _op_scale(ring, c, A)
    assert scaled == _sparse_op(ring, [[c * v for v in row] for row in DA])
    _canonical_op(ring, scaled)


@settings(max_examples=60, deadline=None)
@given(_case())
def test_op_apply_compose_bracket(case):
    ring, _, (x, _), (A, B) = case
    DA, DB = _dense_op(A), _dense_op(B)
    dx = _dense_vec(x)
    applied = _op_apply(ring, A, x)
    assert applied == _sparse_vec(ring, [sum(DA[i][k] * dx[k] for k in range(N)) for i in range(N)])
    _canonical_vec(ring, applied)
    composed = _op_compose(ring, A, B)
    assert composed == _sparse_op(ring, _mul(DA, DB))
    _canonical_op(ring, composed)
    AB, BA = _mul(DA, DB), _mul(DB, DA)
    bracket = _op_bracket(ring, A, B)
    want = [[AB[i][j] - BA[i][j] for j in range(N)] for i in range(N)]
    assert bracket == _sparse_op(ring, want)
    _canonical_op(ring, bracket)


@settings(max_examples=40, deadline=None)
@given(_case())
def test_op_flatten(case):
    ring, _, _, (A, _) = case
    DA = _dense_op(A)
    want = {i * N + j: DA[i][j] for i in range(N) for j in range(N) if DA[i][j]}
    assert _op_flatten(A, N) == want


# -- one home for the helpers -----------------------------------------------


def test_operator_helpers_live_in_linalg():
    """No module defines a dense mat_* helper, and only linalg defines
    module-level op_*, _op_* or _vec_* helpers."""
    src = Path(__file__).resolve().parents[1] / "src" / "rograd"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("mat_"):
                    found.append(f"{path.name}: {node.name}")
        if path.name == "linalg.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith(("op_", "_op_", "_vec_")):
                    found.append(f"{path.name}: {node.name}")
    assert not found, found
