"""Recorded digests of the operators on the split octonions.

Each case builds a family of operators (L, R, standard derivations,
trialities, the g1 operators) on the basis of the split octonions over one
ring and compares the sha256 of its canonical sparse form with a digest
recorded when these operators were still dense matrices.  The canonical
form lists each operator's nonzero columns in order, and in each column its
nonzero entries in row order, so an operator that keeps a zero entry or an
empty column changes a digest.  The module shapes of the homology quotients
and the JSON of the involutions are recorded from the same code.
"""
import hashlib
import json
from itertools import combinations, product

import pytest

from rograd.algebras import (
    StructureAlgebra,
    g1_span,
    lam,
    matrix_algebra,
    rho,
    sigma,
    split_octonions,
    standard_derivation,
    triality_h,
    triality_h_inverse,
)
from rograd.centext import angle, d2, d3, hc1, octonion_angle_kernel, tilde_wedge
from rograd.rings import GF, QQ, ZZ

RINGS = {"Q": QQ, "Z": ZZ, "F5": GF(5)}


def _form(x):
    """JSON-able canonical form: a dict of dicts is an operator (col ->
    row -> scalar), a dict of scalars a vector, a tuple or list a list."""
    if isinstance(x, dict):
        if any(isinstance(v, dict) for v in x.values()):
            return [[j, _form(col)] for j, col in sorted(x.items())]
        return [[k, str(v)] for k, v in sorted(x.items())]
    if isinstance(x, (tuple, list)):
        return [_form(v) for v in x]
    if hasattr(x, "components"):
        return _form(x.components())
    return x


def _basis(O):
    return [O.basis_vec(i) for i in range(O.dim)]


def _pairs(O):
    return list(combinations(_basis(O), 2))


CASES = {
    "L": lambda O: [O.L(a) for a in _basis(O)],
    "R": lambda O: [O.R(a) for a in _basis(O)],
    "standard_derivation": lambda O: [
        standard_derivation(O, a, b) for a, b in product(_basis(O), repeat=2)
    ],
    "lam": lambda O: [lam(O, a) for a in _basis(O)],
    "rho": lambda O: [rho(O, a) for a in _basis(O)],
    "sigma": lambda O: [sigma(O, a, b) for a, b in product(_basis(O), repeat=2)],
    "triality_h": lambda O: [
        triality_h(O, standard_derivation(O, a, b), a, b) for a, b in _pairs(O)
    ],
    "triality_h_inverse": lambda O: [
        triality_h_inverse(O, sigma(O, a, b)) for a, b in _pairs(O)
    ],
    "g1_span": g1_span,
    "octonion_angle_kernel": octonion_angle_kernel,
}


def _value(ring, case):
    try:
        return _form(CASES[case](split_octonions(ring)))
    except ValueError as exc:
        return ["ValueError", str(exc)]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


GOLDEN = {
    ('Q', 'L'): 'f4b32aefcf79cac497448dda369ada8e8cbdbdb97f6155b2ca2e42c2e1253d2e',
    ('Q', 'R'): '76c8188bddb810c198c7338f1bfdb85154cb97ca8310c19f3a3beee7aa908922',
    ('Q', 'standard_derivation'): 'b9bfcba079e6a9b26bd9f83cc7acc467240e7dc62a0f1adef9c50aed513d1c3d',
    ('Q', 'lam'): '37a72194fabc0946c0a32df4a812ae98ccf0d10104e2fe5ed539f59106b6a74e',
    ('Q', 'rho'): '738c0f2fa62e74ff6c7a6194892a9d9fa375d6071d683d0a9f4099284b522e34',
    ('Q', 'sigma'): '64caf2b151aa6544640e52a23dc7dba962dab10dd843aa36e6b39acf24c82f35',
    ('Q', 'triality_h'): 'ff2559ff62fae7cbd5385e1b733a04af0e15585f79960124a8d60396a54571cf',
    ('Q', 'triality_h_inverse'): '729de5e146dedfeedd9915dc685b59822fbf02720b2ae103dc62ee88c16c3861',
    ('Q', 'g1_span'): 'e6ddba5a1231b3448c4112d30c2509a2bb3d0a4eded679a22e3f425753fe791e',
    ('Q', 'octonion_angle_kernel'): '1786869931993cec3edac811b7aedcaf1ec57cb3ac255700df129f33bac0550e',
    ('Z', 'L'): 'f4b32aefcf79cac497448dda369ada8e8cbdbdb97f6155b2ca2e42c2e1253d2e',
    ('Z', 'R'): '76c8188bddb810c198c7338f1bfdb85154cb97ca8310c19f3a3beee7aa908922',
    ('Z', 'standard_derivation'): 'b9bfcba079e6a9b26bd9f83cc7acc467240e7dc62a0f1adef9c50aed513d1c3d',
    ('Z', 'lam'): '37a72194fabc0946c0a32df4a812ae98ccf0d10104e2fe5ed539f59106b6a74e',
    ('Z', 'rho'): '738c0f2fa62e74ff6c7a6194892a9d9fa375d6071d683d0a9f4099284b522e34',
    ('Z', 'sigma'): '64caf2b151aa6544640e52a23dc7dba962dab10dd843aa36e6b39acf24c82f35',
    ('Z', 'triality_h'): '43df826cd5ccec4e37ad068740c48e952b42c434c43c7c27d427d852c5c2a4a3',
    ('Z', 'triality_h_inverse'): '43df826cd5ccec4e37ad068740c48e952b42c434c43c7c27d427d852c5c2a4a3',
    ('Z', 'g1_span'): 'e6ddba5a1231b3448c4112d30c2509a2bb3d0a4eded679a22e3f425753fe791e',
    ('Z', 'octonion_angle_kernel'): '1786869931993cec3edac811b7aedcaf1ec57cb3ac255700df129f33bac0550e',
    ('F5', 'L'): 'ab52cbe4170e6d7376b49d083a4ea4d8d48d9fd1f660ed8e48676f59ae34541f',
    ('F5', 'R'): '66d5867048ab0f25895c2445e63b5e359ba1a82b0205860b524296d080a006d0',
    ('F5', 'standard_derivation'): '308e69543fd2a41bc99255ddaacc82b5c063700632f92f2f4938cffdaf0a5c55',
    ('F5', 'lam'): '7db08b51378b36037e9c1f77bfe0a631a73628793e800be980dcc3c32a16f442',
    ('F5', 'rho'): 'c01d8f369c82d0f60854d1c54bf0837e96fb5cf5df8736f474d0e75b8018257c',
    ('F5', 'sigma'): 'dfcd44b377b10f144f4d5d06932a7c642cde67f2035c2a8898e3ffdfb84f101a',
    ('F5', 'triality_h'): '3ce236ec1a7340ecd0ab68ca00268d7e8623dc5b1b8cf4fb9a7082fa7a8240de',
    ('F5', 'triality_h_inverse'): '5a858971e1ff74e342a69f2afa650e3438ac621e1efb851a3dd4b77413efed82',
    ('F5', 'g1_span'): 'b226be6f48b193699d40a432101eb2601e9df46105c7a8c2c951e1ef3c785abd',
    ('F5', 'octonion_angle_kernel'): '1786869931993cec3edac811b7aedcaf1ec57cb3ac255700df129f33bac0550e',
}


@pytest.mark.parametrize("ring,case", sorted(GOLDEN), ids=[f"{r}-{c}" for r, c in sorted(GOLDEN)])
def test_operator_digest(ring, case):
    assert _sha(_value(RINGS[ring], case)) == GOLDEN[(ring, case)]


# module shapes of the homology quotients, recorded with the digests above
COORDS = {"O": split_octonions, "M2": lambda ring: matrix_algebra(2, ring)}
QUOTIENTS = {f.__name__: f for f in (d2, d3, angle, tilde_wedge, hc1)}
SHAPES = {
    ('Z', 'O', 'd2'): 'ValueError D_2 needs associative coordinates',
    ('Z', 'O', 'd3'): '0',
    ('Z', 'O', 'angle'): 'free^14',
    ('Z', 'O', 'tilde_wedge'): 'free^30',
    ('Z', 'O', 'hc1'): 'ValueError HC_1 defined here for associative coordinates',
    ('Z', 'M2', 'd2'): '0',
    ('Z', 'M2', 'd3'): '0',
    ('Z', 'M2', 'angle'): 'free^3',
    ('Z', 'M2', 'tilde_wedge'): 'free^11',
    ('Z', 'M2', 'hc1'): '0',
    ('Q', 'O', 'd2'): 'ValueError D_2 needs associative coordinates',
    ('Q', 'O', 'd3'): '0',
    ('Q', 'O', 'angle'): 'free^14',
    ('Q', 'O', 'tilde_wedge'): 'free^30',
    ('Q', 'O', 'hc1'): 'ValueError HC_1 defined here for associative coordinates',
    ('Q', 'M2', 'd2'): '0',
    ('Q', 'M2', 'd3'): '0',
    ('Q', 'M2', 'angle'): 'free^3',
    ('Q', 'M2', 'tilde_wedge'): 'free^11',
    ('Q', 'M2', 'hc1'): '0',
    ('F5', 'O', 'd2'): 'ValueError D_2 needs associative coordinates',
    ('F5', 'O', 'd3'): '0',
    ('F5', 'O', 'angle'): 'free^14',
    ('F5', 'O', 'tilde_wedge'): 'free^30',
    ('F5', 'O', 'hc1'): 'ValueError HC_1 defined here for associative coordinates',
    ('F5', 'M2', 'd2'): '0',
    ('F5', 'M2', 'd3'): '0',
    ('F5', 'M2', 'angle'): 'free^3',
    ('F5', 'M2', 'tilde_wedge'): 'free^11',
    ('F5', 'M2', 'hc1'): '0',
}


@pytest.mark.parametrize("ring,alg,quotient", sorted(SHAPES))
def test_homology_shape(ring, alg, quotient):
    try:
        got = str(QUOTIENTS[quotient](COORDS[alg](RINGS[ring])).module)
    except ValueError as exc:
        got = f"ValueError {exc}"
    assert got == SHAPES[(ring, alg, quotient)]


# the involution's JSON stays dense rows of the entries as given
INVOLUTIVE = {
    "O": split_octonions,
    "M3t": lambda ring: matrix_algebra(3, ring, involution="transpose"),
    "M1i": lambda ring: matrix_algebra(1, ring, involution="identity"),
}
JSON = {
    ('Z', 'O'): '1e2009870f25aba6e41710e1b570c050c82b6cd8ba3a96b19ebe43e8e0c8dd8f',
    ('Z', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('Z', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
    ('Q', 'O'): '1e2009870f25aba6e41710e1b570c050c82b6cd8ba3a96b19ebe43e8e0c8dd8f',
    ('Q', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('Q', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
    ('F5', 'O'): 'b8c2bcf913b63da5f5ea2918ba331b69f71bbe0bcd4bab9cf066ee06c5e39551',
    ('F5', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('F5', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
}
JSON_ROUND_TRIP = {
    ('Z', 'O'): '1e2009870f25aba6e41710e1b570c050c82b6cd8ba3a96b19ebe43e8e0c8dd8f',
    ('Z', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('Z', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
    ('Q', 'O'): '1e2009870f25aba6e41710e1b570c050c82b6cd8ba3a96b19ebe43e8e0c8dd8f',
    ('Q', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('Q', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
    ('F5', 'O'): '1e511998119c4835bdb4ac2b865f63df38802293c027390519fda9c57128d525',
    ('F5', 'M3t'): 'd75f2e0c18810c525bb2e9169422fc3db3680e112cd0a00807b3be7419290383',
    ('F5', 'M1i'): '6553c823550c8aec24928c5be58a884df0b6ea9bd5330d9fb164d532d8d4526a',
}


@pytest.mark.parametrize("ring,alg", sorted(JSON))
def test_involution_json(ring, alg):
    D = INVOLUTIVE[alg](RINGS[ring])
    assert _sha(D.to_json()) == JSON[(ring, alg)]
    back = StructureAlgebra.from_json(D.to_json(), RINGS[ring])
    assert _sha(back.to_json()) == JSON_ROUND_TRIP[(ring, alg)]
    for i in range(D.dim):
        assert back.conj(back.basis_vec(i)) == D.conj(D.basis_vec(i))
