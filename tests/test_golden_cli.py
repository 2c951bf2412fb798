"""Byte identity of CLI outputs, of one root regrade and of the uce blocks
over Z.

Each CLI case runs ``rograd.cli.main`` in process and compares the sha256
of its stdout and its exit code with a recorded digest.  The outputs expose
every basis an echelon picks (instr, sl_K, the regrade) and every rank, so
a change to the exact linear algebra that picks a different basis or rank
changes a digest.
"""
import hashlib
import json

import pytest

from rograd.algebras import matrix_algebra, split_octonions
from rograd.centext import uce
from rograd.cli import main
from rograd.jordan import rectangular_grid, rectangular_pair
from rograd.lie import assign_root_grading, sl_algebra, tkk
from rograd.rings import QQ, ZZ
from rograd.roots import build, three_grading

GOLDEN = [
    (('tkk', '--model', 'sl', '--n', '3', '--ring', 'Z', '--format', 'json'), 0, "809a7ea515da3dc750f6006b039146178fd7d9da8b5a65813ef2e577595a445e"),
    (('tkk', '--model', 'sl', '--n', '3', '--ring', 'Q', '--format', 'json'), 0, "7587e3b2ba9dbe036b1ea711ef401f408dbd4871d76aacb352a52ee71a612fe7"),
    (('tkk', '--model', 'sl', '--n', '3', '--ring', 'Fp:5', '--format', 'json'), 0, "bc75e57847cc25d79a25ec70edb8c45b8c86c347c5e92ff30f667d879e51172a"),
    (('tkk', '--model', 'tkk-rect', '--n', '3', '--ring', 'Z', '--format', 'json'), 0, "7dee2d0ae81cd3b56015c4bf4497e7f6c912ca4557cb7750fd046f0732a6104b"),
    (('tkk', '--model', 'tkk-hermitian', '--n', '3', '--ring', 'Q', '--format', 'json'), 0, "017ab186ff00af2755063d01916b211ed97ad7bfcedf73ba00b42e43279db5f3"),
    (('tkk', '--model', 'tkk-hermitian', '--n', '3', '--ring', 'Fp:7', '--format', 'json'), 0, "a307e1347881f06e3ba4dc83e6b4b6c75a7b798670bd444d8d36fb7ec9c3c737"),
    (('tkk', '--model', 'tkk-oct', '--ring', 'Q', '--format', 'json'), 0, "11139a87e65c37f09bf9af8253370c28f0971257cebc9ea0bdc656b4d1b22dc3"),
    (('tkk', '--model', 'tkk-oct', '--ring', 'Fp:5', '--format', 'json'), 0, "bcf94ea82dbaaa66fd0634e4fbbd26c5495fe09b935367e7d13d74ca3a8fdb30"),
    (('uce', '--model', 'sl', '--n', '3', '--ring', 'Z', '--format', 'json'), 0, "1fc59d1249576029168833fcbc2b7013dc9f502856becc33e532ad1ee6bb1bdc"),
    (('uce', '--model', 'sl', '--n', '3', '--ring', 'Q', '--format', 'json'), 0, "311a1a40ccfc69f89d742e5e759fa34a74d58c1b88cde71198927112b18117c6"),
    (('uce', '--model', 'sl', '--n', '3', '--ring', 'Fp:5', '--format', 'json'), 0, "48562e162da419702975fe0fd4ad2461742cf1a291d2c833f461e184dfe95940"),
    (('uce', '--model', 'tkk-rect', '--n', '3', '--ring', 'Z', '--format', 'json'), 0, "bd1322f7e7ab6d67377aa8166d24a5937e873255944d922d2db5bca24e535265"),
    (('uce', '--model', 'tkk-hermitian', '--n', '3', '--ring', 'Q', '--format', 'json'), 0, "896ed20116cdab6bdfc16cfd41b227f8908db73c9c9a991dca9f898a6ec7924a"),
    (('uce', '--model', 'tkk-hermitian', '--n', '3', '--ring', 'Fp:7', '--format', 'json'), 0, "d11fff7867ae40fb10563ec1423b73bc083d250f6d0a4952ce1765f2172d7cd7"),
    (('uce', '--model', 'tkk-oct', '--ring', 'Q', '--format', 'json'), 0, "39d1ce99bb57810f81777824f414276432b59dc662c9458d8b680968164b5bab"),
    (('uce', '--model', 'tkk-oct', '--ring', 'Fp:5', '--format', 'json'), 0, "2b8d228ea78103b73a6a6aa38969bacaeaad4630cdfeee9a19c0a1fc52817b62"),
    (('uce', '--model', 'sl', '--n', '4', '--ring', 'Z', '--format', 'table'), 0, "20988f05d256ae4db275bb54b589fd5cddf74777308c6c62f83c0116f84956b4"),
    (('tkk', '--model', 'tkk-albert', '--ring', 'Q', '--format', 'json'), 0, "f6a568372dbc480383fc7baa2c2b3b957414591b63613e44d6884b6bb976e4b9"),
    (('uce', '--model', 'tkk-albert', '--ring', 'Q', '--format', 'json'), 0, "8a09be68f9f0001efbf041822dc31fc386f9a9a903963d1c06b2867ba4093a85"),
    (('tkk', '--model', 'tkk-hermitian', '--n', '4', '--ring', 'Fp:5', '--format', 'json'), 0, "36c308180ad874e5afc3b4099542836461e0a3b52c44c555836aad52849cb032"),
    (('dims', '--model', 'tkk-oct', '--ring', 'Q'), 0, "b1d638520ef39e7880032e8fa30cd90e638b712ec3851d804804d6bb9f3925f7"),
    (('dims', '--model', 'tkk-oct', '--ring', 'Fp:5'), 0, "b1d638520ef39e7880032e8fa30cd90e638b712ec3851d804804d6bb9f3925f7"),
    (('uce', '--model', 'tkk-oct', '--ring', 'Z', '--format', 'json'), 0, "8bc8b05315981158692bff82f2357c6fdd9acbb8cc70bedb952b73d8ad4fbb2a"),
    # TKK assembly on rings the cases above leave out
    (('tkk', '--model', 'tkk-oct', '--ring', 'Z', '--format', 'json'), 0, "1a51b06da941d51f844d059bad38d36dcf9663032778a3f285a3e1cfbbca78d4"),
    (('tkk', '--model', 'tkk-oct', '--ring', 'Fp:2', '--format', 'json'), 0, "19a18c2cf5f0893bfbef499f28749605875d18e41e747ad09f4a7a1508c52ea7"),
    (('tkk', '--model', 'tkk-albert', '--ring', 'Fp:5', '--format', 'json'), 0, "8b0fb789429f72adfd80f12a65db6c1a2c365fd57d7e7a7f1172861bde1f89b9"),
    (('tkk', '--model', 'tkk-hermitian', '--n', '4', '--ring', 'Q', '--format', 'json'), 0, "52cbc2d6b0ef2ea32bb4cc7e1d58c255499c7139cd8021bc09dad2ce54fd4311"),
    (('dims', '--model', 'tkk-albert', '--ring', 'Q'), 0, "960740dcaa5470ab161bc3683ec8aa6b0ad04df2802bb000d080b2ac8dd9ce2b"),
    # uce over small primes, recorded with every block streamed: the inner
    # weights vanish on the degenerate sums of sl_4/F_2 and sl_3/F_3, on
    # degrees +-2 of tkk-oct/F_2 and on every degree of tkk-oct/F_3, and are
    # units on every nonzero degree of tkk-albert/F_5
    (('uce', '--model', 'sl', '--n', '4', '--ring', 'Fp:2', '--format', 'json'), 0, "d79a9a44de3f0bf02fb2c9e39817bdc8f68544bd4ec29c3dca64b778cb045fdc"),
    (('uce', '--model', 'sl', '--n', '3', '--ring', 'Fp:3', '--format', 'json'), 0, "6e32da0416678616083728c674e1f38a56f60c8d43e7c0eec9b8d49c64293ea4"),
    (('uce', '--model', 'tkk-oct', '--ring', 'Fp:2', '--format', 'json'), 0, "b9163925d9be8fabe1647e9bb5038a583e993f2e91472512b2781ac8461d0cac"),
    (('uce', '--model', 'tkk-oct', '--ring', 'Fp:3', '--format', 'json'), 0, "ae29911a97ea7d573b051563373b338e2eeefafa8f41e83836e4118ae46adbcb"),
    (('uce', '--model', 'tkk-albert', '--ring', 'Fp:5', '--format', 'json'), 0, "95595ca64fb6416232b0210ac2d5eb5bc6ce6dd7e976a15b194e66a47019419c"),
]

# Every uce block over Z, one line per degree: "degree n_gens target_dim
# uce free rank, torsion, kernel free rank, torsion", with the number of
# blocks and the sha256 of the lines, recorded with one SNF with transforms
# of each block's full relation matrix.
BLOCK_SHAPES = [
    ("sl_3(Z)", lambda: sl_algebra(3, matrix_algebra(1, ZZ)), 13, "ab7f01ad6d379ab5223a5a2e68ca5a6c036f5ce09a67acf00240b84158342da3"),
    ("sl_4(Z)", lambda: sl_algebra(4, matrix_algebra(1, ZZ)), 43, "f6939fe6aa482add4a78be41a8cf2a0fcd018535d997ef03385b23af66adc36e"),
    ("sl_5(Z)", lambda: sl_algebra(5, matrix_algebra(1, ZZ)), 111, "114ac8a8d40613d5a39a41e83476d78add6e65142e1ed57170f16d2bd99ec1eb"),
    ("sl_3(M_2(Z))", lambda: sl_algebra(3, matrix_algebra(2, ZZ)), 19, "719b80f37912d90e8aec6bf85fc877c7e21bba322e2b1464623082c91bed0e94"),
    ("sl_4(M_2(Z))", lambda: sl_algebra(4, matrix_algebra(2, ZZ)), 55, "5f556f50e8ac72ca0f984e6d171b18aee2f62aefde9b347cbf0ebd44e2b0e112"),
    ("TKK(M(1,2,O/Z))", lambda: tkk(rectangular_pair(1, 2, split_octonions(ZZ))), 5, "7bd5f985bdf769718058640471bb87cb586817d7bd141c817b52b3b501c0a357"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_cli_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("name,build_algebra,blocks,digest", BLOCK_SHAPES, ids=[c[0] for c in BLOCK_SHAPES])
def test_uce_block_shapes_over_z(name, build_algebra, blocks, digest):
    u = uce(build_algebra())
    lines = [
        f"{d} {b.n_gens} {b.target_dim} {b.uce_shape.free_rank} {b.uce_shape.torsion} "
        f"{b.kernel_shape.free_rank} {b.kernel_shape.torsion}"
        for d, b in sorted(u.blocks.items())
    ]
    assert len(lines) == blocks
    assert _sha("\n".join(lines)) == digest


def test_rectangular_regrade_json():
    DQ = matrix_algebra(1, QQ, involution="identity")
    G = assign_root_grading(
        tkk(rectangular_pair(1, 2, DQ)),
        rectangular_grid(1, 2, DQ),
        three_grading(build("A", 2), "collinear"),
    )
    text = json.dumps(G.to_json(), sort_keys=True)
    assert _sha(text) == "434b25e922986fe3b5c2c9c0ec04d73fe50e139304ac29553c16c80d1ca25d41"
