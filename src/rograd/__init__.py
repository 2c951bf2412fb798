"""rograd: exact construction of root-graded Lie algebras from Jordan data
and computation of their universal central extensions.

Layers (bottom up): exact linear algebra over Z/Q/F_p, whose matrices are
lists of sparse rows (dicts col -> scalar) and whose module shapes come
from one quotient routine; root systems and degenerate sums; coordinate
algebras (matrix / split octonion); Jordan pairs and algebras with grids;
graded Lie algebras (TKK, sl_K, J*J); and the uce engine with its kernel
reports.
"""

from .rings import GF, QQ, ZZ, BaseRing, ring_from_flag
from .linalg import ModuleShape, kernel_basis, smith_normal_form
from .roots import RootSystem, ThreeGrading, Weight, build, three_grading
from .degsums import (
    DegenerateSumReport,
    degenerate_pairs,
    degenerate_sums_algorithm,
    degenerate_sums_bruteforce,
    divisor,
)
from .algebras import (
    Element,
    StructureAlgebra,
    Triality,
    associator,
    commutator,
    g1_operator,
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
from .jordan import (
    JordanAlgebra,
    albert_grid,
    JordanPair,
    PeirceDecomposition,
    albert_algebra,
    hermitian_algebra,
    hermitian_grid,
    pair_idempotent_peirce,
    peirce,
    rectangular_grid,
    rectangular_pair,
    verify_grid,
    verify_pair_identities,
)
from .lie import (
    GradedLieAlgebra,
    OperatorLieAlgebra,
    assign_root_grading,
    ider,
    instr,
    sl_algebra,
    star_module,
    structural_predicates,
    tkk,
    uider,
    utkk,
)
from .centext import (
    ExtensionReport,
    HomologyQuotient,
    angle,
    cocycle_extension,
    d2,
    d3,
    hc1,
    kernel_report,
    star_kernel,
    tilde_wedge,
    uce,
)

__all__ = [
    "BaseRing", "ZZ", "QQ", "GF", "ring_from_flag",
    "ModuleShape", "smith_normal_form", "kernel_basis",
    "RootSystem", "Weight", "ThreeGrading", "build", "three_grading",
    "DegenerateSumReport", "divisor", "degenerate_pairs",
    "degenerate_sums_bruteforce", "degenerate_sums_algorithm",
    "StructureAlgebra", "Element", "Triality", "matrix_algebra",
    "split_octonions", "commutator", "associator", "standard_derivation",
    "lam", "rho", "sigma", "triality_h", "triality_h_inverse",
    "g1_operator", "g1_span",
    "JordanPair", "JordanAlgebra", "PeirceDecomposition",
    "rectangular_pair", "rectangular_grid", "hermitian_algebra",
    "hermitian_grid", "albert_algebra", "albert_grid", "peirce", "pair_idempotent_peirce",
    "verify_grid", "verify_pair_identities",
    "GradedLieAlgebra", "OperatorLieAlgebra", "instr", "tkk", "uider",
    "utkk", "sl_algebra", "star_module", "ider", "assign_root_grading",
    "structural_predicates",
    "uce", "kernel_report", "ExtensionReport", "HomologyQuotient",
    "d2", "d3", "angle", "tilde_wedge", "hc1", "cocycle_extension",
    "star_kernel",
]

__version__ = "0.1.0"
