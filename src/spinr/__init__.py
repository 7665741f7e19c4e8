"""Exact rational sl2 R-matrices for arbitrary spin, with symbolic verification."""

from .exactalg import (
    ExactAlgError,
    ExactDivisionError,
    FactoredRat,
    LinForm,
    MPoly,
    PoleSpecializationError,
    RatFun,
    UnsupportedPoleOrderError,
    factored_sum,
    mpoly_exact_div,
    residue_at,
)
from .fracmat import SymMatrix
from .moduli import (
    DegeneratePatchError,
    DomainError,
    FixedPoint,
    WeightTable,
    complete_intersection_coeff,
    dim_M1,
    duality_involution,
    fixed_points,
    patch_weights,
    weight_space_dim,
)
from .oracle import (
    casimir_projectors,
    spectral_decompose,
    verify_sl2_commutation,
    verify_spectrum,
)
from .report import Report
from .rmatrix import (
    FullR,
    assemble_full,
    rblock_closed,
    rblock_triangular,
    verify_equal_constructions,
    verify_unitarity_block,
    verify_unitarity_full,
    verify_ybe,
    ybe_trials,
)
from .stablebasis import (
    S_inverse,
    S_matrix,
    verify_inverse,
    verify_linrel,
    verify_residues_all,
)

__version__ = "0.1.0"
