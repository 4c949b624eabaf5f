"""Exact-arithmetic toolkit for bracket-generating frames: Hall bases and
growth vectors, jet-coordinate bracket symbols, Lie flags, nilpotent-group
frames, and ampleness classification of principal-subspace slices.
"""

from .ampleness import (
    ConvexWitness,
    MatrixSpaceSpec,
    Refutation,
    SliceReport,
    Verdict,
    adapted_frame,
    classify_matrix_space,
    det_affine_in_free_column,
    generic_slice_table,
    gl_convex_decomposition,
    hull_membership_witness,
    hull_verdict,
    slice_report,
)
from .errors import (
    CapExceeded,
    DegenerateFrame,
    DomainError,
    IncompleteJet,
    InconsistentFormalSolution,
    InvalidAlgebra,
    LieGrowthError,
    NormalDirection,
    NotAmple,
    NotFormalSolution,
    OrderOverflow,
    ParseError,
    Unclassified,
)
from .flags import (
    AlgebraValidation,
    FlagReport,
    StratifiedAlgebra,
    formal_flag,
    left_invariant_extensions,
    lie_flag,
    nilpotent_frame,
    validate_algebra,
)
from .freelie import (
    BracketExpr,
    GrowthVector,
    HallBasis,
    hall_basis,
    is_free_type,
    is_hall_element,
    maximal_growth_vector,
    mobius,
    witt_dimension,
)
from .jetalg import (
    DiffPoly,
    DiffVec,
    JetPoint,
    JetVar,
    bracket,
    bracket_of_expr,
    derive,
    diffvec_bracket,
    evaluate,
    jet_of_frame,
    pure_derivative_extract,
    pure_t_vars,
    substitute,
)
from .parsing import frame_to_text, parse_algebra, parse_frame
from .polyfields import (
    AffineMap,
    Frame,
    Poly,
    PolyField,
    frame_change,
    poly_lie_bracket,
    pushforward,
)

__version__ = "0.1.0"
