"""Exact-arithmetic toolkit for bracket-generating frames: Hall bases and
growth vectors, jet-coordinate bracket symbols, Lie flags, nilpotent-group
frames, and ampleness classification of principal-subspace slices.

Each public name loads its defining module on first read (PEP 562): ``import
liegrowth`` imports no submodule, and ``liegrowth.lie_flag`` imports
``liegrowth.flags`` and returns ``flags.lie_flag``.  Nothing is bound in the
package namespace, so the defining module holds the only binding and a
rebinding of ``flags.lie_flag`` is seen through ``liegrowth.lie_flag``.
"""

import importlib
import sys

__version__ = "0.1.0"

_NAMES = {
    "ampleness": (
        "ConvexWitness",
        "MatrixSpaceSpec",
        "Refutation",
        "SliceReport",
        "Verdict",
        "adapted_frame",
        "classify_matrix_space",
        "det_affine_in_free_column",
        "generic_slice_table",
        "gl_convex_decomposition",
        "hull_membership_witness",
        "hull_verdict",
        "slice_report",
    ),
    "errors": (
        "CapExceeded",
        "DegenerateFrame",
        "DomainError",
        "IncompleteJet",
        "InconsistentFormalSolution",
        "InvalidAlgebra",
        "LieGrowthError",
        "NormalDirection",
        "NotAmple",
        "NotFormalSolution",
        "OrderOverflow",
        "ParseError",
        "Unclassified",
    ),
    "flags": (
        "AlgebraValidation",
        "FlagReport",
        "StratifiedAlgebra",
        "formal_flag",
        "left_invariant_extensions",
        "lie_flag",
        "nilpotent_frame",
        "validate_algebra",
    ),
    "freelie": (
        "BracketExpr",
        "GrowthVector",
        "HallBasis",
        "hall_basis",
        "is_free_type",
        "is_hall_element",
        "maximal_growth_vector",
        "mobius",
        "witt_dimension",
    ),
    "jetalg": (
        "DiffPoly",
        "DiffVec",
        "JetPoint",
        "JetVar",
        "bracket",
        "bracket_of_expr",
        "derive",
        "diffvec_bracket",
        "evaluate",
        "jet_of_frame",
        "pure_derivative_extract",
        "pure_t_vars",
        "substitute",
    ),
    "parsing": ("frame_to_text", "parse_algebra", "parse_frame"),
    "polyfields": (
        "AffineMap",
        "Frame",
        "Poly",
        "PolyField",
        "frame_change",
        "poly_lie_bracket",
        "pushforward",
    ),
}

# each public name to the qualified name of its defining module
_HOME = {name: f"{__name__}.{mod}" for mod, names in _NAMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = sys.modules.get(home) or importlib.import_module(home)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
