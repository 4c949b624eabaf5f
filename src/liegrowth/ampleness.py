"""Ampleness classification of principal-subspace slices.

The slice of the maximal-growth relation in a principal subspace reduces to a
space of matrices with some columns frozen and a rank condition.  This module
classifies those matrix spaces, produces the explicit convex decompositions
behind the ample square case, exhibits the hyperplane obstruction in the
rank-2 case, and looks for convex hull membership witnesses of one
determinant-sign component.  That question is always decided: with at most
one free column, or dependent fixed columns, a target outside the component
is refuted (the component is an open half-space or empty); otherwise a
witness is constructed and verified exactly.  Slice reports read the frame
once, as its Taylor leaves at the point; the leaves are recombined, not the
frame, into the adapted ones.  ``_adapted_change`` reads the frame values
at the point once for ``adapted_frame`` and ``slice_report``: it is their
only independence check and normal-direction test, and it builds the
adapted change from the Gram solve alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateFrame,
    DomainError,
    InconsistentFormalSolution,
    NormalDirection,
    NotAmple,
    NotFormalSolution,
    Unclassified,
)
# hall_basis, lie_flag and poly_lie_bracket are unused here but stay bound:
# bench/test_bench.py asserts that the benchmark tracer wraps this module's
# bindings of them.
from .freelie import hall_basis, maximal_growth_vector  # noqa: F401
from .flags import _Recombined, _span_ranks, lie_flag  # noqa: F401
from .polyfields import Frame, _TaylorParts, poly_lie_bracket  # noqa: F401

__all__ = [
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
]

Matrix = tuple[tuple[Fraction, ...], ...]


class Verdict(enum.Enum):
    EMPTY_TRIVIALLY_AMPLE = "EmptyTriviallyAmple"
    TRIVIALLY_AMPLE_FULL = "TriviallyAmpleFull"
    AMPLE_THIN_COMPLEMENT = "AmpleThinComplement"
    AMPLE_NON_THIN = "AmpleNonThin"
    NOT_AMPLE_HYPERPLANE = "NotAmpleHyperplane"

    def __str__(self) -> str:
        return self.value


def _matrix(rows, what: str = "matrix") -> Matrix:
    """Fraction rows, each read as "``what`` row r" by the exactness rule."""
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in linalg._exact_vector(row, f"{what} row {r}"))
        for r, row in enumerate(rows, start=1)
    )


@dataclass(frozen=True)
class MatrixSpaceSpec:
    """Matrices of shape rows x cols whose first columns are frozen.

    ``fixed`` holds the frozen column block as rows x fixed_count entries;
    ``required_rank`` is the rank cutting out the relation, maximal in all
    classified cases.
    """

    rows: int
    cols: int
    fixed: Matrix
    required_rank: int

    def __post_init__(self):
        linalg._sizes(rows=self.rows, cols=self.cols, required_rank=self.required_rank)
        object.__setattr__(self, "fixed", _matrix(self.fixed, "fixed block"))
        if len(self.fixed) != self.rows:
            raise DomainError("fixed block must have one entry row per matrix row")
        widths = {len(r) for r in self.fixed}
        if len(widths) > 1:
            raise DomainError("ragged fixed block")
        if self.fixed_count > self.cols:
            raise DomainError("more fixed columns than columns")
        if self.required_rank > min(self.rows, self.cols):
            raise DomainError("required rank exceeds the matrix shape")

    @property
    def fixed_count(self) -> int:
        return len(self.fixed[0]) if self.fixed else 0


def classify_matrix_space(spec: MatrixSpaceSpec) -> Verdict:
    """Verdict for the maximal-rank subset inside the frozen-column space.

    Case table: dependent fixed columns are empty-trivial; a square free
    block of size >= 2 is ample without a thin singularity; one free column
    in the square case is the complement of a hyperplane; strictly more
    columns than the rank demands give a thin complement or the full space.
    """
    l, q, k = spec.rows, spec.cols, spec.fixed_count
    if spec.required_rank != min(l, q):
        raise Unclassified(
            f"only maximal required rank is classified, got {spec.required_rank}"
        )
    if k and linalg.rank(spec.fixed) < k:
        return Verdict.EMPTY_TRIVIALLY_AMPLE
    return _shape_verdict(l, q, k)


def _shape_verdict(rows: int, cols: int, fixed: int) -> Verdict:
    """The case table for independent fixed columns: a verdict from the
    shape alone, rows x cols with ``fixed`` frozen columns."""
    if rows == cols:
        if cols - fixed >= 2:
            return Verdict.AMPLE_NON_THIN
        if cols - fixed == 1:
            return Verdict.NOT_AMPLE_HYPERPLANE
        raise Unclassified("square space with every column fixed")
    if rows < cols:
        if fixed == rows:
            return Verdict.TRIVIALLY_AMPLE_FULL
        return Verdict.AMPLE_THIN_COMPLEMENT
    raise Unclassified(f"no case covers rows={rows} > cols={cols}")


@dataclass(frozen=True, slots=True)
class ConvexWitness:
    """Convex combination sum(weight_i * matrix_i) with positive weights."""

    terms: tuple[tuple[Fraction, Matrix], ...]

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.terms)

    def average(self) -> Matrix:
        rows = len(self.terms[0][1])
        cols = len(self.terms[0][1][0])
        acc = [[Fraction(0)] * cols for _ in range(rows)]
        for w, m in self.terms:
            for i in range(rows):
                for j in range(cols):
                    acc[i][j] += w * m[i][j]
        return _matrix(acc)

    def validate(self, target: Matrix, det_sign: int | None = None) -> None:
        if any(w <= 0 for w in self.weights()):
            raise AssertionError("witness has a nonpositive weight")
        if sum(self.weights()) != 1:
            raise AssertionError("witness weights do not sum to 1")
        if self.average() != _matrix(target, "target"):
            raise AssertionError("witness does not average to the target")
        for _, m in self.terms:
            d = linalg.det(m)
            if d == 0:
                raise AssertionError("witness member is singular")
            if det_sign is not None and (d > 0) != (det_sign > 0):
                raise AssertionError("witness member has the wrong determinant sign")


def gl_convex_decomposition(m) -> ConvexWitness:
    """Write a square matrix as an average of two nonsingular matrices.

    Nonsingular input: scale the first two columns by 3 and -1, and by -1
    and 3, so both members have determinant -3 det(m).  Singular input: shift
    by the first integer multiple of the identity off the spectrum,
    m = 1/2 * 2(m - mu I) + 1/2 * 2 mu I.  The returned witness is
    re-verified exactly before being returned.
    """
    mat = _matrix(m)
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise DomainError("need a nonempty square matrix")
    if n == 1:
        raise NotAmple("1x1 case: the punctured line is not ample")
    d = linalg.det(mat)
    if d == 0:
        mu = None
        for cand in range(1, n + 2):
            shifted = [
                [mat[i][j] - (cand if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            if linalg.det(shifted) != 0:
                mu = cand
                break
        if mu is None:
            raise AssertionError("no admissible shift found below n + 2")
        m1 = _matrix([[2 * (mat[i][j] - (mu if i == j else 0)) for j in range(n)] for i in range(n)])
        m2 = _matrix([[Fraction(2 * mu) if i == j else Fraction(0) for j in range(n)] for i in range(n)])
        witness = ConvexWitness(((Fraction(1, 2), m1), (Fraction(1, 2), m2)))
        witness.validate(mat)
        return witness
    m1 = _matrix([[3 * row[0], -row[1], *row[2:]] for row in mat])
    m2 = _matrix([[-row[0], 3 * row[1], *row[2:]] for row in mat])
    witness = ConvexWitness(((Fraction(1, 2), m1), (Fraction(1, 2), m2)))
    witness.validate(mat, det_sign=-1 if d > 0 else 1)
    return witness


def det_affine_in_free_column(fixed) -> tuple[Fraction, ...]:
    """Cofactor coefficients c with det(fixed | w) = sum(c_i * w_i).

    The kernel of this linear functional is the hyperplane of singular
    completions; it is identically zero iff the fixed columns are dependent.
    """
    rows = _matrix(fixed, "fixed block")
    n = len(rows)
    if any(len(r) != n - 1 for r in rows):
        raise DomainError("fixed block must be n x (n-1)")
    coeffs = []
    for i in range(n):
        minor = [rows[r] for r in range(n) if r != i]
        sign = -1 if (i + n + 1) % 2 else 1
        coeffs.append(sign * linalg.det(minor))
    return tuple(coeffs)


def _direction(v, n: int) -> tuple:
    """The direction ``v`` read exactly: n coordinates, not all zero."""
    v = linalg._exact_vector(v, "direction", n)
    if not any(v):
        raise DomainError("direction must be nonzero")
    return v


def _adapted_change(vecs, v, point):
    """Constant frame change adapting the frame values ``vecs`` at ``point``
    to the direction v, or ``None`` for a normal direction; the one front
    end of ``adapted_frame`` and ``slice_report``.

    In this order: dependent values raise ``DegenerateFrame``, v is read by
    ``_direction``, and a v orthogonal to every value is normal.  Otherwise,
    with r_i = <X_i, v> and G the Gram matrix, G alpha = r puts the
    orthogonal projection of v onto the span at P = sum_j alpha_j X_j, so
    <X_i, P> = r_i and <P, v> = alpha . r.  Column 1 is alpha / (alpha . r),
    the projection rescaled so its pairing with v is 1; the remaining
    columns are the nullspace of r, the orthogonal complement of P inside
    the span (hence they pair to 0 with v).  All inner products use the
    Euclidean form in the original coordinates.
    """
    k = len(vecs)
    if linalg.rank(vecs) < k:
        raise DegenerateFrame(f"frame vectors dependent at {tuple(point)}")
    # an empty frame has no value to give the ambient dimension
    v = _direction(v, len(vecs[0]) if vecs else len(point))
    r = [linalg.dot(b, v) for b in vecs]
    if not any(r):
        return None
    alpha = linalg.solve([[linalg.dot(a, b) for b in vecs] for a in vecs], r)
    pairing = linalg.dot(alpha, r)
    cols = [[a / pairing for a in alpha], *linalg.nullspace([r])]
    g = [[col[j] for col in cols] for j in range(k)]
    if linalg.det(g) == 0:
        raise AssertionError("adapted change matrix is singular")
    return g


def adapted_frame(fr: Frame, point, v) -> tuple[tuple[Fraction, ...], ...]:
    """Adapted frame values at the point: the frame values recombined so
    that the first is the rescaled projection of ``v`` onto the span and the
    rest are orthogonal to it (and to ``v``) inside the span.  Dependent
    values are refused before the direction is read (``_adapted_change``),
    and a normal direction raises ``NormalDirection``.
    """
    vecs = fr.values_at(point)
    g = _adapted_change(vecs, v, point)
    if g is None:
        raise NormalDirection("direction is orthogonal to the frame span")
    return tuple(tuple(linalg.dot(m, col) for col in zip(*vecs)) for m in zip(*g))


@dataclass(frozen=True, slots=True)
class SliceReport:
    """Per-order slice classification.

    ``m_i`` is the rank of the evaluated brackets that do not probe the top
    pure derivative along the direction; ``n_i`` the flag target dimension.
    """

    i: int
    m_i: int
    n_i: int
    verdict: Verdict
    normal: bool


def _below_top(expr, level: int) -> bool:
    """False for a length-``level`` expression whose leaves are ``level - 1``
    copies of field 1 plus one other field: the brackets that reach the top
    pure derivative along the direction.  At level 1 these are every leaf
    but X1.
    """
    return expr.length != level or list(expr.leaves()).count(1) != level - 1


def slice_report(
    fr: Frame, point, v, step: int, cross_check: bool = False
) -> list[SliceReport]:
    """Classify every principal-subspace slice of a maximal-growth frame.

    The frame is read once, as its Taylor expansions about the point
    (leaves, ``polyfields._TaylorParts``), whose degree-0 parts give its
    values; each degree is expanded once, when the engine first asks for
    it.  The direction is read first; the values then go through
    ``_adapted_change``, which refuses dependent ones and returns ``None``
    for a normal direction, and a normal direction makes every slice the
    full principal subspace.  For non-normal directions the leaves are
    recombined by the change it returns into adapted ones
    (``flags._Recombined``) and each level is classified from the rank of
    the brackets that do not reach the top pure derivative.  The same
    ``_span_ranks`` pass gives the full Hall rank of each level, which a
    constant frame change does not move, for the maximal-growth check.
    """
    n, k = fr.n, fr.k
    linalg._sizes(step=step)
    v = _direction(v, n)
    gv = maximal_growth_vector(k, n)
    if step != gv.step:
        raise NotFormalSolution(
            f"maximal growth on dimension {n} has step {gv.step}, got {step}"
        )
    leaves = [_TaylorParts(f, point, step - 1) for f in fr.fields]
    g = _adapted_change([leaf.values() for leaf in leaves], v, point)
    normal = g is None
    if not normal:
        leaves = [_Recombined(leaves, [row[m] for row in g]) for m in range(k)]
    dims, ranks = zip(*_span_ranks(leaves, step, None if normal else _below_top, cross_check))
    if dims != gv.entries:
        raise NotFormalSolution(
            f"flag {dims} differs from the maximal growth vector {gv.entries}"
        )
    if normal:
        return [SliceReport(i, d, d, Verdict.TRIVIALLY_AMPLE_FULL, True) for i, d in enumerate(dims, 1)]
    reports = []
    for i, m_i in enumerate(ranks, start=1):
        n_i = gv.entries[i - 1]
        if i < step:
            if m_i + k - 1 != n_i:
                raise NotFormalSolution(
                    f"level {i}: rank {m_i} + {k - 1} != {n_i}; point is not generic"
                )
            verdict = Verdict.AMPLE_THIN_COMPLEMENT
        elif n > m_i + k - 1:
            raise InconsistentFormalSolution(
                f"top level rank {m_i} leaves {n} > {m_i + k - 1} unreachable"
            )
        else:
            verdict = _shape_verdict(n, m_i + k - 1, m_i)
        reports.append(SliceReport(i, m_i, n_i, verdict, False))
    return reports


def generic_slice_table(k: int, n: int) -> list[SliceReport]:
    """Frame-independent slice classification for rank k on dimension n.

    Levels below the step have forced ranks; the top level enumerates every
    rank value consistent with the flag, one row per possibility.
    """
    gv = maximal_growth_vector(k, n)
    r = gv.step
    rows = []
    for i in range(1, r):
        rows.append(
            SliceReport(i, gv.entries[i - 1] - k + 1, gv.entries[i - 1],
                        Verdict.AMPLE_THIN_COMPLEMENT, False)
        )
    lower = max(n - k + 1, gv.entries[r - 2] if r >= 2 else 1)
    for m_r in range(lower, n + 1):
        rows.append(SliceReport(r, m_r, n, _shape_verdict(n, m_r + k - 1, m_r), False))
    return rows


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True, slots=True)
class Refutation:
    """Proof that the target is outside the convex hull of one
    determinant-sign component, checkable by hand.

    ``fixed_rank`` is the rank of the fixed block; below the fixed column
    count every completion is singular and the component is empty.  With at
    most one free column, det(fixed | w) = c . w is linear in the free
    column w, so the component of sign s is the open half-space
    s * (c . w) > 0, convex and so its own hull: ``cofactors`` is c and
    ``value`` is c . w at the target, with s * value <= 0.  With no free
    column c is empty and ``value`` is det(target).  With two or more free
    columns only dependent fixed columns refute, and both are None.
    """

    fixed_rank: int
    cofactors: tuple[Fraction, ...] | None = None
    value: Fraction | None = None


def _diagonals(m: int, sigma: int) -> list[tuple[int, ...]]:
    """Diagonals of m x m matrices E_i that sum to 0, each of determinant
    ``sigma``: +-diag(sigma, 1, ..., 1) for even m; for odd m the sign
    patterns (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1) on the first three
    entries, +1, +1, -1, -1 on the rest, and the first entry times sigma."""
    if m % 2 == 0:
        base = (sigma,) + (1,) * (m - 1)
        return [base, tuple(-e for e in base)]
    patterns = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    return [
        (sigma * a, b, c) + (r,) * (m - 3)
        for (a, b, c), r in zip(patterns, (1, 1, -1, -1))
    ]


def hull_verdict(
    spec: MatrixSpaceSpec, target, component_sign: int
) -> ConvexWitness | Refutation:
    """Decide whether the target is a convex combination of completions of
    the fixed block whose determinant has sign ``component_sign``.

    A target of that sign is its own one-member witness.  Otherwise, with
    at most one free column or with dependent fixed columns, the answer is
    a ``Refutation``.  With fixed block F of rank k and m >= 2 free columns
    the witness is built (Gromov, *Partial Differential Relations*, 2.4):
    k independent rows S of F are the pivot columns of one echelon form of
    F^T (``linalg._Echelon``), and G puts a unit column on each row outside
    S, so delta = det(F | G) != 0 and det(F | G E) = delta * det E for any
    m x m matrix E.  Diagonal E_i that sum to 0, each with
    sign(det E_i) = s * sign(delta), make det(F | W + t G E_i) a degree-m
    polynomial in t whose leading coefficient has sign s, so doubling t
    from 1 reaches a t at which every member has sign s; their equal-weight
    average is the target W.  Every witness is validated exactly before it
    is returned.
    """
    if spec.rows != spec.cols:
        raise DomainError("hull search is defined for the square case only")
    if component_sign not in (1, -1):
        raise DomainError("component sign must be +1 or -1")
    tgt = _matrix(target, "target")
    l, q, k = spec.rows, spec.cols, spec.fixed_count
    if len(tgt) != l or any(len(r) != q for r in tgt):
        raise DomainError("target shape mismatch")
    for i in range(l):
        for j in range(k):
            if tgt[i][j] != spec.fixed[i][j]:
                raise DomainError("target does not carry the fixed columns")
    dt = linalg.det(tgt)
    if dt != 0 and _sign(dt) == component_sign:
        witness = ConvexWitness(((Fraction(1), tgt),))
        witness.validate(tgt, det_sign=component_sign)
        return witness
    # the pivot columns of F^T are k independent rows of F when rank F = k
    pivots = linalg._Echelon(linalg._integer_rows(zip(*spec.fixed))[0]).cols
    m = q - k
    if m <= 1:  # det(target) = c . w at the target
        c = det_affine_in_free_column(spec.fixed) if m else ()
        return Refutation(len(pivots), c, dt)
    if len(pivots) < k:
        return Refutation(len(pivots))
    rest = [i for i in range(l) if i not in pivots]
    delta = linalg.det(
        [row + tuple(int(i == r) for r in rest) for i, row in enumerate(spec.fixed)]
    )
    diagonals = _diagonals(m, component_sign * _sign(delta))
    t = 1
    while True:
        members = []
        for diag in diagonals:
            rows = [list(row) for row in tgt]
            for j, (i, e) in enumerate(zip(rest, diag)):
                rows[i][k + j] += t * e
            members.append(_matrix(rows))
        if all(_sign(linalg.det(mat)) == component_sign for mat in members):
            break
        t *= 2
    weight = Fraction(1, len(members))
    witness = ConvexWitness(tuple((weight, mat) for mat in members))
    witness.validate(tgt, det_sign=component_sign)
    return witness


def hull_membership_witness(
    spec: MatrixSpaceSpec,
    target,
    component_sign: int,
    budget: int = 0,
    seed: int = 0,
) -> ConvexWitness | None:
    """The witness of ``hull_verdict``, or ``None`` when it refutes, so
    ``None`` is always a proof.  ``budget`` and ``seed`` are unused: the
    answer is constructed, not searched for, and they stay only for callers
    that pass them positionally."""
    verdict = hull_verdict(spec, target, component_sign)
    return verdict if isinstance(verdict, ConvexWitness) else None
