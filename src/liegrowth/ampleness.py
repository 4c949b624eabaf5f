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
once, as its Taylor leaves at the point (``polyfields._TaylorParts``, the
flag engine's one leaf; the ``polyfields`` docstring describes the packed
monomial, the leaf and the graded store once); the leaves are recombined,
not the frame, into the adapted ones, leaves of the same class whose terms
are merged monomial by monomial over the same expansion
(``polyfields._recombined``).
``_adapted_change`` reads the frame values
at the point once for ``adapted_frame`` and ``slice_report``: it is their
only independence check and normal-direction test, and it builds the
adapted change from the Gram solve alone, on ints: the values are cleared
over one denominator and the direction over its own (``linalg._cleared``),
the pairings and the Gram matrix are int dot products, one fraction-free
elimination (``linalg._Echelon``) solves the Gram system, and a
``Fraction`` is formed only per entry of the returned change.
``slice_report`` hands it the leaves' int values (each leaf's degree-0
part, the value times the leaf's scale), so the change it gets is on the
leaves, and ``_recombined`` takes coefficients on the leaves.

The ampleness certificates run on ints too.  ``gl_convex_decomposition``,
``hull_verdict`` and ``det_affine_in_free_column`` clear each matrix once
to ints over one denominator D (``linalg._cleared``) and take every
determinant, or its sign, with one int kernel (``linalg._int_det``);
``ConvexWitness.validate`` clears the members and the target together over
one D and checks the average on those ints, and ``ConvexWitness.average``
reads the average off the same ints.  A ``Fraction`` is formed only
for an entry that a handed-out member changes, or per returned
coefficient; the other entries of a member are the input's own objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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
from .flags import _span_ranks, lie_flag  # noqa: F401
from .polyfields import Frame, _recombined, _taylor_leaves, poly_lie_bracket  # noqa: F401

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
# the weight of both members of a ``gl_convex_decomposition``
_HALF = Fraction(1, 2)


class Verdict(enum.Enum):
    EMPTY_TRIVIALLY_AMPLE = "EmptyTriviallyAmple"
    TRIVIALLY_AMPLE_FULL = "TriviallyAmpleFull"
    AMPLE_THIN_COMPLEMENT = "AmpleThinComplement"
    AMPLE_NON_THIN = "AmpleNonThin"
    NOT_AMPLE_HYPERPLANE = "NotAmpleHyperplane"

    def __str__(self) -> str:
        return self.value


def _matrix(rows, what: str = "matrix", nrows: int | None = None, ncols: int | None = None) -> Matrix:
    """The matrix read by ``linalg._exact_matrix``, as Fraction rows."""
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row)
        for row in linalg._exact_matrix(rows, what, nrows, ncols)
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
        sizes = {"rows": self.rows, "cols": self.cols, "required_rank": self.required_rank}
        linalg._sizes(**sizes)
        for name, x in sizes.items():
            if x < 0:
                raise DomainError(f"{name} must be non-negative, got {x}")
        object.__setattr__(self, "fixed", _matrix(self.fixed, "fixed block", self.rows))
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
        """sum(w_i * matrix_i), read off the ints that ``validate`` checks.
        Every member is read by ``linalg._exact_matrix`` against the first
        member's shape; a member of another shape, or a witness with no
        member, raises ``DomainError``."""
        if not self.terms:
            raise DomainError("a witness with no member has no average")
        first = linalg._exact_matrix(self.terms[0][1], "member 1")
        shape = len(first), len(first[0]) if first else None
        mats = [first] + [
            linalg._exact_matrix(m, f"member {i}", *shape)
            for i, (_, m) in enumerate(self.terms[1:], start=2)
        ]
        _, total, scale, den = self._cleared_sum(mats)
        return tuple(tuple(Fraction(x, scale * den) for x in row) for row in total)

    def _cleared_sum(self, mats) -> tuple[list, list[list[int]], int, int]:
        """The read matrices ``mats``, the members' first, cleared together
        to int matrices over one D (``linalg._cleared``), and the weights to
        ints a_i over their lcm W the same way, so w_i = a_i / W: the int
        matrices, sum(a_i A_i) over the members' ones, W and D."""
        (nums,), scale = linalg._cleared([linalg._exact_vector(self.weights(), "weights")])
        cleared, den = linalg._cleared([row for mat in mats for row in mat])
        it = iter(cleared)
        ints = [[next(it) for _ in mat] for mat in mats]
        total = [
            [sum(map(mul, nums, col)) for col in zip(*rows)] for rows in zip(*ints[: len(nums)])
        ]
        return ints, total, scale, den

    def validate(self, target: Matrix, det_sign: int | None = None) -> None:
        """Check the witness exactly: positive weights w_i that sum to 1,
        members of the target's shape that average to it, and every member
        nonsingular, of sign ``det_sign`` when that is given.

        The members and the target are read once and cleared together to
        ints over one D, A_i and B, and the weights to ints a_i over their
        lcm W (``_cleared_sum``, which ``average`` reads too), so
        w_i = a_i / W: the average is checked as sum(a_i A_i) == W B, and
        each member's determinant sign is that of ``linalg._int_det`` of
        A_i, a positive multiple of its determinant.  A member of another
        shape does not average."""
        weights = self.weights()
        if any(w <= 0 for w in weights):
            raise AssertionError("witness has a nonpositive weight")
        if sum(weights) != 1:
            raise AssertionError("witness weights do not sum to 1")
        mats = [linalg._exact_matrix(m, "matrix") for _, m in self.terms]
        tgt = linalg._exact_matrix(target, "target")
        shapes = {(len(mat), len(mat[0]) if mat else 0) for mat in (tgt, *mats)}
        (*members, b), total, scale, _ = self._cleared_sum([*mats, tgt])
        if len(shapes) > 1 or total != [[scale * x for x in row] for row in b]:
            raise AssertionError("witness does not average to the target")
        ((rows, cols),) = shapes
        if rows != cols:
            raise DomainError("matrix is not square")
        for mat in members:
            d = linalg._int_det(mat)
            if d == 0:
                raise AssertionError("witness member is singular")
            if det_sign is not None and (d > 0) != (det_sign > 0):
                raise AssertionError("witness member has the wrong determinant sign")


def _moved(rows, rest, k: int, diag: tuple[int, ...], step) -> list[list]:
    """``rows`` plus ``step`` G E, for E the diagonal ``diag`` and G the
    unit columns on the rows ``rest``: entry (rest[j], k + j) moves by
    step * diag[j].  Each moved row is a new list holding the other
    entries of that row, the same objects, and every other row is kept as
    it is, the same object."""
    rows = list(rows)
    for j, (i, e) in enumerate(zip(rest, diag)):
        row = rows[i] = list(rows[i])
        row[k + j] += step * e
    return rows


def gl_convex_decomposition(m) -> ConvexWitness:
    """Write a square matrix as an average of two nonsingular matrices.

    Nonsingular input: scale the first two columns by 3 and -1, and by -1
    and 3, so both members have determinant -3 det(m).  Singular input: shift
    by the first integer multiple of the identity off the spectrum,
    m = 1/2 * 2(m - mu I) + 1/2 * 2 mu I.  The matrix is cleared once to
    ints over one D (``linalg._cleared``), and det(m) and the shift mu are
    found on those ints (``linalg._int_det``); a ``Fraction`` is formed only
    for an entry a member changes.  The returned witness is re-verified
    exactly before being returned.
    """
    m = linalg._tuple(m, "matrix")
    mat = _matrix(m, ncols=len(m))
    n = len(mat)
    if n == 0:
        raise DomainError("need a nonempty square matrix")
    if n == 1:
        raise NotAmple("1x1 case: the punctured line is not ample")
    ints, den = linalg._cleared(mat)
    d = linalg._int_det(ints)
    if d == 0:
        minus_identity = (range(n), 0, (-1,) * n)  # m - mu I is m + mu G E for these
        mu = next(
            (c for c in range(1, n + 2) if linalg._int_det(_moved(ints, *minus_identity, c * den))),
            None,
        )
        if mu is None:
            raise AssertionError("no admissible shift found below n + 2")
        m1 = tuple(
            tuple(Fraction(2 * x, den) for x in row)
            for row in _moved(ints, *minus_identity, mu * den)
        )
        diag, zero = Fraction(2 * mu), Fraction(0)
        m2 = tuple(tuple(diag if i == j else zero for j in range(n)) for i in range(n))
        witness = ConvexWitness(((_HALF, m1), (_HALF, m2)))
        witness.validate(mat)
        return witness
    m1 = tuple((3 * row[0], -row[1], *row[2:]) for row in mat)
    m2 = tuple((-row[0], 3 * row[1], *row[2:]) for row in mat)
    witness = ConvexWitness(((_HALF, m1), (_HALF, m2)))
    witness.validate(mat, det_sign=-1 if d > 0 else 1)
    return witness


def det_affine_in_free_column(fixed) -> tuple[Fraction, ...]:
    """Cofactor coefficients c with det(fixed | w) = sum(c_i * w_i).

    The kernel of this linear functional is the hyperplane of singular
    completions; it is identically zero iff the fixed columns are dependent.
    The block is cleared once to ints over one D (``linalg._cleared``), so
    each of the n minors is an int determinant (``linalg._int_det``) over
    D^(n-1), and a ``Fraction`` is formed only per coefficient.
    """
    fixed = linalg._tuple(fixed, "fixed block")
    rows, den = linalg._cleared(linalg._exact_matrix(fixed, "fixed block", ncols=len(fixed) - 1))
    n = len(rows)
    coeffs = []
    for i in range(n):
        sign = -1 if (i + n + 1) % 2 else 1
        coeffs.append(Fraction(sign * linalg._int_det(rows[:i] + rows[i + 1 :]), den ** (n - 1)))
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

    All of it is done on ints (``linalg._cleared``): X_i = V_i / D for int
    rows V_i over one positive D, and v = w / e for an int row w and a
    positive e.  With the int pairings p_i = <V_i, w> and the int Gram
    matrix H_ij = <V_i, V_j>, H beta = p is G alpha = r for
    beta = e alpha / D; one ``linalg._Echelon`` of the rows (H | p) gives
    beta_j = y_j / last, so column 1 is y_j D e / sum_i y_i p_i.  As r is
    p / (D e), the nullspace column of a free index f is p_c at f and -p_f
    at the first index c with p_c != 0, over p_c.  Each column is kept as
    ints over one denominator, checked nonsingular on those ints, and given
    as ``Fraction``s only at the end.
    """
    k = len(vecs)
    rows, den = linalg._cleared(vecs)
    if linalg._Echelon(rows).rank < k:
        raise DegenerateFrame(f"frame vectors dependent at {tuple(point)}")
    (w,), e = linalg._cleared([_direction(v, len(rows[0]))])
    pairings = [sum(map(mul, row, w)) for row in rows]
    if not any(pairings):
        return None
    ech = linalg._Echelon(
        [[sum(map(mul, a, b)) for b in rows] + [p] for a, p in zip(rows, pairings)]
    )
    ys = [row[k] for row in ech.by_column()]
    # (int column, denominator) pairs
    cols = [([y * den * e for y in ys], sum(map(mul, ys, pairings)))]
    c = next(i for i, p in enumerate(pairings) if p)
    for f in range(k):
        if f != c:
            col = [0] * k
            col[f], col[c] = pairings[c], -pairings[f]
            cols.append((col, pairings[c]))
    if linalg._Echelon([col for col, _ in cols]).rank < k:
        raise AssertionError("adapted change matrix is singular")
    return [[Fraction(col[j], q) for col, q in cols] for j in range(k)]


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


def slice_report(fr: Frame, point, v, step: int) -> list[SliceReport]:
    """Classify every principal-subspace slice of a maximal-growth frame.

    The frame is read once, as its Taylor expansions about the point
    (leaves, ``polyfields._taylor_leaves``, sharing one expansion of the
    frame's monomials), whose int degree-0 parts give its values times each
    leaf's positive scale; each degree is expanded once, when the engine
    first asks for it.  The direction is read first; those int values then
    go through ``_adapted_change``, which refuses dependent ones and returns
    ``None`` for a normal direction (a positive scale per value changes
    neither answer), and a normal direction makes every slice the full
    principal subspace.  For non-normal directions the leaves are
    recombined by the change it returns, coefficients on the leaves, into
    adapted ones (``polyfields._recombined``, leaves of the same class over
    the same expansion).  The first adapted field is the one the exact
    values give, and the nullspace field of a free index f is the one they
    give times leaf f's scale, so no rank moves, and each level is
    classified from the rank of the brackets that do not reach the top pure
    derivative.  The same ``_span_ranks`` pass gives the full Hall rank of
    each level, which a constant frame change does not move, for the
    maximal-growth check.
    """
    n, k = fr.n, fr.k
    linalg._sizes(step=step)
    v = _direction(v, n)
    gv = maximal_growth_vector(k, n)
    if step != gv.step:
        raise NotFormalSolution(
            f"maximal growth on dimension {n} has step {gv.step}, got {step}"
        )
    leaves = _taylor_leaves(fr.fields, point, step - 1)
    g = _adapted_change([[c.get(0, 0) for c in leaf.part(0)] for leaf in leaves], v, point)
    normal = g is None
    if not normal:
        leaves = [_recombined(leaves, [row[m] for row in g]) for m in range(k)]
    dims, ranks = zip(*_span_ranks(leaves, step, None if normal else _below_top))
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

    The target is cleared once to ints over one D (``linalg._cleared``):
    det(target), the sign of delta and every member's sign in the doubling
    loop, the ints of W + t G E_i D, are int determinants
    (``linalg._int_det``), and the pivots are read off the same ints.  A
    ``Fraction`` is formed only for an entry that a handed-out member
    changes; its unchanged entries are the target's own objects.
    """
    if spec.rows != spec.cols:
        raise DomainError("hull search is defined for the square case only")
    linalg._sizes(**{"component sign": component_sign})
    if component_sign not in (1, -1):
        raise DomainError("component sign must be +1 or -1")
    l, q, k = spec.rows, spec.cols, spec.fixed_count
    tgt = _matrix(target, "target", l, q)
    if any(row[:k] != fixed for row, fixed in zip(tgt, spec.fixed)):
        raise DomainError("target does not carry the fixed columns")
    ints, den = linalg._cleared(tgt)
    dt = linalg._int_det(ints)
    if dt != 0 and _sign(dt) == component_sign:
        witness = ConvexWitness(((Fraction(1), tgt),))
        witness.validate(tgt, det_sign=component_sign)
        return witness
    # the pivot columns of F^T are k independent rows of F when rank F = k
    pivots = linalg._Echelon(list(zip(*(row[:k] for row in ints)))).cols
    m = q - k
    if m <= 1:  # det(target) = c . w at the target
        c = det_affine_in_free_column(spec.fixed) if m else ()
        return Refutation(len(pivots), c, Fraction(dt, den**l))
    if len(pivots) < k:
        return Refutation(len(pivots))
    rest = [i for i in range(l) if i not in pivots]
    delta = linalg._int_det([row[:k] + [int(i == r) for r in rest] for i, row in enumerate(ints)])
    diagonals = _diagonals(m, component_sign * _sign(delta))
    t = 1
    while any(
        _sign(linalg._int_det(_moved(ints, rest, k, diag, t * den))) != component_sign
        for diag in diagonals
    ):
        t *= 2
    weight = Fraction(1, len(diagonals))
    witness = ConvexWitness(
        tuple((weight, tuple(map(tuple, _moved(tgt, rest, k, diag, t)))) for diag in diagonals)
    )
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
