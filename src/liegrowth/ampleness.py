"""Ampleness classification of principal-subspace slices.

The slice of the maximal-growth relation in a principal subspace reduces to a
space of matrices with some columns frozen and a rank condition.  This module
classifies those matrix spaces, produces the explicit convex decompositions
behind the ample square case, exhibits the hyperplane obstruction in the
rank-2 case, and searches numerically (but verifies exactly) for convex hull
membership witnesses.
"""

from __future__ import annotations

import enum
import random
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
# hall_basis is unused here but stays bound: bench/test_bench.py asserts that
# the benchmark tracer wraps this module's binding of it.
from .freelie import hall_basis, maximal_growth_vector  # noqa: F401
from .flags import _span_ranks, lie_flag
from .polyfields import Frame, frame_change, poly_lie_bracket

__all__ = [
    "ConvexWitness",
    "MatrixSpaceSpec",
    "SliceReport",
    "Verdict",
    "adapted_frame",
    "classify_matrix_space",
    "det_affine_in_free_column",
    "generic_slice_table",
    "gl_convex_decomposition",
    "hull_membership_witness",
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


def _matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


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
        object.__setattr__(self, "fixed", _matrix(self.fixed))
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
    if l == q:
        if q - k >= 2:
            return Verdict.AMPLE_NON_THIN
        if q - k == 1:
            return Verdict.NOT_AMPLE_HYPERPLANE
        raise Unclassified("square space with every column fixed")
    if l < q:
        if k == l:
            return Verdict.TRIVIALLY_AMPLE_FULL
        return Verdict.AMPLE_THIN_COMPLEMENT
    raise Unclassified(f"no case covers rows={l} > cols={q}")


@dataclass(frozen=True)
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
        if self.average() != _matrix(target):
            raise AssertionError("witness does not average to the target")
        for _, m in self.terms:
            d = linalg.det(m)
            if d == 0:
                raise AssertionError("witness member is singular")
            if det_sign is not None and (d > 0) != (det_sign > 0):
                raise AssertionError("witness member has the wrong determinant sign")


def gl_convex_decomposition(m, eps: int = 1) -> ConvexWitness:
    """Write a square matrix as an average of two nonsingular matrices.

    Nonsingular input: both members have determinant of the opposite sign
    (scale the first two columns by 2+eps and -eps and swap roles).  Singular
    input: shift by the first integer multiple of the identity off the
    spectrum, m = 1/2 * 2(m - mu I) + 1/2 * 2 mu I.  The returned witness is
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
    while True:
        c1 = Fraction(2 + eps)
        c2 = Fraction(-eps)
        m1 = _matrix(
            [
                [row[0] * c1, row[1] * c2] + list(row[2:])
                for row in mat
            ]
        )
        m2 = _matrix(
            [
                [row[0] * c2, row[1] * c1] + list(row[2:])
                for row in mat
            ]
        )
        if linalg.det(m1) != 0 and linalg.det(m2) != 0:
            break
        eps += 1
    witness = ConvexWitness(((Fraction(1, 2), m1), (Fraction(1, 2), m2)))
    witness.validate(mat, det_sign=-1 if d > 0 else 1)
    return witness


def det_affine_in_free_column(fixed) -> tuple[Fraction, ...]:
    """Cofactor coefficients c with det(fixed | w) = sum(c_i * w_i).

    The kernel of this linear functional is the hyperplane of singular
    completions; it is identically zero iff the fixed columns are dependent.
    """
    rows = _matrix(fixed)
    n = len(rows)
    if any(len(r) != n - 1 for r in rows):
        raise DomainError("fixed block must be n x (n-1)")
    coeffs = []
    for i in range(n):
        minor = [rows[r] for r in range(n) if r != i]
        sign = -1 if (i + n + 1) % 2 else 1
        coeffs.append(sign * linalg.det(minor))
    return tuple(coeffs)


def _adapted_change(fr: Frame, point, v):
    """Constant frame change whose values at the point are adapted to v.

    Column 1 carries the orthogonal projection of v onto the span, rescaled
    so its pairing with v is 1; the remaining columns span the orthogonal
    complement of the projection inside the span (hence pair to 0 with v).
    All inner products use the Euclidean form in the original coordinates.
    """
    vecs = fr.values_at(point)
    k = fr.k
    if linalg.rank(vecs) < k:
        raise DegenerateFrame(f"frame vectors dependent at {tuple(point)}")
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise DomainError("direction must be nonzero")
    rhs = [linalg.dot(b, v) for b in vecs]
    if all(x == 0 for x in rhs):
        raise NormalDirection("direction is orthogonal to the frame span")
    gram = [[linalg.dot(a, b) for b in vecs] for a in vecs]
    alpha = linalg.solve(gram, rhs)
    proj = [
        sum((alpha[j] * vecs[j][i] for j in range(k)), Fraction(0))
        for i in range(fr.n)
    ]
    pairing = linalg.dot(proj, v)
    first_col = [a / pairing for a in alpha]
    row = [[linalg.dot(b, proj) for b in vecs]]
    null = linalg.nullspace(row)
    cols = [first_col] + null
    g = [[cols[m][j] for m in range(k)] for j in range(k)]
    if linalg.det(g) == 0:
        raise AssertionError("adapted change matrix is singular")
    return g


def adapted_frame(fr: Frame, point, v) -> tuple[tuple[Fraction, ...], ...]:
    """Adapted frame values at the point: first vector is the rescaled
    projection of ``v`` onto the span, the rest are orthogonal to it (and to
    ``v``) inside the span.
    """
    g = _adapted_change(fr, point, v)
    vecs = fr.values_at(point)
    k = fr.k
    out = []
    for m in range(k):
        out.append(
            tuple(
                sum((g[j][m] * vecs[j][i] for j in range(k)), Fraction(0))
                for i in range(fr.n)
            )
        )
    return tuple(out)


@dataclass(frozen=True)
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


def _probes_top(expr, level: int) -> bool:
    """True for a length-``level`` expression whose leaves are ``level - 1``
    copies of field 1 plus one other field: the brackets that reach the top
    pure derivative along the direction.  At level 1 this is every leaf but
    X1.
    """
    return expr.length == level and list(expr.leaves()).count(1) == level - 1


def slice_report(
    fr: Frame, point, v, step: int, cross_check: bool = False
) -> list[SliceReport]:
    """Classify every principal-subspace slice of a maximal-growth frame.

    Normal directions make every slice the full principal subspace.  For
    non-normal directions the frame is recombined into an adapted one and
    each level is classified from the rank of the brackets that do not reach
    the top pure derivative.
    """
    n, k = fr.n, fr.k
    v = [Fraction(x) for x in v]
    if len(v) != n:
        raise DomainError("direction dimension does not match the frame")
    if all(x == 0 for x in v):
        raise DomainError("direction must be nonzero")
    gv = maximal_growth_vector(k, n)
    if step != gv.step:
        raise NotFormalSolution(
            f"maximal growth on dimension {n} has step {gv.step}, got {step}"
        )
    flag = lie_flag(fr, point, gv.step)
    if flag.dims != gv.entries:
        raise NotFormalSolution(
            f"flag {flag.dims} differs from the maximal growth vector {gv.entries}"
        )
    vecs = fr.values_at(point)
    if all(linalg.dot(v, b) == 0 for b in vecs):
        return [
            SliceReport(i, gv.entries[i - 1], gv.entries[i - 1],
                        Verdict.TRIVIALLY_AMPLE_FULL, True)
            for i in range(1, step + 1)
        ]
    g = _adapted_change(fr, point, v)
    adapted = frame_change(fr, g)
    ranks = _span_ranks(
        adapted.fields, poly_lie_bracket, lambda f: f.value_at(point), step,
        keep=lambda expr, i: not _probes_top(expr, i), cross_check=cross_check,
    )
    reports = []
    for i, m_i in enumerate(ranks, start=1):
        n_i = gv.entries[i - 1]
        if i < step:
            if m_i + k - 1 != n_i:
                raise NotFormalSolution(
                    f"level {i}: rank {m_i} + {k - 1} != {n_i}; point is not generic"
                )
            verdict = Verdict.AMPLE_THIN_COMPLEMENT
        else:
            if m_i == n:
                verdict = Verdict.TRIVIALLY_AMPLE_FULL
            elif n < m_i + k - 1:
                verdict = Verdict.AMPLE_THIN_COMPLEMENT
            elif n == m_i + k - 1:
                verdict = (
                    Verdict.AMPLE_NON_THIN if k >= 3 else Verdict.NOT_AMPLE_HYPERPLANE
                )
            else:
                raise InconsistentFormalSolution(
                    f"top level rank {m_i} leaves {n} > {m_i + k - 1} unreachable"
                )
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
        if m_r == n:
            verdict = Verdict.TRIVIALLY_AMPLE_FULL
        elif n == m_r + k - 1:
            verdict = Verdict.AMPLE_NON_THIN if k >= 3 else Verdict.NOT_AMPLE_HYPERPLANE
        else:
            verdict = Verdict.AMPLE_THIN_COMPLEMENT
        rows.append(SliceReport(r, m_r, n, verdict, False))
    return rows


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _phase1_feasible(columns: list[list[Fraction]], rhs: list[Fraction]):
    """Exact phase-1 simplex: nonnegative x with sum_i x_i col_i = rhs,
    or None.  Bland's rule, Fraction arithmetic throughout.
    """
    m = len(rhs)
    n = len(columns)
    tab = []
    for i in range(m):
        row = [col[i] for col in columns]
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(b)
        tab.append(row)
    width = n + m + 1
    obj = [Fraction(0)] * width
    for row in tab:
        for j in range(width):
            obj[j] -= row[j]
    for j in range(n, n + m):
        obj[j] = Fraction(0)
    basis = list(range(n, n + m))
    while True:
        enter = None
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = obj[enter]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter
    if -obj[width - 1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][width - 1]
    return x


def hull_membership_witness(
    spec: MatrixSpaceSpec,
    target,
    component_sign: int,
    budget: int,
    seed: int,
) -> ConvexWitness | None:
    """Search one determinant-sign component for a convex combination hitting
    the target; any returned witness is verified exactly.  ``None`` means the
    sampling budget was exhausted and is inconclusive.
    """
    if spec.rows != spec.cols:
        raise DomainError("hull search is defined for the square case only")
    if component_sign not in (1, -1):
        raise DomainError("component sign must be +1 or -1")
    tgt = _matrix(target)
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
    rng = random.Random(seed)
    free = q - k
    samples: list[Matrix] = []
    target_vec = [tgt[i][j] for i in range(l) for j in range(k, q)] + [Fraction(1)]

    def try_solve():
        cols = [
            [mat[i][j] for i in range(l) for j in range(k, q)] + [Fraction(1)]
            for mat in samples
        ]
        x = _phase1_feasible(cols, target_vec)
        if x is None:
            return None
        terms = tuple(
            (w, samples[idx]) for idx, w in enumerate(x) if w > 0
        )
        witness = ConvexWitness(terms)
        witness.validate(tgt, det_sign=component_sign)
        return witness

    checkpoints = set()
    c = 256
    while c < budget:
        checkpoints.add(c)
        c *= 4
    drawn = 0
    while drawn < budget:
        drawn += 1
        entries = [
            Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(l * free)
        ]
        mat = tuple(
            tuple(spec.fixed[i]) + tuple(entries[i * free : (i + 1) * free])
            for i in range(l)
        )
        d = linalg.det(mat)
        if d != 0 and _sign(d) == component_sign:
            samples.append(mat)
        if len(samples) in checkpoints:
            checkpoints.discard(len(samples))
            found = try_solve()
            if found is not None:
                return found
    if samples:
        return try_solve()
    return None
