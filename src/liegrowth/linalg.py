"""Exact linear algebra over the rationals.

Every routine here is one fraction-free elimination.  ``_integer_rows``
clears the denominators of each row; ``_eliminate`` runs integer-preserving
Gauss-Jordan (Bareiss, Math. Comp. 22 (1968); Edmonds, J. Res. NBS 71B
(1967)) with ``_pivot`` as its only row operation.  Every entry stays an
integer minor of the input, so each division is exact, and at the end every
pivot entry equals the last pivot: reduced row i is ``mat[i] / last``.  Rank
is the pivot count, the determinant is sign * last / scale, and ``solve``,
``nullspace`` and ``inverse`` read the reduced rows.  No tolerances
anywhere, and no ``Fraction`` arithmetic inside a pivot.

Every module reads its callers' numbers here, by one rule: an int or a
``Fraction`` is accepted, anything else is a ``DomainError`` naming the
argument and position.  ``_exact`` reads a number, ``_exact_vector`` a vector
and, given ``n``, checks its length.  A size (a rank, a dimension, a step or
an order) must be an int itself: ``_sizes`` refuses anything else, a bool
and an integral float included.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError


def _exact(x, what: str):
    """``x`` as an exact number: an int as it is, a ``Fraction`` as an int
    when integral.  Anything else raises ``DomainError`` naming ``what``."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise DomainError(f"{what} must be an exact rational, got {type(x).__name__}")


def _sizes(**sizes) -> None:
    """Refuse, with a ``DomainError`` naming it, a size that is not an int
    (a bool is refused too)."""
    for name, x in sizes.items():
        if type(x) is not int:
            raise DomainError(f"{name} must be an int, got {type(x).__name__}")


def _exact_vector(xs, what: str, n: int | None = None) -> tuple:
    """The entries of ``xs``, ints and Fractions as given, as a tuple; entry
    i of another type is "``what`` coordinate i" in the ``DomainError``."""
    out = tuple(
        x if type(x) is int or type(x) is Fraction else _exact(x, f"{what} coordinate {i}")
        for i, x in enumerate(xs, start=1)
    )
    if n is not None and len(out) != n:
        raise DomainError(f"{what} needs {n} coordinates, got {len(out)}")
    return out


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those
    multipliers.  Every entry must be an int or a Fraction (``_exact``)."""
    mat = []
    scale = 1
    for r, row in enumerate(rows, start=1):
        if not all(type(x) is int or type(x) is Fraction for x in row):
            row = _exact_vector(row, f"matrix row {r}")
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        mat.append([x.numerator * (mult // x.denominator) for x in row])
    return mat, scale


def _pivot(mat: list[list[int]], r: int, c: int, prev: int, rows) -> None:
    """The one row operation: with p = mat[r][c], each row i in ``rows``
    becomes (p * row_i - row_i[c] * row_r) // prev.  ``prev`` is the previous
    pivot, and the division is exact (Sylvester's identity)."""
    pivot_row = mat[r]
    p = pivot_row[c]
    for i in rows:
        row = mat[i]
        f = row[c]
        mat[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]


def _eliminate(mat: list[list[int]]) -> tuple[list[int], int, int]:
    """Integer-preserving Gauss-Jordan, in place.

    Returns (pivot columns, swap sign, last pivot).  Afterwards every pivot
    entry equals the last pivot, so reduced row i is ``mat[i] / last``.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if mat[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
            sign = -sign
        _pivot(mat, r, c, prev, [i for i in range(nrows) if i != r])
        prev = mat[r][c]
        pivots.append(c)
    return pivots, sign, prev


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows of rationals."""
    mat, _ = _integer_rows(rows)
    return len(_eliminate(mat)[0])


def det(rows) -> Fraction:
    """Determinant of a square rational matrix (Bareiss, exact)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    mat, scale = _integer_rows(rows)
    pivots, sign, last = _eliminate(mat)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * last, scale)


def solve(a, b):
    """Unique solution of ``a x = b`` or None (singular/incompatible).
    A matrix with no rows has no width to solve for: ``DomainError``."""
    if not a:
        raise DomainError(
            "solve of an empty matrix: a matrix with no rows has no width"
        )
    ncols = len(a[0])
    mat, _ = _integer_rows(list(row) + [bv] for row, bv in zip(a, b))
    pivots, _, last = _eliminate(mat)
    if pivots != list(range(ncols)):
        return None
    return [Fraction(mat[i][ncols], last) for i in range(ncols)]


def nullspace(rows):
    """Basis of the right nullspace as a list of Fraction vectors.
    A matrix with no rows has no width: ``DomainError``."""
    if not rows:
        raise DomainError(
            "nullspace of an empty matrix: a matrix with no rows has no width"
        )
    mat, _ = _integer_rows(rows)
    ncols = len(mat[0])
    pivots, _, last = _eliminate(mat)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-mat[r][f], last)
        basis.append(vec)
    return basis


def inverse(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    mat, _ = _integer_rows(
        list(r) + [int(j == i) for j in range(n)] for i, r in enumerate(rows)
    )
    pivots, _, last = _eliminate(mat)
    if pivots != list(range(n)):
        return None
    return [[Fraction(x, last) for x in row[n:]] for row in mat]


def dot(u, v) -> Fraction:
    """Euclidean pairing of two exact vectors of one length."""
    u = _exact_vector(u, "left factor")
    v = _exact_vector(v, "right factor", len(u))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
