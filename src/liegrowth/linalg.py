"""Exact linear algebra over the rationals.

Every routine here is one fraction-free elimination.  ``_integer_rows``
clears the denominators of each row, and ``_Echelon`` grows an
integer-preserving Gauss-Jordan form (Bareiss, Math. Comp. 22 (1968);
Edmonds, J. Res. NBS 71B (1967)) one row at a time, with ``_pivot`` as its
only row operation.  Every entry stays an integer minor of the rows added
so far, so each division is exact, and every pivot entry equals the last
pivot: reduced row s is ``rows[s] / last``, with its pivot in column
``cols[s]``.  Rank is the pivot count, the determinant is ``last / scale``
signed by the order of the pivot columns, and ``solve``, ``nullspace`` and
``inverse`` read the reduced rows.  The flag engine adds its values to one
``_Echelon`` per span, so each value is reduced once.  No tolerances
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

# Python's default limit on the digits of an integer read from a string: a
# longer integer token of a frame or algebra file is refused at its token,
# whatever it stands for, ``parsing.frame_to_text`` refuses to write one,
# and the CLI refuses to read or print one.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


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


def _tuple(items, what: str) -> tuple:
    """``items`` as a tuple; what is not iterable raises ``DomainError``.
    Only the iterability is checked here: an error raised while iterating
    (say, inside a generator) propagates as it is."""
    if type(items) is tuple:
        return items
    try:
        it = iter(items)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {type(items).__name__}") from None
    return tuple(it)


def _exact_vector(xs, what: str, n: int | None = None) -> tuple:
    """The entries of ``xs``, ints and Fractions as given, as a tuple; an
    ``xs`` that is not iterable (``_tuple``) or an entry i of another type
    is "``what`` ..." in the ``DomainError``."""
    out = tuple(
        x if type(x) is int or type(x) is Fraction else _exact(x, f"{what} coordinate {i}")
        for i, x in enumerate(_tuple(xs, what), start=1)
    )
    if n is not None and len(out) != n:
        raise DomainError(f"{what} needs {n} coordinates, got {len(out)}")
    return out


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those
    multipliers.  Every entry must be an int or a Fraction (``_exact``), and
    every row as long as the first."""
    mat = []
    scale = 1
    for r, row in enumerate(rows, start=1):
        width = len(mat[0]) if mat else len(row)
        if len(row) != width or not all(type(x) is int or type(x) is Fraction for x in row):
            row = _exact_vector(row, f"matrix row {r}", width)
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


class _Echelon:
    """The integer Gauss-Jordan form of the int rows added so far.

    ``rows[s]`` has its pivot in column ``cols[s]``, every pivot entry is
    ``last`` and every other entry of a pivot column is 0, so reduced row s
    is ``rows[s] / last``; ``last`` is the determinant of the added rows'
    pivot block, its columns in the order of ``cols``.  ``add(v)`` reduces
    v to ``last * v - sum_s v[cols[s]] * rows[s]``, whose entries are
    minors and need no division.  A nonzero remainder is a new pivot row at
    its first nonzero column, and ``_pivot`` reduces the older rows against
    it.  That column leads a vector of the row space, so it is a pivot of
    the row-reduced form, and the set of ``cols`` is that form's pivot set.
    """

    __slots__ = ("rows", "cols", "last")

    def __init__(self, rows=()):
        self.rows, self.cols, self.last = [], [], 1
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.cols)

    def add(self, row) -> None:
        """Reduce the int row ``row`` against the pivots; a nonzero
        remainder becomes a pivot row.  A span of full width absorbs it."""
        cols, rows, last = self.cols, self.rows, self.last
        if len(cols) == len(row):
            return
        rem = [last * x for x in row]
        for c, pivot_row in zip(cols, rows):
            if f := row[c]:
                rem = [a - f * b for a, b in zip(rem, pivot_row)]
        for c, x in enumerate(rem):
            if x:
                rows.append(rem)
                _pivot(rows, len(cols), c, last, range(len(cols)))
                cols.append(c)
                self.last = x
                return

    def by_column(self):
        """The reduced rows in the order of their pivot columns."""
        return [row for _, row in sorted(zip(self.cols, self.rows))]


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows of rationals."""
    return _Echelon(_integer_rows(rows)[0]).rank


def det(rows) -> Fraction:
    """Determinant of a square rational matrix (Bareiss, exact)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    mat, scale = _integer_rows(rows)
    ech = _Echelon(mat)
    if ech.rank < n:
        return Fraction(0)
    inversions = sum(a > b for i, a in enumerate(ech.cols) for b in ech.cols[i + 1 :])
    return Fraction((-1) ** inversions * ech.last, scale)


def solve(a, b):
    """Unique solution of ``a x = b`` or None (singular/incompatible).
    A matrix with no rows has no width to solve for, and ``b`` needs one
    entry per row of ``a``: otherwise ``DomainError``."""
    if not a:
        raise DomainError(
            "solve of an empty matrix: a matrix with no rows has no width"
        )
    if len(b) != len(a):
        raise DomainError(
            f"solve needs one right-hand side entry per row: {len(a)} rows, "
            f"{len(b)} entries in b"
        )
    ncols = len(a[0])
    mat, _ = _integer_rows(list(row) + [bv] for row, bv in zip(a, b))
    ech = _Echelon(mat)
    if sorted(ech.cols) != list(range(ncols)):
        return None
    return [Fraction(row[ncols], ech.last) for row in ech.by_column()]


def nullspace(rows):
    """Basis of the right nullspace as a list of Fraction vectors.
    A matrix with no rows has no width: ``DomainError``."""
    if not rows:
        raise DomainError(
            "nullspace of an empty matrix: a matrix with no rows has no width"
        )
    mat, _ = _integer_rows(rows)
    ncols = len(mat[0])
    ech = _Echelon(mat)
    basis = []
    for f in range(ncols):
        if f in ech.cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in zip(ech.cols, ech.rows):
            vec[c] = Fraction(-row[f], ech.last)
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
    ech = _Echelon(mat)
    if sorted(ech.cols) != list(range(n)):
        return None
    return [[Fraction(x, ech.last) for x in row[n:]] for row in ech.by_column()]


def dot(u, v) -> Fraction:
    """Euclidean pairing of two exact vectors of one length."""
    u = _exact_vector(u, "left factor")
    v = _exact_vector(v, "right factor", len(u))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
