"""Exact linear algebra over the rationals.

Every routine here is one fraction-free elimination.  ``_cleared`` clears
a whole matrix to ints over one denominator D, the lcm of its entries'
denominators; it is the one way the library turns exact rationals into
ints.  ``_Echelon`` grows an integer-preserving Gauss-Jordan form
(Bareiss, Math. Comp. 22 (1968); Edmonds, J. Res. NBS 71B (1967)) one row
at a time, with ``_pivot`` as its only row operation.  Every entry stays
an integer minor of the rows added so far, so each division is exact, and
every pivot entry equals the last pivot: reduced row s is
``rows[s] / last``, with its pivot in column ``cols[s]``.  Rank is the
pivot count, and the determinant is ``last`` signed by the order of the
pivot columns: ``_int_det`` takes it of int rows, and ``det`` is
``_int_det`` of the cleared rows over D^n.  ``_int_inverse`` gives an
inverse as int rows over one denominator, which ``polyfields.AffineMap``
keeps (``AffineMap.inverse`` is the public inverse).  The affine moves of
``polyfields``, the adapted change and the certificates of ``ampleness``
read their matrices through ``_cleared`` and eliminate with their own
``_Echelon`` or ``_int_det``; the flag engine adds its values to one
``_Echelon`` per span, so each value is reduced once.  No tolerances
anywhere, and no ``Fraction`` arithmetic inside a pivot.

Every module reads its callers' numbers here, by one rule: an int or a
``Fraction`` is accepted, anything else (a bool too) is a ``DomainError``
naming the argument and position.  ``_exact`` reads a number, ``_exact_vector`` a vector
and, given ``n``, checks its length.  Every matrix argument, here and in
the other modules, is read by ``_exact_matrix``: any iterable of rows, row r
read as the vector "``what`` row r", by one shape rule (every row as long as
the first, or as ``ncols`` when that is given, and ``nrows`` rows when that
is given).  Every mapping argument is read by ``_mapping``, which refuses
anything that is not a mapping.  A size (a rank, a dimension, a step or
an order) must be an int itself: ``_sizes`` refuses anything else, a bool
and an integral float included.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .errors import DomainError

# Python's default limit on the digits of an integer read from a string: a
# longer integer token of a frame or algebra file is refused at its token,
# whatever it stands for, ``parsing.frame_to_text`` refuses to write one,
# and the CLI refuses to read or print one.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
# the entry types the exactness rule keeps as they are
_EXACT_TYPES = frozenset((int, Fraction))


def _exact(x, what: str):
    """``x`` as an exact number: an int as it is, a ``Fraction`` as an int
    when integral.  Anything else, a bool included, raises ``DomainError``
    naming ``what``."""
    if isinstance(x, int) and type(x) is not bool:
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
    """The entries of ``xs``, ints and Fractions as given, as a tuple (a
    tuple of such entries is returned as it is); an ``xs`` that is not
    iterable (``_tuple``) or an entry i of another type is "``what`` ..." in
    the ``DomainError``."""
    xs = _tuple(xs, what)
    if not _EXACT_TYPES.issuperset(map(type, xs)):
        xs = tuple(
            x if type(x) is int or type(x) is Fraction else _exact(x, f"{what} coordinate {i}")
            for i, x in enumerate(xs, start=1)
        )
    if n is not None and len(xs) != n:
        raise DomainError(f"{what} needs {n} coordinates, got {len(xs)}")
    return xs


def _exact_matrix(rows, what: str, nrows: int | None = None, ncols: int | None = None) -> tuple:
    """The rows of ``rows``, each read by ``_exact_vector`` as "``what`` row
    r", as a tuple.  Every row must be as long as the first, or as ``ncols``
    when that is given, and given ``nrows`` there must be that many rows;
    anything else is a ``DomainError`` naming ``what``."""
    rows = _tuple(rows, what)
    if nrows is not None and len(rows) != nrows:
        raise DomainError(f"{what} needs {nrows} rows, got {len(rows)}")
    mat = []
    for r, row in enumerate(rows, start=1):
        mat.append(_exact_vector(row, f"{what} row {r}", ncols))
        ncols = len(mat[0])
    return tuple(mat)


def _mapping(x, what: str):
    """``x`` itself when it is a mapping; anything else raises
    ``DomainError`` naming ``what``."""
    if not isinstance(x, Mapping):
        raise DomainError(f"{what} must be a mapping, got {type(x).__name__}")
    return x


def _cleared(rows) -> tuple[list[list[int]], int]:
    """The exact ``rows`` times D, the lcm of all their entries'
    denominators, as ints, and D.  The rows must be read already
    (``_exact_matrix``)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


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
    return _Echelon(_cleared(_exact_matrix(rows, "matrix"))[0]).rank


def det(rows) -> Fraction:
    """Determinant of a square rational matrix (Bareiss, exact)."""
    rows = _exact_matrix(rows, "matrix")
    n = len(rows)
    if rows and len(rows[0]) != n:
        raise DomainError("matrix is not square")
    ints, den = _cleared(rows)
    return Fraction(_int_det(ints), den**n)


def _int_det(mat) -> int:
    """Determinant of a square matrix of ints: the ``last`` of one
    ``_Echelon``, signed by the order of its pivot columns, or 0 when the
    rank falls short."""
    ech = _Echelon(mat)
    if ech.rank < len(mat):
        return 0
    inversions = sum(a > b for i, a in enumerate(ech.cols) for b in ech.cols[i + 1 :])
    return -ech.last if inversions % 2 else ech.last


def _int_inverse(rows) -> tuple[list[list[int]], int] | None:
    """The inverse of a square rational matrix as int rows over one int L,
    and L, or None if singular: the reduced rows of (rows | I), cleared
    over one denominator (``_cleared``), are L (I | rows^-1)."""
    rows = _exact_matrix(rows, "matrix")
    n = len(rows)
    if rows and len(rows[0]) != n:
        raise DomainError("matrix is not square")
    augmented = [row + tuple(int(j == i) for j in range(n)) for i, row in enumerate(rows)]
    ech = _Echelon(_cleared(augmented)[0])
    if sorted(ech.cols) != list(range(n)):
        return None
    return [row[n:] for row in ech.by_column()], ech.last


def dot(u, v) -> Fraction:
    """Euclidean pairing of two exact vectors of one length."""
    u = _exact_vector(u, "left factor")
    v = _exact_vector(v, "right factor", len(u))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
