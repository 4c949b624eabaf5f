"""Exact linear algebra over the rationals.

Every routine here is one fraction-free elimination.  ``_cleared`` clears
a whole matrix to ints over one denominator D, the lcm of its entries'
denominators; it is the one way the library turns exact rationals into
ints.  ``_Echelon`` grows the integer-preserving row-echelon form of
Bareiss (Math. Comp. 22 (1968)) one row at a time, with ``_pivot`` as its
only row operation: a new row is reduced against the stored rows in the
order they came, and no stored row is touched again.  Every entry is an
integer minor of the rows added so far, so each division is exact, and
the last pivot ``last`` is the determinant of the pivot block.  Rank is
the pivot count, and the determinant is ``last`` signed by the order of
the pivot columns: ``_int_det`` takes it of int rows, and ``det`` is
``_int_det`` of the cleared rows over D^n.  Only ``by_column`` needs the
reduced form: it back-reduces a copy (Gauss-Jordan, Edmonds, J. Res. NBS
71B (1967)) to ``last`` times the row-reduced rows when it is read.
``_int_inverse`` reads it to give an inverse as int rows over the least
common denominator, which ``polyfields.AffineMap`` keeps
(``AffineMap.inverse`` is the public inverse).  The affine moves of
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
from math import gcd, lcm

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


def _pivot(row, pivot_row, c: int, prev: int) -> list[int]:
    """The one row operation: with p = pivot_row[c], ``row`` becomes
    (p * row - row[c] * pivot_row) // prev, a new list.  ``prev`` is the
    pivot before p, and the division is exact (Sylvester's identity); when
    row[c] is 0 the row is only scaled by p // prev."""
    p, f = pivot_row[c], row[c]
    if not f:
        return [p * a // prev for a in row]
    return [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]


class _Echelon:
    """The fraction-free row-echelon form of the int rows added so far
    (Bareiss's forward elimination).

    ``rows[s]`` has its pivot p_s in column ``cols[s]`` and 0 in every
    earlier pivot column; entry j of it is the (s+1)-minor of the first
    s+1 pivot rows as added, on the columns cols[0..s-1] and j, in that
    order.  So ``last``, the latest pivot, is the determinant of the added
    rows' pivot block, its columns in the order of ``cols``.  ``add(v)``
    reduces v against the rows in order, v = _pivot(v, rows[s], cols[s],
    p_{s-1}) with p_{-1} = 1, and no older row is touched.  The remainder
    is the minor vector ``last * v - sum_s v[cols[s]] * R_s`` for the rows
    R_s of ``by_column``.  A nonzero remainder is a new pivot row at its
    first nonzero column.  That column leads a vector of the row space, so
    it is a pivot of the row-reduced form, and the set of ``cols`` is that
    form's pivot set.  ``by_column`` back-reduces a copy when it is read.
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
        """Reduce the int row ``row`` against the pivot rows; a nonzero
        remainder becomes a pivot row.  A span of full width absorbs it."""
        cols, rows = self.cols, self.rows
        if len(cols) == len(row):
            return
        prev = 1
        for c, pivot_row in zip(cols, rows):
            row = _pivot(row, pivot_row, c, prev)
            prev = pivot_row[c]
        for c, x in enumerate(row):
            if x:
                # a row that no pivot reduced is the caller's: keep a copy
                rows.append(row if cols else list(row))
                cols.append(c)
                self.last = x
                return

    def by_column(self):
        """The rows of ``last`` times the row-reduced form, in the order of
        their pivot columns: Gauss-Jordan on a copy, each pivot row in turn
        clearing its column from the rows above it."""
        rows, prev = list(self.rows), 1
        for t, c in enumerate(self.cols):
            pivot_row = rows[t]
            for i in range(t):
                rows[i] = _pivot(rows[i], pivot_row, c, prev)
            prev = pivot_row[c]
        return [row for _, row in sorted(zip(self.cols, rows))]


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
    and L, or None if singular.  The reduced rows of (rows | I), cleared
    over one denominator (``_cleared``), are last (I | rows^-1); the right
    block and ``last`` are divided by their gcd, so |L| is the least common
    denominator of the inverse's entries."""
    rows = _exact_matrix(rows, "matrix")
    n = len(rows)
    if rows and len(rows[0]) != n:
        raise DomainError("matrix is not square")
    augmented = [row + tuple(int(j == i) for j in range(n)) for i, row in enumerate(rows)]
    ech = _Echelon(_cleared(augmented)[0])
    if sorted(ech.cols) != list(range(n)):
        return None
    inv = [row[n:] for row in ech.by_column()]
    g = gcd(ech.last, *(x for row in inv for x in row))
    return [[x // g for x in row] for row in inv], ech.last // g


def dot(u, v) -> Fraction:
    """Euclidean pairing of two exact vectors of one length."""
    u = _exact_vector(u, "left factor")
    v = _exact_vector(v, "right factor", len(u))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
