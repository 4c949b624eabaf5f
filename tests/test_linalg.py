import random

import pytest

from liegrowth import linalg
from liegrowth.errors import DomainError

from helpers import F, rand_fraction


def test_rank_basics():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]) == 1


def test_rank_matches_rref_pivots():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rand_fraction(rng, 4, 3) for _ in range(cols)] for _ in range(rows)]
        _, pivots = sympy.Matrix(mat).rref()
        assert linalg.rank(mat) == len(pivots)


def test_det_examples():
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[F(1, 2), 0], [0, F(2, 3)]]) == F(1, 3)
    assert linalg.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert linalg.det([]) == 1


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        a = [[rand_fraction(rng, 3, 2) for _ in range(3)] for _ in range(3)]
        b = [[rand_fraction(rng, 3, 2) for _ in range(3)] for _ in range(3)]
        prod = [
            [sum(a[i][m] * b[m][j] for m in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert linalg.det(prod) == linalg.det(a) * linalg.det(b)


def test_solve_and_inverse():
    a = [[2, 1], [1, 3]]
    x = linalg.solve(a, [5, 10])
    assert x == [F(1), F(3)]
    inv = linalg.inverse(a)
    assert inv == [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]
    assert linalg.solve([[1, 1], [2, 2]], [1, 2]) is None
    assert linalg.inverse([[1, 1], [2, 2]]) is None


def test_solve_refuses_a_right_hand_side_of_another_length():
    # every equation needs its right-hand side: a longer b is not cut to fit,
    # and a shorter one does not make the system unsolvable
    with pytest.raises(DomainError, match="1 rows, 2 entries in b"):
        linalg.solve([[1]], [1, 2])
    with pytest.raises(DomainError, match="2 rows, 1 entries in b"):
        linalg.solve([[1, 0], [0, 1]], [1])


def test_nullspace():
    basis = linalg.nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for vec in basis:
        assert linalg.dot([1, 2, 3], vec) == 0
    assert linalg.nullspace([[1, 0], [0, 1]]) == []


def test_rowless_matrix_raises():
    # a matrix with no rows cannot carry its width: neither an empty basis
    # nor an empty solution is the answer for a 0 x c matrix
    with pytest.raises(DomainError, match="empty matrix"):
        linalg.nullspace([])
    with pytest.raises(DomainError, match="empty matrix"):
        linalg.solve([], [])


def test_non_square_matrix_raises():
    for call in (linalg.det, linalg.inverse):
        with pytest.raises(DomainError, match="matrix is not square"):
            call([[1, 2]])



def test_mixed_int_and_fraction_rows_read_like_fraction_rows():
    # rows are read as they come: an int entry is not wrapped in a Fraction,
    # and the answers equal those of the all-Fraction rows
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        mixed = [
            [rng.randint(-3, 3) if rng.random() < 0.5 else rand_fraction(rng, 3, 4)
             for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.4:
            mixed[-1] = [2 * x for x in mixed[0]]  # singular
        fracs = [[F(x) for x in row] for row in mixed]
        b = [rng.randint(-3, 3) for _ in range(n)]
        assert linalg.rank(mixed) == linalg.rank(fracs)
        assert linalg.det(mixed) == linalg.det(fracs)
        assert linalg.solve(mixed, b) == linalg.solve(fracs, [F(x) for x in b])
        assert linalg.nullspace(mixed) == linalg.nullspace(fracs)
        assert linalg.inverse(mixed) == linalg.inverse(fracs)


def test_ragged_rows_are_refused():
    # every row must be as long as the first, not read as a shorter one
    for call in (linalg.rank, linalg.nullspace):
        for ragged in ([[1, 2], [3]], [[0, 1], [1]], [[1], [2, 3]]):
            with pytest.raises(DomainError, match="matrix row 2 needs"):
                call(ragged)
    with pytest.raises(DomainError, match="matrix row 2 needs 3 coordinates, got 2"):
        linalg.solve([[1, 2], [3]], [1, 2])
