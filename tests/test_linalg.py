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


def test_non_square_matrix_raises():
    for call in (linalg.det, linalg._int_inverse):
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
        assert linalg.rank(mixed) == linalg.rank(fracs)
        assert linalg.det(mixed) == linalg.det(fracs)
        assert linalg._int_inverse(mixed) == linalg._int_inverse(fracs)


def test_ragged_rows_are_refused():
    # every row must be as long as the first, not read as a shorter one
    for call in (linalg.rank, linalg.det, linalg._int_inverse):
        for ragged in ([[1, 2], [3]], [[0, 1], [1]], [[1], [2, 3]]):
            with pytest.raises(DomainError, match="matrix row 2 needs"):
                call(ragged)
    with pytest.raises(DomainError, match="matrix row 2 needs 3 coordinates, got 2"):
        linalg.rank([[1, 2, 3], [4, 5]])
