import random

import pytest

from liegrowth import linalg
from liegrowth.ampleness import det_affine_in_free_column
from liegrowth.errors import DomainError

from helpers import F, phase1_feasible_reference, rand_fraction


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


def _lp(rng, rows, cols):
    """Random columns and right-hand side with zeros and negative entries;
    every third right-hand side is a nonnegative combination of the
    columns, so feasible and infeasible programs both occur."""
    def entry():
        return 0 if rng.random() < 0.25 else rand_fraction(rng, 6, 4)

    columns = [[entry() for _ in range(rows)] for _ in range(cols)]
    if rng.random() < 1 / 3:
        weights = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(cols)]
        rhs = [sum(w * col[i] for w, col in zip(weights, columns))
               for i in range(rows)]
    else:
        rhs = [entry() for _ in range(rows)]
    return columns, rhs


def test_phase1_feasible_matches_fraction_reference():
    rng = random.Random(17)
    outcomes = set()
    negative = 0
    for _ in range(2000):
        columns, rhs = _lp(rng, rng.randint(1, 6), rng.randint(1, 12))
        negative += any(b < 0 for b in rhs)
        want = phase1_feasible_reference(columns, rhs)
        assert linalg._phase1_feasible(columns, rhs) == want, (columns, rhs)
        outcomes.add(want is None)
    assert outcomes == {True, False} and negative > 500


def test_phase1_feasible_matches_reference_on_hull_programs():
    """The programs hull_membership_witness builds: one column per sampled
    matrix (its free entries, then 1) against the target's free entries and
    1.  Targets on the cofactor hyperplane of one free column are never
    reached; the others usually are."""
    rng = random.Random(29)
    outcomes = set()
    for n, fixed_cols in ((2, 0), (3, 1), (3, 2), (3, 2)):
        free = range(fixed_cols, n)
        for _ in range(5):
            fixed = [[rand_fraction(rng, 4, 3) for _ in range(fixed_cols)]
                     for _ in range(n)]
            target = [row + [rand_fraction(rng, 2, 2) for _ in free] for row in fixed]
            if len(free) == 1:
                c = det_affine_in_free_column(fixed)
                if c[-1]:
                    w = sum(c[i] * target[i][-1] for i in range(n - 1))
                    target[-1][-1] = -w / c[-1]
            samples = []
            count = rng.choice((8, 20, 40))
            while len(samples) < count:
                mat = [row + [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in free]
                       for row in fixed]
                if linalg.det(mat) > 0:
                    samples.append(mat)
            columns = [[m[i][j] for i in range(n) for j in free] + [1] for m in samples]
            rhs = [target[i][j] for i in range(n) for j in free] + [1]
            want = phase1_feasible_reference(columns, rhs)
            assert linalg._phase1_feasible(columns, rhs) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}
