"""sympy as an independent oracle for the sparse-polynomial core (ring
operations of Poly and DiffPoly, Poly.derivative and poly_lie_bracket) and
for the exact linear algebra of ``linalg``."""

import itertools
import random

import pytest

from liegrowth import jetalg, linalg
from liegrowth.errors import DomainError
from liegrowth.polyfields import AffineMap, Poly, PolyField, poly_lie_bracket

from helpers import F, assert_forward_echelon, rand_fraction

sympy = pytest.importorskip("sympy")


def _rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def _poly_to_sympy(p: Poly, xs):
    return sympy.Add(
        *(_rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
          for exps, c in p.terms.items())
    )


def _diffpoly_to_sympy(p: jetalg.DiffPoly):
    return sympy.Add(
        *(_rational(c) * sympy.Mul(*(sympy.Symbol(str(v)) for v in mono))
          for mono, c in p.sorted_terms())
    )


def _random_poly(rng, n, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rand_fraction(rng, 4, 3)
    return Poly(n, terms)


def _random_diffpoly(rng, k, n, r, max_deg=3, max_terms=4):
    p = jetalg.DiffPoly.zero(k, n, r)
    for _ in range(rng.randint(0, max_terms)):
        term = jetalg.DiffPoly.const(rand_fraction(rng, 4, 3), k, n, r)
        for _ in range(rng.randint(0, max_deg)):
            idx = tuple(rng.randint(1, n) for _ in range(rng.randint(0, r - 1)))
            term = term * jetalg.DiffPoly.var(
                rng.randint(1, k), rng.randint(1, n), idx, k, n, r
            )
        p = p + term
    return p


def _same(got, want) -> bool:
    return sympy.expand(got - want) == 0


def test_poly_ring_operations_match_sympy():
    rng = random.Random(1201)
    for _ in range(40):
        n = rng.randint(1, 4)
        xs = sympy.symbols(f"x1:{n + 1}")
        a, b = _random_poly(rng, n), _random_poly(rng, n)
        sa, sb = _poly_to_sympy(a, xs), _poly_to_sympy(b, xs)
        assert _same(_poly_to_sympy(a + b, xs), sa + sb)
        assert _same(_poly_to_sympy(a - b, xs), sa - sb)
        assert _same(_poly_to_sympy(a * b, xs), sa * sb)
        c = rand_fraction(rng, 4, 3)
        assert _same(_poly_to_sympy(a * c, xs), sa * _rational(c))


def test_diffpoly_ring_operations_match_sympy():
    rng = random.Random(1202)
    for _ in range(40):
        k, n, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a, b = _random_diffpoly(rng, k, n, r), _random_diffpoly(rng, k, n, r)
        sa, sb = _diffpoly_to_sympy(a), _diffpoly_to_sympy(b)
        assert _same(_diffpoly_to_sympy(a + b), sa + sb)
        assert _same(_diffpoly_to_sympy(a - b), sa - sb)
        assert _same(_diffpoly_to_sympy(a * b), sa * sb)


def test_poly_derivative_matches_sympy():
    rng = random.Random(1203)
    for _ in range(40):
        n = rng.randint(1, 4)
        xs = sympy.symbols(f"x1:{n + 1}")
        p = _random_poly(rng, n, max_deg=4)
        for j in range(1, n + 1):
            want = sympy.diff(_poly_to_sympy(p, xs), xs[j - 1])
            assert _same(_poly_to_sympy(p.derivative(j), xs), want)


def test_poly_lie_bracket_matches_sympy():
    rng = random.Random(1204)
    for _ in range(15):
        n = rng.randint(1, 3)
        xs = sympy.symbols(f"x1:{n + 1}")
        x = PolyField(tuple(_random_poly(rng, n) for _ in range(n)))
        y = PolyField(tuple(_random_poly(rng, n) for _ in range(n)))
        sx = [_poly_to_sympy(c, xs) for c in x.comps]
        sy = [_poly_to_sympy(c, xs) for c in y.comps]
        got = poly_lie_bracket(x, y)
        for i in range(n):
            want = sum(
                sx[j] * sympy.diff(sy[i], xs[j]) - sy[j] * sympy.diff(sx[i], xs[j])
                for j in range(n)
            )
            assert _same(_poly_to_sympy(got.comps[i], xs), want), (i, str(x), str(y))


def _random_matrix(rng, rows, cols):
    """Rational entries, a quarter of them zero; some rows repeat or are
    multiples of another row, so rank deficiency is common."""
    mat = [
        [0 if rng.random() < 0.25 else rand_fraction(rng, 6, 4) for _ in range(cols)]
        for _ in range(rows)
    ]
    for i in range(1, rows):
        if rng.random() < 0.2:
            c = rng.choice((1, -2, F(1, 3)))
            mat[i] = [c * x for x in mat[rng.randrange(i)]]
    return mat


def _as_sympy(vec):
    return [_rational(F(x)) for x in vec]


def _sparse_matrix(rng, rows, cols):
    """Rational entries, about 70% of them zero, so that pivots often fall
    out of column order."""
    return [
        [0 if rng.random() < 0.7 else rand_fraction(rng, 6, 4) for _ in range(cols)]
        for _ in range(rows)
    ]


def _permutation_matrices(limit):
    """Every permutation matrix of size 1..limit."""
    for n in range(1, limit + 1):
        for perm in itertools.permutations(range(n)):
            yield [[int(j == perm[i]) for j in range(n)] for i in range(n)]


def _sympy_matrix(mat, rows, cols):
    return sympy.Matrix(rows, cols, [_rational(F(x)) for row in mat for x in row])


def _assert_rank(mat, rows, cols):
    smat = _sympy_matrix(mat, rows, cols)
    assert linalg.rank(mat) == smat.rank()
    # hull_verdict reads independent rows from this pivot set
    ech = linalg._Echelon(linalg._cleared(mat)[0])
    assert set(ech.cols) == set(smat.rref()[1])


def _assert_det_inverse(rng, square):
    n = len(square)
    ssq = _sympy_matrix(square, n, n)
    d = ssq.det()
    assert _rational(linalg.det(square)) == d
    amap = AffineMap.make(square, [rand_fraction(rng, 6, 4) for _ in range(n)])
    if d == 0:
        assert linalg._int_inverse(square) is None
        with pytest.raises(DomainError, match="singular linear part"):
            amap.inverse()
        return
    rows, den = linalg._int_inverse(square)
    sinv = ssq.inv()
    assert [[_rational(F(x, den)) for x in row] for row in rows] == sinv.tolist()
    inv = amap.inverse()
    assert [_as_sympy(row) for row in inv.linear] == sinv.tolist()
    assert _as_sympy(inv.shift) == list(-sinv * sympy.Matrix(_as_sympy(amap.shift)))


def test_linalg_matches_sympy_on_random_matrices():
    # dense matrices put their pivots in increasing column order; sparse and
    # permutation matrices do not, which the sign of det and the order of
    # the rows of the inverse depend on
    rng = random.Random(1205)
    for make in (_random_matrix, _sparse_matrix):
        for _ in range(300):
            rows, cols = rng.randint(0, 6), rng.randint(1, 7)
            _assert_rank(make(rng, rows, cols), rows, cols)
            _assert_det_inverse(rng, make(rng, rows, rows))
    for perm in _permutation_matrices(4):
        _assert_rank(perm, len(perm), len(perm))
        _assert_det_inverse(rng, perm)


def _int_matrix(rng, rows, cols, zeros=0.5):
    return [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def test_forward_echelon_matches_sympy_minors():
    rng = random.Random(3801)
    cases = []
    for _ in range(40):
        cases.append(_int_matrix(rng, rng.randint(1, 3), rng.randint(4, 7)))  # wide
        cases.append(_int_matrix(rng, rng.randint(4, 7), rng.randint(1, 3)))  # tall
        mat = _int_matrix(rng, rng.randint(3, 5), rng.randint(3, 5))
        i, j = rng.sample(range(len(mat)), 2)
        mat[i] = [rng.choice((-2, 1, 3)) * a + b for a, b in zip(mat[j], mat[rng.randrange(len(mat))])]
        cases.append(mat)  # rank-deficient
        mat = _int_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        mat[rng.randrange(len(mat))] = [0] * len(mat[0])
        cases.append(mat)  # an all-zero row
        # zero leading entries: every later row has 0 in the first pivot
        # column, so its first forward step only scales it
        n = rng.randint(2, 5)
        mat = _int_matrix(rng, n, n + rng.randint(0, 2), zeros=0.3)
        mat[0][0] = rng.choice((-3, 2, 5))
        for row in mat[1:]:
            row[0] = 0
        cases.append(mat)
    for mat in cases:
        assert_forward_echelon(mat)


def test_int_inverse_takes_the_least_denominator():
    # row denominators 7, 12 and 10^6 + 3 on one seeded 4x4: clearing the
    # augmented rows over their lcm scales last * A^-1 by D^n, and the gcd
    # brings it down to the least common denominator of A^-1
    rng = random.Random(3802)
    dens = (7, 12, 10**6 + 3, 5)
    while True:
        square = [[F(rng.randint(-20, 20), d) for _ in range(4)] for d in dens]
        ssq = _sympy_matrix(square, 4, 4)
        if ssq.det():
            break
    rows, den = linalg._int_inverse(square)
    sinv = ssq.inv()
    assert abs(den) == sympy.ilcm(*(x.q for x in sinv))
    assert [[_rational(F(x, den)) for x in row] for row in rows] == sinv.tolist()

