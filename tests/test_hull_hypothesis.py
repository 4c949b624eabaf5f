"""Hypothesis properties of the hull verdicts.  With one free column,
det(fixed | w) = c . w for the cofactor vector c of the fixed block, so the
component of sign s is the open half-space {w : s * (c . w) > 0} and
``hull_membership_witness`` finds a witness exactly when the target's last
column lies in it.  With independent fixed columns and two or more free
columns every verdict is a witness.  ``gl_convex_decomposition`` writes
every square matrix as an average of two nonsingular ones, of the sign
opposite to its own when it is nonsingular, and ``det_affine_in_free_column``
gives the cofactors c whatever the rows' denominators.  Determinants and c
are computed here by expansion on permutations, independently of
``det_affine_in_free_column`` and of ``linalg``."""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import ampleness as amp  # noqa: E402

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# the same values, drawn faster, for the larger matrices below
_small_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _leibniz_det(rows) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        term = math.prod((rows[i][perm[i]] for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def _cofactors(fixed) -> list[Fraction]:
    """c with det(fixed | w) = sum(c_i * w_i): the cofactors of the last
    column, c_i = (-1)^(i + n) det(fixed without row i), 1-based i."""
    n = len(fixed)
    return [
        (-1) ** (i + n) * _leibniz_det([fixed[r] for r in range(n) if r != i - 1])
        for i in range(1, n + 1)
    ]


@st.composite
def _one_free_column(draw):
    """An n x (n-1) fixed block (n in 2..4), sometimes with dependent columns,
    and a last column that is sometimes on the cofactor hyperplane."""
    n = draw(st.integers(2, 4))
    fixed = [[draw(_entries) for _ in range(n - 1)] for _ in range(n)]
    if draw(st.booleans()):  # dependent fixed columns, so c = 0
        scale = draw(_entries)
        for row in fixed:
            row[-1] = scale * row[0]
    last = [draw(_entries) for _ in range(n)]
    c = _cofactors(fixed)
    pivot = next((i for i, x in enumerate(c) if x), None)
    if pivot is not None and draw(st.booleans()):  # move onto c . w = 0
        rest = sum(x * w for i, (x, w) in enumerate(zip(c, last)) if i != pivot)
        last[pivot] = -rest / c[pivot]
    return fixed, last, c


@settings(max_examples=150, deadline=None)
@given(_one_free_column(), st.sampled_from((1, -1)), st.integers(0, 10**6))
def test_one_free_column_witness_iff_half_space(case, sign, seed):
    fixed, last, c = case
    n = len(fixed)
    target = [fixed[i] + [last[i]] for i in range(n)]
    spec = amp.MatrixSpaceSpec(n, n, fixed, n)
    value = sum((x * w for x, w in zip(c, last)), Fraction(0))
    found = amp.hull_membership_witness(spec, target, sign, budget=300, seed=seed)
    assert (found is not None) == (sign * value > 0)


def _gram_det(fixed) -> Fraction:
    """det(F^T F), nonzero exactly when the columns of F are independent."""
    cols = list(zip(*fixed))
    return _leibniz_det([[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols])


@st.composite
def _ample_case(draw):
    """k independent fixed columns (k in 0..2), m in 2..5 free columns, and a
    target whose first free column is sometimes zero, so singular."""
    k, m = draw(st.integers(0, 2)), draw(st.integers(2, 5))
    n = k + m
    fixed = [[draw(_small_entries) for _ in range(k)] for _ in range(n)]
    assume(k == 0 or _gram_det(fixed) != 0)
    free = [[draw(_small_entries) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        for row in free:
            row[0] = Fraction(0)
    return fixed, [f + w for f, w in zip(fixed, free)]


@settings(max_examples=150, deadline=None)
@given(_ample_case(), st.sampled_from((1, -1)))
def test_two_or_more_free_columns_always_give_a_witness(case, sign):
    fixed, target = case
    n = len(target)
    verdict = amp.hull_verdict(amp.MatrixSpaceSpec(n, n, fixed, n), target, sign)
    assert isinstance(verdict, amp.ConvexWitness)
    verdict.validate(target, det_sign=sign)
    if n <= 5:
        assert all(sign * _leibniz_det(m) > 0 for _, m in verdict.terms)


@st.composite
def _refutable_case(draw):
    """At most one free column (n in 1..4), or n <= 5 with m >= 2 free
    columns after k >= 2 fixed columns, the second a multiple of the first."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        k = n - draw(st.integers(0, 1))
    else:
        k = draw(st.integers(2, 3))
        n = k + draw(st.integers(2, 5 - k))
    fixed = [[draw(_small_entries) for _ in range(k)] for _ in range(n)]
    if n - k >= 2 or (k >= 2 and draw(st.booleans())):
        scale = draw(_small_entries)
        for row in fixed:
            row[1] = scale * row[0]
    target = [row + [draw(_small_entries) for _ in range(n - k)] for row in fixed]
    return fixed, target


@settings(max_examples=150, deadline=None)
@given(_refutable_case(), st.sampled_from((1, -1)))
def test_one_free_column_or_dependent_fixed_columns_refute(case, sign):
    fixed, target = case
    n, k = len(target), len(fixed[0])
    verdict = amp.hull_verdict(amp.MatrixSpaceSpec(n, n, fixed, n), target, sign)
    d = _leibniz_det(target)
    if sign * d > 0:  # the target is its own one-member witness
        assert isinstance(verdict, amp.ConvexWitness) and len(verdict.terms) == 1
        return
    assert isinstance(verdict, amp.Refutation)
    dependent = k > 0 and _gram_det(fixed) == 0
    assert (verdict.fixed_rank < k) == dependent
    if n - k == 0:
        assert verdict.cofactors == () and verdict.value == d
    elif n - k == 1:
        c = _cofactors(fixed)
        assert list(verdict.cofactors) == c
        assert verdict.value == sum((x * row[-1] for x, row in zip(c, target)), Fraction(0))
        assert sign * verdict.value <= 0
    else:
        assert dependent and verdict.cofactors is None and verdict.value is None


@st.composite
def _square(draw):
    """An n x n rational matrix (n in 2..4), sometimes singular: a zero
    matrix, or a last row that is a multiple of the first."""
    n = draw(st.integers(2, 4))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("any", "dependent", "zero")))
    if kind == "dependent":
        scale = draw(_entries)
        rows[-1] = [scale * x for x in rows[0]]
    elif kind == "zero":
        rows = [[Fraction(0)] * n for _ in range(n)]
    return rows


@settings(max_examples=150, deadline=None)
@given(_square())
def test_gl_decomposition_members_are_nonsingular_and_average_to_the_input(rows):
    n = len(rows)
    w = amp.gl_convex_decomposition(rows)
    assert sum(weight for weight, _ in w.terms) == 1
    d = _leibniz_det(rows)
    for _, member in w.terms:
        dm = _leibniz_det(member)
        assert dm != 0
        if d:
            assert (dm > 0) != (d > 0)
    average = [
        [sum((weight * m[i][j] for weight, m in w.terms), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    assert average == rows


@st.composite
def _block_with_row_denominators(draw):
    """An n x (n-1) block (n in 2..4) whose rows have distinct
    denominators, row i over dens[i]."""
    n = draw(st.integers(2, 4))
    dens = draw(st.permutations((1, 2, 3, 5, 7)))[:n]
    return [[Fraction(draw(st.integers(-6, 6)), d) for _ in range(n - 1)] for d in dens]


@settings(max_examples=150, deadline=None)
@given(_block_with_row_denominators())
def test_det_affine_in_free_column_matches_the_cofactors(fixed):
    assert list(amp.det_affine_in_free_column(fixed)) == _cofactors(fixed)
