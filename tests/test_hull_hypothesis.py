"""Hypothesis property of the decided hull search: with one free column,
det(fixed | w) = c . w for the cofactor vector c of the fixed block, so the
component of sign s is the open half-space {w : s * (c . w) > 0} and
``hull_membership_witness`` finds a witness exactly when the target's last
column lies in it.  c is computed here by cofactor expansion on permutations,
independently of ``det_affine_in_free_column`` and of ``linalg``."""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import ampleness as amp  # noqa: E402

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


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
