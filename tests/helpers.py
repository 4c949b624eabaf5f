"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

from liegrowth.checks import all_expressions, rand_fraction, rand_point  # noqa: F401
from liegrowth.freelie import BracketExpr
from liegrowth.polyfields import Frame, Poly, PolyField


def F(a, b=1) -> Fraction:
    return Fraction(a, b)


def leaf(g) -> BracketExpr:
    return BracketExpr.leaf(g)


def pair(a, b) -> BracketExpr:
    return BracketExpr.pair(a, b)


def chain(*gens) -> BracketExpr:
    """Right-nested wrap [X_{g1}, [X_{g2}, [... X_{gl}]]]."""
    expr = leaf(gens[-1])
    for g in reversed(gens[:-1]):
        expr = pair(leaf(g), expr)
    return expr


def constant_frame(n: int, k: int) -> Frame:
    """(d1, ..., dk) on R^n."""
    return Frame(n, tuple(PolyField.basis(n, j) for j in range(1, k + 1)))


def classical_chain_value(frame: Frame, index, point):
    """Iterated classical bracket with the leftmost-outermost nesting."""
    from liegrowth.polyfields import poly_lie_bracket

    cur = frame.fields[index[-1] - 1]
    for c in reversed(index[:-1]):
        cur = poly_lie_bracket(frame.fields[c - 1], cur)
    return cur.value_at(point)

