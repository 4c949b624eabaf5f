"""Hypothesis properties of the shared Lie-bracket kernel through
``poly_lie_bracket``: antisymmetry and the Jacobi identity on random fields
(n <= 3, degree <= 2) and on their Taylor polynomials of random degrees in
2..4 about a shared point.  Every coefficient a bracket returns is nonzero."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth.polyfields import Poly, PolyField, poly_lie_bracket  # noqa: E402

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _checked(x, y):
    out = poly_lie_bracket(x, y)
    assert all(c != 0 for comp in out.comps for c in comp.terms.values())
    return out


@st.composite
def _fields(draw, count, taylor):
    """``count`` fields on one R^n with components of degree <= 2; with
    ``taylor``, each is replaced by its Taylor polynomial about a shared
    point, of its own degree in 2..4."""
    n = draw(st.integers(1, 3))
    # a monomial of degree <= 2 as the exponent counts of <= 2 variables
    exps = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    polys = st.dictionaries(exps, _coeffs, max_size=3).map(lambda t: Poly(n, t))
    fields = [
        PolyField(tuple(draw(polys) for _ in range(n))) for _ in range(count)
    ]
    if taylor:
        point = draw(st.lists(_small, min_size=n, max_size=n))
        fields = [f.taylor(point, draw(st.integers(2, 4))) for f in fields]
    return fields


@pytest.mark.parametrize("taylor", [False, True], ids=["exact", "taylor"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_bracket_is_antisymmetric(taylor, data):
    x, y = data.draw(_fields(2, taylor))
    assert (_checked(x, y) + _checked(y, x)).is_zero()


@pytest.mark.parametrize("taylor", [False, True], ids=["exact", "taylor"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_bracket_satisfies_jacobi(taylor, data):
    x, y, z = data.draw(_fields(3, taylor))
    br = _checked
    total = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    assert total.is_zero()
