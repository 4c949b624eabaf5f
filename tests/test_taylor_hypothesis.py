"""Hypothesis property of the integer Taylor expansion: ``PolyField.taylor``
equals the ``Fraction`` expansion ``taylor_reference`` on random exact fields
(n <= 3, degree <= 3, int and Fraction coefficients) at points with zero,
negative and large-denominator coordinates, mixing ints and Fractions, for
every order from 0 to one past the degree; and every coefficient it stores is
``_coeff``-normal: an int when integral, a Fraction otherwise, never zero."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth.polyfields import Poly, PolyField  # noqa: E402

from helpers import taylor_reference  # noqa: E402

_coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
_coords = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=50),
)


@st.composite
def _field_and_point(draw):
    n = draw(st.integers(1, 3))
    # a monomial of degree <= 3 as the exponent counts of <= 3 variables
    exps = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    polys = st.dictionaries(exps, _coeffs, max_size=4).map(lambda t: Poly(n, t))
    field = PolyField(tuple(draw(polys) for _ in range(n)))
    point = tuple(draw(_coords) for _ in range(n))
    return field, point


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_taylor_matches_the_fraction_reference(data):
    f, point = data.draw(_field_and_point())
    degree = max(p.max_degree() for p in f.comps)
    order = data.draw(st.integers(0, degree + 1))
    got = f.taylor(point, order)
    assert got == taylor_reference(f, point, order)
    for comp in got.comps:
        for c in comp.terms.values():
            assert c != 0
            if isinstance(c, Fraction):
                assert c.denominator != 1
            else:
                assert type(c) is int
