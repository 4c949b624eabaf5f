"""Hypothesis property of the integer Taylor expansion: ``PolyField.taylor``
equals the ``Fraction`` expansion ``taylor_reference`` on random exact fields
(n <= 3, degree <= 3, int and Fraction coefficients) at points with zero,
negative and large-denominator coordinates, mixing ints and Fractions, for
every order from 0 to one past the degree, and on terms of degree up to 6 at
orders 0 to 2, where the expansion prunes by degree; and every coefficient it
stores is ``linalg._exact``-normal: an int when integral, a Fraction otherwise, never
zero."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth.polyfields import Poly, PolyField  # noqa: E402

from helpers import assert_coeff_normal, taylor_reference  # noqa: E402

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
def _field_and_point(draw, max_degree=3):
    n = draw(st.integers(1, 3))
    # a monomial of degree <= max_degree as the exponent counts of that many
    # variables
    exps = st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    polys = st.dictionaries(exps, _coeffs, max_size=4).map(lambda t: Poly(n, t))
    field = PolyField(tuple(draw(polys) for _ in range(n)))
    point = tuple(draw(_coords) for _ in range(n))
    return field, point


def _check(f, point, order):
    got = f.taylor(point, order)
    assert got == taylor_reference(f, point, order)
    assert_coeff_normal(got)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_taylor_matches_the_fraction_reference(data):
    f, point = data.draw(_field_and_point())
    degree = max(p.max_degree() for p in f.comps)
    _check(f, point, data.draw(st.integers(0, degree + 1)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_taylor_prunes_high_degree_terms(data):
    f, point = data.draw(_field_and_point(max_degree=6))
    _check(f, point, data.draw(st.integers(0, 2)))
