"""Hypothesis property of the integer Taylor expansion: ``PolyField.taylor``
equals the ``Fraction`` expansion ``taylor_reference`` on random exact fields
(n <= 3, degree <= 3, int and Fraction coefficients) at points with zero,
negative and large-denominator coordinates, mixing ints and Fractions, for
every order from 0 to one past the degree, and on terms of degree up to 6 at
orders 0 to 2, where the expansion prunes by degree; and every coefficient it
stores is ``linalg._exact``-normal: an int when integral, a Fraction otherwise, never
zero.  The leaves of one call share one expansion about the point
(``polyfields._taylor_leaves``): on frames of up to three fields whose
components and fields draw from one pool of monomials, asked for their
degrees in a random order and interleaved, each leaf's parts equal those of
a leaf built alone and, read back, ``taylor_reference``.  A frame reused
across rational points, which clears its fields once (``PolyField._clearing``),
gives at each point the ``lie_flag``, ``jet_of_frame`` and ``PolyField.taylor``
of a freshly parsed copy."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import flags, jetalg  # noqa: E402
from liegrowth.parsing import frame_to_text, parse_frame  # noqa: E402
from liegrowth.polyfields import Frame, Poly, PolyField, _taylor_leaves  # noqa: E402

from helpers import assert_coeff_normal, graded_field, taylor_reference  # noqa: E402

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


@st.composite
def _shared_frame(draw):
    """Up to three fields on R^n, n <= 3, whose components take their
    monomials (degree <= 4) from one small pool; a point of zero and nonzero
    coordinates; an order; and the degrees 0..order in a random order."""
    n = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, n - 1), max_size=4).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    pool = draw(st.lists(exps, min_size=1, max_size=4, unique=True))
    polys = st.dictionaries(st.sampled_from(pool), _coeffs, max_size=len(pool)).map(
        lambda t: Poly(n, t)
    )
    k = draw(st.integers(1, 3))
    fields = [PolyField(tuple(draw(polys) for _ in range(n))) for _ in range(k)]
    point = draw(
        st.lists(_coords, min_size=n, max_size=n)
        .filter(lambda p: any(p) and not all(p) or n == 1)
        .map(tuple)
    )
    order = draw(st.integers(0, max(sum(e) for e in pool) + 1))
    degrees = draw(st.permutations(range(order + 1)))
    return fields, point, order, degrees


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(case=_shared_frame(), data=st.data())
def test_leaves_sharing_one_expansion_match_leaves_built_alone(case, data):
    fields, point, order, degrees = case
    leaves = _taylor_leaves(fields, point, order)
    alone = [_taylor_leaves([f], point, order)[0] for f in fields]
    for d in degrees:
        for j in data.draw(st.permutations(range(len(fields)))):
            assert leaves[j].part(d) == alone[j].part(d)
    for f, leaf, solo in zip(fields, leaves, alone):
        assert leaf.scale == solo.scale and leaf.top == solo.top
        assert graded_field(leaf, order) == taylor_reference(f, point, order)


@st.composite
def _reused_frame(draw):
    """X_i = d_i + sum_{j > k} q_ij d_j on R^n, n <= 4, each q_ij of degree
    <= 2 with int and Fraction coefficients, so independent at every point;
    and three points mixing ints and Fractions."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, min(2, n - 1)))
    exps = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    polys = st.dictionaries(exps, _coeffs, max_size=3).map(lambda t: Poly(n, t))
    one, zero = Poly.const(n, 1), Poly.zero(n)
    fields = tuple(
        PolyField(tuple(one if j == i else draw(polys) if j >= k else zero for j in range(n)))
        for i in range(k)
    )
    points = st.lists(_coords, min_size=n, max_size=n).map(tuple)
    return Frame(n, fields), draw(st.lists(points, min_size=3, max_size=3))


def _answers(fr, point) -> tuple:
    return (
        flags.lie_flag(fr, point, 3),
        jetalg.jet_of_frame(fr, point, 2),
        [f.taylor(point, 2) for f in fr.fields],
    )


@seed(39)
@settings(max_examples=60, deadline=None)
@given(case=_reused_frame())
def test_a_frame_reused_across_points_answers_as_a_fresh_copy(case):
    fr, points = case
    text = frame_to_text(fr)
    for point in points:
        fresh = parse_frame(text)
        assert fresh.fields == fr.fields
        assert _answers(fr, point) == _answers(fresh, point)
