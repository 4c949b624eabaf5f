"""Hypothesis properties of the symbol bracket: antisymmetry and the Jacobi
identity of ``diffvec_bracket`` on random order-0 differential vectors with
r = 3 (the total derivatives commute, so the bracket is a commutator of
derivations and both hold exactly).  Every coefficient a bracket returns is
nonzero.

The shared vector of ``PolyField`` and ``DiffVec``: ``+``, ``-``, unary
``-``, ``scale`` by a number and by a ring element, ``is_zero``, ``str`` and
equality are the componentwise ring operations, for random vectors of
either type.

The jet read-off round trip: the Taylor fields that the graded leaves of
``_taylor_fields`` stand for (``helpers.graded_field``), read off
``jet_of_frame(fr, p, o)``, are the Taylor fields ``f.taylor(p, o)`` of the
frame, for random polynomial frames, rational points and o = 0..3.

The integer read-back: on user-built jet points with zero, negative and
large-denominator values, the leaves of ``_taylor_fields`` hold nonzero ints
only, the fields they stand for equal the ``Fraction`` division of
``helpers.taylor_fields_reference`` at every order up to the jet's, and the
integer store that ``_coded`` hands out is the values times the lcm of their
denominators, one per code."""

from math import lcm
from operator import add, sub

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import jetalg as ja  # noqa: E402
from liegrowth.polyfields import Frame, Poly, PolyField  # noqa: E402

from helpers import (  # noqa: E402
    assert_coeff_normal,
    graded_field,
    jet_vars,
    taylor_fields_reference,
)

K, N, R = 3, 2, 3

_zero_jet_vars = st.builds(
    ja.JetVar, st.integers(1, K), st.integers(1, N), st.just(())
)
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_monos = st.lists(_zero_jet_vars, max_size=2).map(lambda vs: tuple(sorted(vs)))
_polys = st.dictionaries(_monos, _coeffs, max_size=3).map(
    lambda terms: ja.DiffPoly(K, N, R, terms)
)
_vecs = st.lists(_polys, min_size=N, max_size=N).map(ja.DiffVec)


def _checked(a, b):
    out = ja.diffvec_bracket(a, b)
    assert all(c != 0 for comp in out.comps for c in comp.terms.values())
    return out


@settings(max_examples=60, deadline=None)
@given(_vecs, _vecs)
def test_bracket_is_antisymmetric(a, b):
    assert (_checked(a, b) + _checked(b, a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(_vecs, _vecs, _vecs)
def test_bracket_satisfies_jacobi(a, b, c):
    br = _checked
    total = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
    assert total.is_zero()


@st.composite
def _vector_case(draw):
    """Two vectors of one type and ambient, a number and an element of their
    ring: ``DiffVec``s of ``_vecs``, or ``PolyField``s on R^n, n <= 3, with
    polynomials as in ``_frame_and_point``; the second vector is sometimes
    a copy of the first."""
    if draw(st.booleans()):
        vecs, elements = _vecs, _polys
    else:
        n = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 3)] * n)
        elements = st.dictionaries(exps, _coeffs, max_size=4).map(lambda t: Poly(n, t))
        vecs = st.lists(elements, min_size=n, max_size=n).map(lambda c: PolyField(tuple(c)))
    a = draw(vecs)
    b = type(a)(a.comps) if draw(st.booleans()) else draw(vecs)
    return a, b, draw(_coeffs | st.just(0)), draw(elements)


@settings(max_examples=100, deadline=None)
@given(_vector_case())
def test_vector_operations_are_componentwise(case):
    a, b, c, p = case
    vec = type(a)
    for got, want in [
        (a + b, map(add, a.comps, b.comps)),
        (a - b, map(sub, a.comps, b.comps)),
        (-a, (-x for x in a.comps)),
        (a.scale(c), (x * c for x in a.comps)),
        (a.scale(p), (x * p for x in a.comps)),
    ]:
        assert type(got) is vec and got.comps == tuple(want)
    assert a.is_zero() == all(x.is_zero() for x in a.comps)
    terms = [f"({x})*d{j}" for j, x in enumerate(a.comps, start=1) if not x.is_zero()]
    assert str(a) == (" + ".join(terms) or "0")
    assert (a == b) == (a.comps == b.comps)
    assert a == vec(a.comps) and hash(a) == hash(vec(a.comps))


@st.composite
def _frame_and_point(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    polys = st.dictionaries(exps, _coeffs, max_size=4).map(lambda t: Poly(n, t))
    fields = [PolyField(tuple(draw(st.lists(polys, min_size=n, max_size=n)))) for _ in range(k)]
    point = draw(st.lists(_coeffs | st.just(0), min_size=n, max_size=n))
    return Frame(n, tuple(fields)), tuple(point)


@settings(max_examples=60, deadline=None)
@given(_frame_and_point(), st.integers(0, 3))
def test_taylor_fields_invert_the_jet_read_off(frame_point, order):
    fr, p = frame_point
    got = ja._taylor_fields(ja.jet_of_frame(fr, p, order), order)
    assert [graded_field(leaf, order) for leaf in got] == [f.taylor(p, order) for f in fr.fields]


_values = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=50),
)


@st.composite
def _jets(draw):
    k, n, order = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    names = jet_vars(k, n, order)
    vals = draw(st.lists(_values, min_size=len(names), max_size=len(names)))
    base = draw(st.lists(_values, min_size=n, max_size=n))
    return ja.JetPoint(k, n, order, tuple(base), dict(zip(names, vals)))


@settings(max_examples=150, deadline=None)
@given(_jets())
def test_taylor_fields_read_back_matches_the_fraction_reference(jet):
    denom, view = jet._coded(jet.k, jet.n)
    assert denom == lcm(*(c.denominator for c in jet.values.values()))
    names = ja._codes(jet.k, jet.n).vars
    assert {names[c]: u for c, u in enumerate(view)} == {
        v: int(c * denom) for v, c in jet.values.items()
    }
    for order in range(jet.order + 1):
        got = [graded_field(leaf, order) for leaf in ja._taylor_fields(jet, order)]
        assert got == taylor_fields_reference(jet, order)
        for f in got:
            assert all(c.max_degree() <= order for c in f.comps)
            assert_coeff_normal(f)
