"""Hypothesis properties of the symbol bracket: antisymmetry and the Jacobi
identity of ``diffvec_bracket`` on random order-0 differential vectors with
r = 3 (the total derivatives commute, so the bracket is a commutator of
derivations and both hold exactly).  Every coefficient a bracket returns is
nonzero.

The jet read-off round trip: the Taylor fields ``_taylor_fields`` reads off
``jet_of_frame(fr, p, o)`` are the Taylor fields ``f.taylor(p, o)`` of the
frame, for random polynomial frames, rational points and o = 0..3."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import jetalg as ja  # noqa: E402
from liegrowth.polyfields import Frame, Poly, PolyField  # noqa: E402

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
    assert got == [f.taylor(p, order) for f in fr.fields]
