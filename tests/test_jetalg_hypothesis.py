"""Hypothesis properties of the symbol bracket: antisymmetry and the Jacobi
identity of ``diffvec_bracket`` on random order-0 differential vectors with
r = 3 (the total derivatives commute, so the bracket is a commutator of
derivations and both hold exactly).  Every coefficient a bracket returns is
nonzero."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import jetalg as ja  # noqa: E402

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
