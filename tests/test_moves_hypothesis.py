"""Hypothesis properties of the affine moves, checked by values and by the
Fraction algorithm they replaced, never by the int kernel they share
(``polyfields._Substitution``).

Frames have up to three fields on R^n, n <= 3, with zero, constant and
degree-<= 3 components of int and Fraction coefficients.  Maps have an
invertible rational linear part, and are drawn as maps with zero shift,
integral maps, or maps whose entries have large denominators.  At seeded
rational points y:

* ``pushforward(fr, a)`` takes the value L . X(a^-1 y), with a^-1 y solved
  by sympy (``solve_reference``) and the value from ``PolyField.value_at``;
* ``frame_change(fr, G)`` takes the G-combinations of the frame's values;
* ``p.compose(subs)`` takes the value of p at the substitutions' values;

every coefficient of every output is ``linalg._exact``-normal, and
``pushforward`` equals ``pushforward_reference`` under ``==`` and ``str``
with the same coefficient types."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import linalg  # noqa: E402
from liegrowth.polyfields import (  # noqa: E402
    AffineMap,
    Frame,
    Poly,
    PolyField,
    frame_change,
    pushforward,
)

from helpers import assert_coeff_normal, pushforward_reference, solve_reference  # noqa: E402

_coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
_points = st.fractions(min_value=-5, max_value=5, max_denominator=30)
# the kinds of affine maps: zero shift, integral, large denominators
_ENTRIES = {
    "zero shift": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "integral": st.integers(-3, 3),
    "large denominators": st.fractions(min_value=-3, max_value=3, max_denominator=10**12),
}


def _poly(n: int, max_degree: int = 3):
    """A polynomial in n variables: zero, a constant, or up to four terms
    of degree <= ``max_degree``."""
    exps = st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    return st.one_of(
        st.just(Poly.zero(n)),
        _coeffs.map(lambda c: Poly.const(n, c)),
        st.dictionaries(exps, _coeffs, max_size=4).map(lambda t: Poly(n, t)),
    )


@st.composite
def _frame(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    fields = [PolyField(tuple(draw(_poly(n)) for _ in range(n))) for _ in range(k)]
    return Frame(n, tuple(fields))


def _invertible(draw, size: int, entries):
    rows = st.lists(
        st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size
    )
    return draw(rows.filter(lambda m: linalg.det(m) != 0))


@st.composite
def _affine_map(draw, n: int):
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    entries = _ENTRIES[kind]
    linear = _invertible(draw, n, entries)
    shift = [0] * n if kind == "zero shift" else draw(st.lists(entries, min_size=n, max_size=n))
    return AffineMap.make(linear, shift)


def _point(draw, n: int) -> tuple:
    return tuple(draw(st.lists(_points, min_size=n, max_size=n)))


def _types(fr: Frame) -> list:
    return [[sorted((m, type(c)) for m, c in p.terms.items()) for p in f.comps] for f in fr.fields]


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(fr=_frame(), data=st.data())
def test_pushforward_takes_the_pushed_values_and_equals_the_fraction_reference(fr, data):
    a = data.draw(_affine_map(fr.n))
    moved = pushforward(fr, a)
    for f in moved.fields:
        assert_coeff_normal(f)
    ref = pushforward_reference(fr, a)
    assert moved == ref and str(moved.fields) == str(ref.fields)
    assert _types(moved) == _types(ref)
    for _ in range(2):
        y = _point(data.draw, fr.n)
        x = solve_reference(a.linear, [yi - s for yi, s in zip(y, a.shift)])
        for field, f in zip(moved.fields, fr.fields):
            want = tuple(linalg.dot(row, f.value_at(x)) for row in a.linear)
            assert field.value_at(y) == want


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(fr=_frame(), data=st.data())
def test_frame_change_takes_the_combined_values(fr, data):
    g = _invertible(data.draw, fr.k, _ENTRIES[data.draw(st.sampled_from(sorted(_ENTRIES)))])
    changed = frame_change(fr, g)
    for f in changed.fields:
        assert_coeff_normal(f)
    y = _point(data.draw, fr.n)
    values = fr.values_at(y)
    for m, field in enumerate(changed.fields):
        want = tuple(
            sum((Fraction(g[j][m]) * v[i] for j, v in enumerate(values)), Fraction(0))
            for i in range(fr.n)
        )
        assert field.value_at(y) == want


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_takes_the_value_at_the_substituted_values(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    p = data.draw(_poly(n))
    subs = [data.draw(_poly(m, 2)) for _ in range(n)]
    got = p.compose(subs)
    assert_coeff_normal(got)
    assert got.n == m
    for _ in range(2):
        y = _point(data.draw, m)
        assert got.eval_at(y) == p.eval_at([s.eval_at(y) for s in subs])
