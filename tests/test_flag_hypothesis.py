"""Hypothesis properties of the flag engine.

``lie_flag`` on random polynomial frames at the origin and at random
rational points equals ``helpers.lie_flag_reference``, the flag from
untruncated ``poly_lie_bracket`` and ``value_at``, at every ``max_step``
from 1 to n - k + 2, with and without the reference's comparison of its
Hall span with the right-nested chains; a degenerate frame raises
``DegenerateFrame`` in both.

A triangular automorphism phi keeps flags: ``lie_flag`` and
``formal_flag(jet_of_frame(...))`` of phi_* X at phi(p) equal the flag of X
at p, for random, flat and involutive frames.  The map mixes degrees, so
this sees the values of the engine and not only its ranks: on a frame whose
ranks drop (a flat or an involutive one) a wrong derivative leaves the
pushed frame's brackets uncancelled."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import flags, jetalg  # noqa: E402
from liegrowth.polyfields import Frame, Poly, PolyField  # noqa: E402

from helpers import (  # noqa: E402
    apply_triangular,
    constant_frame,
    lie_flag_reference,
    push_triangular,
    triangular_map,
)

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _frame_and_point(draw):
    """k fields on R^n, n <= 4, each the i-th coordinate field plus
    components of degree <= 3 (or, now and then, the coordinate field alone
    or no coordinate field); and a point, the origin
    one time in three, where the low-degree terms of such frames often
    vanish, so that the flag stalls and grows again from high degrees."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    # a monomial of degree <= 3 as the exponent counts of <= 3 variables
    exps = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    polys = st.dictionaries(exps, _coeffs, max_size=3).map(lambda t: Poly(n, t))
    fields = []
    for i in range(k):
        shape = draw(st.integers(0, 5))  # 0: no coordinate field, 1: it alone
        comps = [draw(polys) if shape != 1 else Poly(n) for _ in range(n)]
        if shape:
            comps[i] = comps[i] + Poly.const(n, 1)
        fields.append(PolyField(tuple(comps)))
    origin = st.just((0,) * n)
    point = draw(origin | origin | st.lists(_small, min_size=n, max_size=n).map(tuple))
    return Frame(n, tuple(fields)), point


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(_frame_and_point(), st.booleans())
def test_lie_flag_matches_the_whole_polynomial_reference(frame_point, chains):
    fr, p = frame_point
    for max_step in range(1, fr.n - fr.k + 3):
        got = _outcome(lambda: flags.lie_flag(fr, p, max_step))
        want = _outcome(lambda: lie_flag_reference(fr, p, max_step, chains))
        assert got == want, (max_step, got, want)


@pytest.mark.parametrize("text", [
    "dim 3\nX1 = d1\nX2 = d2 + x1^3*d3\n",
    "dim 3\nX1 = d1 + x2*d2\nX2 = d2 + x1^3*d3\n",
    "dim 4\nX1 = d1\nX2 = d2 + x1^2*d3 + x1^4*d4\n",
    "dim 4\nX1 = d1 + x2^3*d4\nX2 = d2 + x1^2*d3\n",
])
def test_lie_flag_matches_the_reference_where_high_degrees_decide(text):
    # at the origin these flags stall and grow again from the degree-3 and
    # degree-4 terms, which only the high-degree parts of short brackets see
    from liegrowth import parsing

    fr = parsing.parse_frame(text)
    grows = False
    for max_step in range(1, fr.n - fr.k + 4):
        got = flags.lie_flag(fr, (0,) * fr.n, max_step)
        for chains in (False, True):
            assert got == lie_flag_reference(fr, (0,) * fr.n, max_step, chains)
        grows |= got.irregular
    assert grows


@st.composite
def _involutive_frame(draw):
    """X1 = d1 + sum_j (dh_j/dx1) d_j and X2 = d2 + sum_j (dh_j/dx2) d_j over
    j >= 3, each h_j a polynomial in x1, x2: the fields commute, so the flag
    is (2, 2, ...) at every point, and their bracket cancels only when each
    derivative carries its exponent factor."""
    n = draw(st.integers(3, 4))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda e: e + (0,) * (n - 2))
    hs = st.dictionaries(exps, _coeffs, min_size=1, max_size=3).map(lambda t: Poly(n, t))
    hs = [draw(hs) for _ in range(2, n)]
    fields = []
    for i in (1, 2):
        comps = [Poly.const(n, int(j == i)) for j in (1, 2)] + [h.derivative(i) for h in hs]
        fields.append(PolyField(tuple(comps)))
    return Frame(n, tuple(fields))


_flat_frame = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, n).map(lambda k: constant_frame(n, k))
)


@st.composite
def _pushed_case(draw):
    """A frame (random, flat or involutive), a point of it and a triangular
    map of degree <= 2."""
    fr = draw(_frame_and_point().map(lambda case: case[0]) | _flat_frame | _involutive_frame())
    origin = st.just((0,) * fr.n)
    point = draw(origin | st.lists(_small, min_size=fr.n, max_size=fr.n).map(tuple))
    fs = triangular_map(draw(st.randoms(use_true_random=False)), fr.n)
    return fr, point, fs


@settings(max_examples=80, deadline=None)
@given(_pushed_case())
def test_a_triangular_automorphism_keeps_the_flag(case):
    fr, p, fs = case
    pushed, q, step = push_triangular(fr, fs), apply_triangular(fs, p), fr.n
    want = _outcome(lambda: flags.lie_flag(fr, p, step).dims)
    assert _outcome(lambda: flags.lie_flag(pushed, q, step).dims) == want
    jet = jetalg.jet_of_frame(pushed, q, step - 1)
    assert _outcome(lambda: flags.formal_flag(jet, step).dims) == want
