"""Hypothesis property of the integer-coded symbol core against oracles that
work on ``JetVar`` monomials alone.

Over several ambients ``(k, n, r)``, random polynomials given with unsorted
monomials and unsorted indices are compared, decoded by ``sorted_terms``,
with the same operations done on ``JetVar`` term dicts: construction, ``+``,
``*``, ``derive`` (``helpers.derive_all_reference``), ``diffvec_bracket``
(``helpers.bracket_terms_reference``), ``substitute`` by rationals and by
polynomials, ``order()`` (``helpers.order_by_walk``) and ``evaluate``, at a
jet with more fields and a higher order than the ambient, and at jets with
fewer fields or a lower order, where it raises ``IncompleteJet``."""

import random
from fractions import Fraction
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import jetalg as ja  # noqa: E402
from liegrowth.errors import IncompleteJet  # noqa: E402

from helpers import (  # noqa: E402
    bracket_terms_reference,
    derive_all_reference,
    jet_vars,
    order_by_walk,
    rand_fraction,
)

AMBIENTS = [(1, 1, 3), (2, 2, 3), (2, 3, 4), (3, 2, 4), (1, 3, 5)]

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _canon(v) -> ja.JetVar:
    return ja.JetVar(v.field, v.comp, tuple(sorted(v.idx)))


def _clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def _add(x: dict, y: dict) -> dict:
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def _mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def _reference(raw: dict) -> dict:
    """The canonical ``JetVar`` term dict of constructor input ``raw``."""
    out: dict = {}
    for mono, c in raw.items():
        out = _add(out, {tuple(sorted(map(_canon, mono))): c})
    return out


def _substitute_reference(terms: dict, assignment: dict) -> dict:
    out: dict = {}
    for mono, c in terms.items():
        term = {(): c}
        for v in mono:
            val = assignment.get(v)
            if val is None:
                term = _mul(term, {(v,): 1})
            else:
                term = _mul(term, val if isinstance(val, dict) else {(): val})
        out = _add(out, term)
    return out


def _decoded(p) -> dict:
    return dict(p.sorted_terms())


@st.composite
def _cases(draw):
    k, n, r = draw(st.sampled_from(AMBIENTS))
    # order <= r - 2, so that every polynomial can be derived and bracketed
    idx = st.lists(st.integers(1, n), max_size=r - 2).map(tuple)
    var = st.builds(ja.JetVar, st.integers(1, k), st.integers(1, n), idx)
    raw = st.dictionaries(st.lists(var, max_size=3).map(tuple), _coeffs, max_size=4)
    a, b = draw(raw), draw(raw)
    vec_a = draw(st.lists(raw, min_size=n, max_size=n))
    vec_b = draw(st.lists(raw, min_size=n, max_size=n))
    return (k, n, r), a, b, vec_a, vec_b, draw(st.integers(0, 2**32))


def _jet(k: int, n: int, order: int, rng) -> ja.JetPoint:
    values = {v: rand_fraction(rng, 5, 4) for v in jet_vars(k, n, order)}
    return ja.JetPoint(k, n, order, tuple(rand_fraction(rng, 5, 4) for _ in range(n)), values)


def _value(terms: dict, jet) -> Fraction:
    return sum((c * prod(jet.values[v] for v in mono) for mono, c in terms.items()), Fraction(0))


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_coded_core_matches_the_jetvar_oracles(case):
    (k, n, r), raw_a, raw_b, raw_va, raw_vb, seed = case
    rng = random.Random(seed)
    a, b = ja.DiffPoly(k, n, r, raw_a), ja.DiffPoly(k, n, r, raw_b)
    ta, tb = _reference(raw_a), _reference(raw_b)
    assert _decoded(a) == ta and _decoded(b) == tb

    assert _decoded(a + b) == _add(ta, tb)
    assert _decoded(a - b) == _add(ta, {m: -c for m, c in tb.items()})
    assert _decoded(a * b) == _mul(ta, tb)
    for p in (a, b, a + b, a * b):
        assert p.order() == order_by_walk(p)
        assert p.order() == max((len(v.idx) for m in _decoded(p) for v in m), default=0)
    for t, want in enumerate(derive_all_reference(a), start=1):
        assert _decoded(ja.derive(a, t)) == _clean(want)

    va = ja.DiffVec(tuple(ja.DiffPoly(k, n, r, t) for t in raw_va))
    vb = ja.DiffVec(tuple(ja.DiffPoly(k, n, r, t) for t in raw_vb))
    got = ja.diffvec_bracket(va, vb)
    assert [_decoded(c) for c in got.comps] == bracket_terms_reference(va.comps, vb.comps)
    assert got.order() == max(map(order_by_walk, got.comps))

    # substitute: about half the coordinates of a, by rationals or by b;
    # keys with an unsorted index, each naming its sorted coordinate and,
    # coming last, overriding it; and a field outside the ambient, unused
    present = sorted({v for m in ta for v in m})
    assignment, reference = {}, {}
    for v in present:
        roll = rng.random()
        if roll < 0.3:
            assignment[v] = reference[v] = rand_fraction(rng, 3, 2)
        elif roll < 0.5:
            assignment[v], reference[v] = b, tb
    unsorted = [ja.JetVar(1, 1, (n, 1))]
    unsorted += [ja.JetVar(v.field, v.comp, v.idx[::-1]) for v in present if len(set(v.idx)) > 1]
    for v in unsorted:
        assignment[v] = reference[_canon(v)] = 5
    assignment[ja.JetVar(k + 1, 1, ())] = 7
    sub = ja.substitute(a, assignment)
    assert _decoded(sub) == _substitute_reference(ta, reference)
    assert sub.order() == order_by_walk(sub)

    # evaluate at a jet with one more field and one more order than needed,
    # and at jets with one field fewer and one order lower
    wide = _jet(k + 1, n, r, rng)
    for vec in (va, got):
        want = tuple(_value(_decoded(c), wide) for c in vec.comps)
        assert ja.evaluate(vec, wide) == want
    narrow = _jet(k - 1, n, r - 1, rng) if k > 1 else None
    if narrow is not None:
        if any(v.field == k for c in got.comps for m in _decoded(c) for v in m):
            with pytest.raises(IncompleteJet):
                ja.evaluate(got, narrow)
        else:
            assert ja.evaluate(got, narrow) == tuple(
                _value(_decoded(c), narrow) for c in got.comps
            )
    if got.order() >= 1:
        with pytest.raises(IncompleteJet):
            ja.evaluate(got, _jet(k, n, got.order() - 1, rng))
