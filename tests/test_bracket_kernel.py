"""The bracket kernel ``polyfields._bracket`` (A(B^i) - B(A^i) through each
ring's field action) against ``helpers.bracket_reference``, which takes every
derivative as a term dict first and multiplies term by term: jet symbols with
multi-term components and repeated coordinates, and Taylor fields at every cap
from 0 to 4."""

import random

from liegrowth import jetalg as ja
from liegrowth.polyfields import Poly, PolyField, _bracket, poly_lie_bracket

from helpers import bracket_reference, rand_fraction


def _random_var(rng, k, n, max_order):
    idx = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_order)))
    return ja.JetVar(rng.randint(1, k), rng.randint(1, n), tuple(sorted(idx)))


def _random_component(rng, k, n, r):
    """Up to 5 terms of order <= r - 2 and degree <= 3; about one term in
    three repeats a coordinate."""
    terms: dict = {}
    for _ in range(rng.randint(0, 5)):
        mono = [_random_var(rng, k, n, r - 2) for _ in range(rng.randint(0, 2))]
        if mono and rng.random() < 0.35:
            mono.append(mono[0])
        mono = tuple(sorted(mono))
        terms[mono] = terms.get(mono, 0) + rand_fraction(rng, 4, 3)
    return ja.DiffPoly(k, n, r, terms)


def _random_diffvec(rng, k, n, r):
    return ja.DiffVec(tuple(_random_component(rng, k, n, r) for _ in range(n)))


def _assert_sorted_keys(comps):
    for p in comps:
        for mono in p.terms:
            assert type(mono) is tuple and list(mono) == sorted(mono)


def test_diffvec_kernel_matches_reference():
    rng = random.Random(1901)
    multi = repeated = 0
    for _ in range(150):
        k, n, r = rng.randint(1, 3), rng.randint(1, 4), rng.randint(3, 5)
        a, b = _random_diffvec(rng, k, n, r), _random_diffvec(rng, k, n, r)
        got = _bracket(a.comps, b.comps)
        assert got == bracket_reference(a.comps, b.comps)
        assert ja.diffvec_bracket(a, b) == ja.DiffVec(got)
        _assert_sorted_keys(got)
        multi += any(len(c.terms) > 1 for c in a.comps)
        repeated += any(len(set(m)) < len(m) for c in a.comps for m in c.terms)
    assert multi > 50 and repeated > 50


def _random_poly(rng, n, max_deg, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rand_fraction(rng, 5, 3)
    return Poly(n, terms)


def test_taylor_kernel_matches_reference_at_every_cap():
    rng = random.Random(1902)
    for cap in (0, 1, 2, 3, 4, None):
        for _ in range(40):
            n = rng.randint(1, 4)
            order = 4 if cap is None else cap + 1
            x = PolyField(tuple(_random_poly(rng, n, order) for _ in range(n)), order)
            y = PolyField(tuple(_random_poly(rng, n, order) for _ in range(n)), order)
            got = _bracket(x.comps, y.comps, cap)
            assert got == bracket_reference(x.comps, y.comps, cap)
            if cap is not None:
                assert all(sum(e) <= cap for p in got for e in p.terms)
                assert poly_lie_bracket(x, y) == PolyField(tuple(got), cap)
            for p in got:
                for e in p.terms:
                    assert len(e) == n and all(type(x) is int and x >= 0 for x in e)


def test_partial_derivatives_are_the_coordinate_field_actions():
    rng = random.Random(1903)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = _random_poly(rng, n, 4)
        for j in range(1, n + 1):
            want = {}
            for exps, c in p.terms.items():
                if exps[j - 1]:
                    want[exps[: j - 1] + (exps[j - 1] - 1,) + exps[j:]] = c * exps[j - 1]
            assert p.derivative(j) == Poly(n, want)
