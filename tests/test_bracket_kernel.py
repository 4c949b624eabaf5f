"""The bracket kernel ``polyfields._bracket`` (A(B^i) - B(A^i) through each
ring's field action) against ``helpers.bracket_reference``, which takes every
derivative as a term dict first and multiplies term by term: jet symbols with
multi-term components and repeated coordinates, and classical fields of
degree <= 6 with zero components."""

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
        repeated += any(len(set(m)) < len(m) for c in a.comps for m, _ in c.sorted_terms())
    assert multi > 50 and repeated > 50


def _random_poly(rng, n, max_deg, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rand_fraction(rng, 5, 3)
    return Poly(n, terms)


def _sparse_field(rng, n, max_deg):
    """A field whose components are zero with probability 1/3 and otherwise
    random of degree <= max_deg."""
    return PolyField(
        tuple(
            Poly.zero(n) if rng.random() < 1 / 3 else _random_poly(rng, n, max_deg)
            for _ in range(n)
        )
    )


def test_poly_kernel_matches_reference():
    rng = random.Random(1902)
    zero_comps = 0
    for _ in range(240):
        n = rng.randint(1, 4)
        x = _sparse_field(rng, n, rng.randint(1, 6))
        y = _sparse_field(rng, n, rng.randint(1, 6))
        zero_comps += sum(p.is_zero() for p in x.comps + y.comps)
        got = _bracket(x.comps, y.comps)
        assert got == bracket_reference(x.comps, y.comps)
        assert poly_lie_bracket(x, y) == PolyField(tuple(got))
        for p in got:
            for e in p.terms:
                assert len(e) == n and all(type(x) is int and x >= 0 for x in e)
    assert zero_comps > 100


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
