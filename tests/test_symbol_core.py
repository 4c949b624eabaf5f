"""The symbol core of ``jetalg``: ``derive`` (the action of D_t, read from
the code table) against the reference derivation, the carried order and
evaluation scale of ``DiffPoly`` against a full walk of its terms, the
canonical form the constructor gives ``JetVar`` monomials, codes that depend
on the ambient alone (a pickled polynomial read back in a fresh interpreter),
the ``JetPoint`` that ``jet_of_frame`` builds from parts against the
checked constructor, and a jet point as a frozen record that keeps its
values once and refuses malformed input."""

import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

from liegrowth import catalog, flags
from liegrowth import jetalg as ja
from liegrowth.errors import DomainError, IncompleteJet, OrderOverflow

from helpers import (
    F,
    derive_all_reference,
    jet_vars,
    order_by_walk,
    rand_fraction,
    rand_point,
)


def _d(v, t):
    return ja.JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))


def _random_var(rng, k, n, max_order):
    idx = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_order)))
    return ja.JetVar(rng.randint(1, k), rng.randint(1, n), tuple(sorted(idx)))


def _random_diffpoly(rng, k, n, r, max_terms=6, max_deg=3):
    """Random terms of order <= r - 2, plus pairs c*a*D_t(b) - c*D_t(a)*b:
    their D_t share the monomial D_t(a)*D_t(b) with opposite coefficients."""
    terms: dict = {}

    def add(mono, c):
        mono = tuple(sorted(mono))
        terms[mono] = terms.get(mono, 0) + c

    for _ in range(rng.randint(0, max_terms)):
        mono = [_random_var(rng, k, n, r - 2) for _ in range(rng.randint(0, max_deg))]
        add(mono, rand_fraction(rng, 4, 3))
    for _ in range(rng.randint(0, 2)):
        a, b = _random_var(rng, k, n, r - 3), _random_var(rng, k, n, r - 3)
        t = rng.randint(1, n)
        c = rand_fraction(rng, 4, 3)
        add((a, _d(b, t)), c)
        add((_d(a, t), b), -c)
    return ja.DiffPoly(k, n, r, terms)


# --- code table -----------------------------------------------------------


def test_derive_all_matches_reference():
    # derive(p, t) for every t against the reference total derivatives.  No
    # table yet, and n = 1 met first: a table of a smaller ambient must not
    # lend its codes or successors to a larger one
    ja._codes.cache_clear()
    rng = random.Random(1601)
    zeros = 0
    for n in (1, 2, 3, 4, 2, 1):
        for _ in range(60):
            k, r = rng.randint(1, 3), rng.randint(3, 5)
            p = _random_diffpoly(rng, k, n, r)
            want = derive_all_reference(p)
            for t, out in enumerate(want, start=1):
                assert ja.derive(p, t) == ja.DiffPoly(k, n, r, out)
            zeros += sum(1 for out in want for c in out.values() if c == 0)
    assert zeros > 0  # cancelled coefficients were exercised


def test_derive_all_keeps_sorted_jetvar_keys():
    # the keys are sorted tuples of int codes; ``sorted_terms`` decodes them
    # to sorted tuples of ``JetVar``s with sorted indices
    rng = random.Random(1602)
    for _ in range(40):
        p = _random_diffpoly(rng, 3, 3, 4)
        for t in range(1, 4):
            d = ja.derive(p, t)
            for mono in d.terms:
                assert type(mono) is tuple and list(mono) == sorted(mono)
                assert all(type(c) is int for c in mono)
            for mono, _ in d.sorted_terms():
                assert type(mono) is tuple and list(mono) == sorted(mono)
                assert all(type(v) is ja.JetVar for v in mono)
                assert all(list(v.idx) == sorted(v.idx) for v in mono)


# --- canonical form -------------------------------------------------------


def test_constructor_sorts_monomials():
    a, b = ja.JetVar(1, 1, ()), ja.JetVar(2, 1, ())
    ab = ja.DiffPoly(2, 2, 3, {(a, b): 1})
    ba = ja.DiffPoly(2, 2, 3, {(b, a): 1})
    assert ba == ab and hash(ba) == hash(ab)
    assert (ba - ab).is_zero()
    assert ba == ja.DiffPoly.var(1, 1, (), 2, 2, 3) * ja.DiffPoly.var(2, 1, (), 2, 2, 3)
    # two spellings of one monomial add up, and may cancel
    assert ja.DiffPoly(2, 2, 3, {(a, b): 1, (b, a): F(1, 2)}) == ab * F(3, 2)
    assert ja.DiffPoly(2, 2, 3, {(a, b): 1, (b, a): -1}).is_zero()
    # the sum of two spellings is normalised like any coefficient
    half = ja.DiffPoly(2, 2, 3, {(a, b): F(1, 2), (b, a): F(1, 2)})
    assert half == ab and [type(c) for c in half.terms.values()] == [int]
    assert ja.DiffPoly(2, 2, 3, {(b, a, b): 1}).sorted_terms() == [((a, b, b), 1)]


def test_constructor_normalises_the_index():
    v = ja.JetVar(1, 2, (2, 1))
    p = ja.DiffPoly(2, 2, 3, {(v,): 3})
    assert p == 3 * ja.DiffPoly.var(1, 2, (1, 2), 2, 2, 3)
    assert p.sorted_terms() == [((ja.JetVar(1, 2, (1, 2)),), 3)]
    assert p.variables() == {ja.JetVar(1, 2, (1, 2))}
    # a plain (field, comp, idx) triple is a coordinate too
    assert ja.DiffPoly(2, 2, 3, {((1, 2, (2, 1)),): 3}) == p


@pytest.mark.parametrize(
    "v, error, text",
    [
        (ja.JetVar(5, 9, (7, 7, 7)), DomainError, r"u\^9_5,\(7,7,7\): field index 5"),
        (ja.JetVar(1, 9, ()), DomainError, r"u\^9_1: component 9"),
        (ja.JetVar(1, 1, (3,)), DomainError, r"u\^1_1,\(3\): derivative direction"),
        (ja.JetVar(1, 1, (0, 1)), DomainError, r"u\^1_1,\(0,1\): derivative direction"),
        (ja.JetVar(1, 2, (2, 1, 1)), OrderOverflow, r"u\^2_1,\(1,1,2\): multi-index"),
        (ja.JetVar(1, 1, (1.5,)), DomainError, "not a jet coordinate"),
        ((1, 1), DomainError, "not a jet coordinate"),
        (7, DomainError, "not a jet coordinate"),
    ],
)
def test_constructor_refuses_a_coordinate_outside_the_ambient(v, error, text):
    with pytest.raises(error, match=text):
        ja.DiffPoly(2, 2, 3, {(v,): 1})
    # a zero coefficient does not excuse a bad coordinate
    with pytest.raises(error, match=text):
        ja.DiffPoly(2, 2, 3, {(ja.JetVar(1, 1, ()), v): 0})


# --- codes depend on the ambient alone -------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

_READ_BACK = """
import pickle, sys
from liegrowth import jetalg as ja
p, k, n, r, terms = pickle.loads(sys.stdin.buffer.read())
assert ja._codes.cache_info().currsize == 0
rebuilt = ja.DiffPoly(k, n, r, terms)
sys.stdout.buffer.write(pickle.dumps(
    (p == rebuilt, hash(p), hash(rebuilt), p.order(), p.sorted_terms(), str(p))
))
"""


def test_a_pickled_polynomial_reads_back_in_a_fresh_interpreter():
    # grow this interpreter's tables in another order than the fresh one will:
    # the (2, 3) table to order 3 by a bracket, after other ambients
    ja._codes.cache_clear()
    ja.bracket((1, 2), 3, 3, 2), ja.bracket((2, 1, 2), 2, 2, 3)
    vec = ja.bracket((1, 2, 2, 1), 2, 3, 4)
    rng = random.Random(1607)
    polys = [c for c in vec.comps] + [_random_diffpoly(rng, 2, 3, 5) for _ in range(4)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for p in polys:
        payload = pickle.dumps((p, p.k, p.n, p.r, dict(p.sorted_terms())))
        out = subprocess.run(
            [sys.executable, "-c", _READ_BACK], input=payload, env=env,
            capture_output=True, check=True, timeout=60,
        )
        same, h, h_rebuilt, order, terms, text = pickle.loads(out.stdout)
        assert same and h == h_rebuilt == hash(p)
        assert (order, terms, text) == (p.order(), p.sorted_terms(), str(p))
        assert pickle.loads(payload)[0] == p


def test_codes_views_and_pickles_survive_an_evicted_table():
    # the tables hold the MAX_TABLES most recently used ambients; a dropped
    # one rebuilds with the same codes, and what was coded against it
    # (a jet's integer store, a polynomial, its pickle) still reads right
    ja._codes.cache_clear()
    assert ja.MAX_TABLES >= 8
    fr = catalog.engel_frame()
    jet = ja.jet_of_frame(fr, (1, F(1, 2), 0, 2), 2)
    vec = ja.bracket((1, 2, 1), 2, 4, 3)
    want = ja.evaluate(vec, jet)
    view = jet._coded(2, 4)
    tab = ja._codes(2, 4)
    codes = {v: tab.index[v] for v in tab.vars}
    payload = pickle.dumps(vec.comps)
    text = [str(c) for c in vec.comps]
    newer = range(5, 5 + ja.MAX_TABLES)
    for n in newer:  # each new ambient pushes out the oldest
        ja.DiffPoly.var(1, 1, (1,), 1, n, 3)
        assert ja._codes.cache_info().currsize <= ja.MAX_TABLES
    # the newer tables are all kept, read in the order they came, and (2, 4)
    # was dropped: it is built again from nothing
    hits = ja._codes.cache_info().hits
    for n in newer:
        ja._codes(1, n)
    info = ja._codes.cache_info()
    assert info.hits == hits + ja.MAX_TABLES and info.currsize == ja.MAX_TABLES
    rebuilt = ja._codes(2, 4)
    assert ja._codes.cache_info().misses == info.misses + 1
    assert rebuilt is not tab and len(rebuilt.vars) < len(tab.vars)
    comps = pickle.loads(payload)
    # a polynomial that carries its order reads through a table rebuilt from nothing
    assert [str(c) for c in comps] == [str(c) for c in vec.comps] == text
    assert ja.evaluate(ja.DiffVec(comps), jet) == ja.evaluate(vec, jet) == want
    assert jet._coded(2, 4)[1] is view[1]
    assert ja._codes(2, 4) is rebuilt
    rebuilt.grow(len(tab.starts) - 2)
    assert {v: rebuilt.index[v] for v in rebuilt.vars} == codes
    assert ja.jet_of_frame(fr, (1, F(1, 2), 0, 2), 2) == jet
    # (2, 4), now the most recently used, outlasts MAX_TABLES - 1 more ambients
    for n in range(30, 30 + ja.MAX_TABLES - 1):
        ja._codes(1, n)
    assert ja._codes(2, 4) is rebuilt


# --- carried order --------------------------------------------------------


def test_carried_order_equals_a_full_walk():
    rng = random.Random(1603)
    for _ in range(80):
        k, n, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(3, 5)
        a = _random_diffpoly(rng, k, n, r)
        b = _random_diffpoly(rng, k, n, r)
        a.order(), b.order()  # carried on the operands before they are combined
        made = {
            "constructor": a,
            "_like": a._like(dict(b.terms)),
            "+": a + b,
            "-": a - b,
            "* poly": a * b,
            "* scalar": a * rand_fraction(rng, 4, 3),
            "neg": -a,
        }
        for what, p in made.items():
            assert p.order() == order_by_walk(p), what
            assert p.order() == order_by_walk(p), what  # the carried value


def test_carried_order_after_substitute():
    rng = random.Random(1604)
    for _ in range(60):
        k, n, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(3, 5)
        p = _random_diffpoly(rng, k, n, r)
        p.order()
        variables = sorted(p.variables())
        assignment = {}
        for v in variables[: rng.randint(0, len(variables))]:
            if rng.random() < 0.5:
                assignment[v] = rand_fraction(rng, 3, 2)
            else:
                assignment[v] = _random_diffpoly(rng, k, n, r, max_terms=2)
        q = ja.substitute(p, assignment)
        assert q.order() == order_by_walk(q)


def test_carried_order_of_brackets():
    for k, n, r in ((2, 2, 4), (2, 3, 4), (3, 2, 3)):
        vecs = {(a,): ja.bracket((a,), k, n, r) for a in range(1, k + 1)}
        for ln in range(2, r + 1):
            for rest in [i for i in vecs if len(i) == ln - 1]:
                for a in range(1, k + 1):
                    vec = ja.diffvec_bracket(vecs[(a,)], vecs[rest])
                    for c in vec.comps:
                        assert c.order() == order_by_walk(c)
                    assert vec.order() == max(map(order_by_walk, vec.comps))
                    if ln < r:
                        vecs[(a,) + rest] = vec


def _evaluate_at_each(fr, p, points, name):
    """Evaluate ``p`` at the jet of ``fr`` at each point against a full walk,
    then check the scale it carries; the last jet is returned."""
    k, n = fr.k, fr.n
    vec = ja.DiffVec((p,) + (ja.DiffPoly.zero(k, n, 4),) * (n - 1))
    assert p._scale is None
    for point in points:
        jet = ja.jet_of_frame(fr, point, 2)
        want = sum((c * prod(jet[v] for v in mono) for mono, c in p.sorted_terms()), F(0))
        assert ja.evaluate(vec, jet)[0] == want, name
    cden = lcm(*(F(c).denominator for c in p.terms.values()))
    assert p._scale == (cden, max(map(len, p.terms), default=0)), name
    return jet


def test_carried_evaluation_scale_equals_a_full_walk():
    # the lcm of the denominators and the largest degree, kept from the first
    # evaluate, serve every later jet
    rng = random.Random(1606)
    frames = catalog.catalog_frames()
    for name, fr in frames.items():
        p = _random_diffpoly(rng, fr.k, fr.n, 4, max_terms=8)
        _evaluate_at_each(fr, p, [rand_point(rng, fr.n) for _ in range(3)], name)
    # an int symbol at int points of a frame with int coefficients: every
    # denominator is 1, and so is every power of it that evaluate weighs by
    rng = random.Random(1608)
    for name in ("heisenberg", "martinet"):
        fr = frames[name]
        symbol = max(ja.bracket((1, 1, 2), fr.k, fr.n, 4).comps, key=lambda c: len(c.terms))
        points = [tuple(rng.randint(-3, 3) for _ in range(fr.n)) for _ in range(3)]
        jet = _evaluate_at_each(fr, symbol, points, name)
        assert symbol.terms and symbol._scale[0] == 1 and jet._coded(fr.k, fr.n)[0] == 1, name


# --- jet points -----------------------------------------------------------


def test_jet_of_frame_equals_a_checked_jet_point():
    rng = random.Random(1605)
    for name, fr in catalog.catalog_frames().items():
        for order in (0, 1, 3):
            jet = ja.jet_of_frame(fr, rand_point(rng, fr.n), order)
            rebuilt = ja.JetPoint(jet.k, jet.n, jet.order, jet.base, dict(jet.values))
            assert jet == rebuilt, (name, order)
            assert all(type(c) is Fraction for c in jet.values.values())
            assert all(type(c) is Fraction for c in jet.base)


def test_user_jet_point_is_normalised_and_checked():
    values = {
        ja.JetVar(1, 1, ()): 2,
        ja.JetVar(1, 1, (1,)): F(1, 2),
        ja.JetVar(1, 1, (2,)): 0,
        ja.JetVar(1, 1, (2, 1)): 3,  # unsorted index
        ja.JetVar(1, 1, (1, 1)): 0,
        ja.JetVar(1, 1, (2, 2)): 0,
    }
    values.update({ja.JetVar(1, 2, v.idx): 1 for v in list(values)})
    jet = ja.JetPoint(1, 2, 2, (1, 0), values)
    assert jet[ja.JetVar(1, 1, (1, 2))] == 3
    assert jet.base == (F(1), F(0)) and type(jet.base[0]) is Fraction
    assert all(type(c) is Fraction for c in jet.values.values())
    del values[ja.JetVar(1, 2, (2, 2))]
    with pytest.raises(IncompleteJet):
        ja.JetPoint(1, 2, 2, (1, 0), values)


@pytest.mark.parametrize(
    "k, n, order, base", [(0, 3, 1, (0, 0, 0)), (1, 0, 1, ()), (1, 1, -1, (0,))]
)
def test_a_jet_point_without_fields_directions_or_order_is_refused(k, n, order, base):
    # refused when built, naming the jet, rather than by a later flag query
    text = rf"k >= 1, n >= 1 and order >= 0, got k={k}, n={n}, order={order}$"
    with pytest.raises(DomainError, match=text):
        ja.JetPoint(k, n, order, base, {})
    # the smallest jet point is fine
    assert ja.JetPoint(1, 1, 0, (0,), {ja.JetVar(1, 1, ()): 1})[ja.JetVar(1, 1, ())] == 1


@pytest.mark.parametrize(
    "order, values, text",
    [
        (0, {"x": 1}, "'x' is not a jet coordinate (field, comp, idx)"),
        (0, [1], "jet values must be a mapping, got list"),
        (
            1,
            {ja.JetVar(1, 1, (None, 1)): 1},
            "JetVar(field=1, comp=1, idx=(None, 1)) is not a jet coordinate (field, comp, idx)",
        ),
    ],
    ids=["str key", "list", "None in index"],
)
def test_a_malformed_jet_point_is_refused_naming_it(order, values, text):
    with pytest.raises(DomainError, match=re.escape(text) + "$"):
        ja.JetPoint(1, 1, order, (0,), values)


def test_a_key_is_read_as_a_coordinate_and_one_the_jet_lacks_is_ignored():
    u, w = ja.JetVar(1, 1, ()), ja.JetVar(1, 1, (1,))
    jet = ja.JetPoint(1, 1, 1, (0,), {u: 2, w: F(1, 3)})
    # a (field, comp, idx) triple names the coordinate its JetVar names
    assert ja.JetPoint(1, 1, 1, (0,), {(1, 1, ()): 2, (1, 1, (1,)): F(1, 3)}) == jet
    # another field, a higher order or a direction outside R^1 names no
    # coordinate of the jet: it is ignored, as ``substitute`` ignores it
    extra = {ja.JetVar(2, 1, ()): 5, ja.JetVar(1, 1, (1, 1)): 7, ja.JetVar(1, 1, (2,)): 9}
    assert ja.JetPoint(1, 1, 1, (0,), {u: 2, w: F(1, 3), **extra}) == jet
    for v in extra:
        with pytest.raises(IncompleteJet, match="jet point has no coordinate"):
            jet[v]  # noqa: B018
    # but its value is read by the exactness rule all the same
    with pytest.raises(DomainError, match=r"jet value of u\^1_2"):
        ja.JetPoint(1, 1, 1, (0,), {u: 2, w: 1, ja.JetVar(2, 1, ()): 0.5})
    assert jet.values == {u: 2, w: F(1, 3)}
    assert repr(jet) == "JetPoint(k=1, n=1, order=1, base=(Fraction(0, 1),))"


def test_a_jet_point_is_frozen_and_its_values_are_a_copy():
    engel = catalog.engel_frame()
    jet = ja.jet_of_frame(engel, (1, F(1, 2), 0, 2), 1)
    v = ja.JetVar(2, 4, ())
    vec = ja.bracket((1, 2), 2, 4, 2)
    before = (jet[v], ja.evaluate(vec, jet), flags.formal_flag(jet, 2))
    for name, value in (("order", 2), ("values", {}), ("k", 1), ("base", (0, 0, 0, 0))):
        with pytest.raises(FrozenInstanceError):
            setattr(jet, name, value)
    # an order-1 Engel jet cannot answer step 3, whatever is written
    with pytest.raises(OrderOverflow, match="step 3 needs jet order 2, have 1"):
        flags.formal_flag(jet, 3)
    values = jet.values
    assert values is not jet.values and values == jet.values
    values[v] = 5
    values[ja.JetVar(1, 1, ())] = 0.5
    assert (jet[v], ja.evaluate(vec, jet), flags.formal_flag(jet, 2)) == before
    assert jet.values != values and jet == ja.jet_of_frame(engel, (1, F(1, 2), 0, 2), 1)


def test_a_jet_point_reads_through_a_rebuilt_table():
    # every read grows the (k, n) table to the jet's order first, so a jet
    # outlives the table it was made with
    values = {v: F(i + 1, 3) for i, v in enumerate(jet_vars(2, 2, 2))}
    jet = ja.JetPoint(2, 2, 2, (0, 0), values)
    for read in (
        lambda: [jet[v] for v in values] == list(values.values()),
        lambda: jet.values == values,
        lambda: ja.evaluate(ja.bracket((1, 2, 1), 2, 2, 3), jet)
        == ja.evaluate(ja.bracket((1, 2, 1), 2, 2, 3), ja.JetPoint(2, 2, 2, (0, 0), values)),
    ):
        ja._codes.cache_clear()
        assert read()
    # a view for another number of fields is rebuilt on each call, None
    # where the jet lacks a field, and reads through a rebuilt table too
    ja._codes.cache_clear()
    denom, wide = jet._coded(3, 2)
    names = ja._codes(3, 2).vars
    assert denom == 3 and jet._coded(3, 2)[1] == wide and jet._coded(3, 2)[1] is not wide
    assert {names[c]: F(u, 3) for c, u in enumerate(wide) if u is not None} == values
    lacking = [names[c] for c, u in enumerate(wide) if u is None]
    assert len(lacking) == len(wide) - len(values) and {v.field for v in lacking} == {3}
