import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from liegrowth import jetalg as ja
from liegrowth.catalog import heisenberg_frame, martinet_frame
from liegrowth.errors import DomainError, IncompleteJet, OrderOverflow
from liegrowth.polyfields import Frame, Poly, PolyField

from helpers import F, classical_chain_value, constant_frame, rand_point


def var(fld, comp, idx, k, n, r):
    return ja.DiffPoly.var(fld, comp, idx, k, n, r)


# --- derive ---------------------------------------------------------------


def test_derive_coordinate_rule():
    p = var(2, 3, (), 2, 3, 3)
    d = ja.derive(p, 1)
    assert d == var(2, 3, (1,), 2, 3, 3)


def test_derive_constant_is_zero():
    p = ja.DiffPoly.const(5, 2, 3, 3)
    assert ja.derive(p, 2).is_zero()


def test_derive_leibniz_against_polynomial_jet():
    # D_1(u^1_1 * u^2_2) expands by Leibniz; check the expansion by
    # evaluating both sides on the jet of a concrete polynomial frame.
    k, n, r = 2, 2, 3
    p = var(1, 1, (), k, n, r) * var(2, 2, (), k, n, r)
    d = ja.derive(p, 1)
    expected = var(1, 1, (1,), k, n, r) * var(2, 2, (), k, n, r) + var(
        1, 1, (), k, n, r
    ) * var(2, 2, (1,), k, n, r)
    assert d == expected

    x1 = Poly.variable(n, 1)
    x2 = Poly.variable(n, 2)
    frame = Frame(
        n,
        (
            PolyField((x1 * x1 + x2, x1)),
            PolyField((Poly.const(n, 3), x1 * x2)),
        ),
    )
    rng = random.Random(11)
    for _ in range(5):
        point = rand_point(rng, n)
        jet = ja.jet_of_frame(frame, point, r - 1)
        # value of D_1(P) at the jet == d/dx1 of (P on the frame) at the point
        f11 = (x1 * x1 + x2)
        f22 = x1 * x2
        product = f11 * f22
        lhs = ja._eval_poly(d, jet)
        assert lhs == product.derivative(1).eval_at(point)


def test_derive_order_overflow():
    p = var(1, 1, (1, 2), 2, 2, 3)  # order 2 == r-1
    with pytest.raises(OrderOverflow):
        ja.derive(p, 1)


def test_derivations_commute():
    k, n, r = 2, 3, 5
    p = var(1, 1, (), k, n, r) * var(2, 3, (2,), k, n, r) + 7 * var(
        2, 1, (), k, n, r
    )
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            assert ja.derive(ja.derive(p, a), b) == ja.derive(ja.derive(p, b), a)


# --- bracket --------------------------------------------------------------


def test_bracket_length_one():
    v = ja.bracket((2,), 3, 4, 2)
    for i in range(4):
        assert v.comps[i] == var(2, i + 1, (), 3, 4, 2)


def test_bracket_repeated_innermost_is_zero():
    assert ja.bracket((1, 1), 2, 3, 2).is_zero()
    assert ja.bracket((2, 1, 1), 2, 3, 3).is_zero()


def test_bracket_length_two_hand_expansion():
    k, n, r = 2, 1, 2
    v = ja.bracket((2, 1), k, n, r)
    expected = var(2, 1, (), k, n, r) * var(1, 1, (1,), k, n, r) - var(
        1, 1, (), k, n, r
    ) * var(2, 1, (1,), k, n, r)
    assert v.comps[0] == expected


def test_bracket_errors():
    with pytest.raises(DomainError):
        ja.bracket((), 2, 2, 3)
    with pytest.raises(OrderOverflow):
        ja.bracket((1, 2, 1), 2, 2, 2)
    with pytest.raises(DomainError):
        ja.bracket((3,), 2, 2, 2)


def test_antisymmetry_small():
    for k, n in ((2, 2), (3, 3)):
        for ln in (2, 3):
            for index in itertools.product(range(1, k + 1), repeat=ln):
                swapped = index[:-2] + (index[-1], index[-2])
                total = ja.bracket(index, k, n, ln) + ja.bracket(swapped, k, n, ln)
                assert total.is_zero(), index


def test_jacobi_small():
    k, n = 3, 2
    for a, b, c in itertools.product(range(1, k + 1), repeat=3):
        s = (
            ja.bracket((a, b, c), k, n, 3)
            + ja.bracket((b, c, a), k, n, 3)
            + ja.bracket((c, a, b), k, n, 3)
        )
        assert s.is_zero(), (a, b, c)


def test_multilinearity_slot_degrees():
    # every monomial carries one coordinate per bracket slot, counted with
    # the multiplicity of the slot's field index
    k, n = 3, 2
    for index in [(1, 2), (2, 1, 3), (1, 1, 2), (3, 2, 1)]:
        slots = Counter(index)
        vec = ja.bracket(index, k, n, len(index))
        for comp in vec.comps:
            for mono in comp.terms:
                fields = Counter(v.field for v in mono)
                assert fields == slots, (index, mono)


def test_max_order_examples():
    assert var(1, 1, (1, 2), 2, 3, 3).order() == 2
    assert ja.bracket((2, 1), 3, 3, 2).order() == 1
    assert ja.bracket((3, 2, 1), 3, 3, 3).order() == 2


def test_order_bound():
    k, n = 2, 2
    for ln in range(1, 5):
        for index in itertools.product(range(1, k + 1), repeat=ln):
            assert ja.bracket(index, k, n, ln).order() <= ln - 1
    # equality attained on a generic index
    assert ja.bracket((1, 1, 2), 2, 2, 3).order() == 2


# --- substitution and variable scans ---------------------------------------


def test_substitute_examples():
    k, n, r = 2, 2, 2
    p = var(1, 1, (), k, n, r)
    assert ja.substitute(p, {ja.JetVar(1, 1, ()): 7}) == ja.DiffPoly.const(
        7, k, n, r
    )
    q = var(1, 1, (), k, n, r) * var(2, 2, (), k, n, r) + 3 * var(2, 1, (), k, n, r)
    assert ja.substitute(q, {}) == q


def test_substitute_with_polynomial_value():
    k, n, r = 2, 2, 2
    p = var(1, 1, (), k, n, r) * var(1, 1, (), k, n, r)
    value = var(2, 1, (), k, n, r) + ja.DiffPoly.const(1, k, n, r)
    got = ja.substitute(p, {ja.JetVar(1, 1, ()): value})
    assert got == value * value


def test_adapted_substitution_matches_hand_expansion():
    # length-2 bracket with the first field pinned to (1, u^2_1, ...) and the
    # second to (0, u^2_2, ...): component-wise hand expansion
    k, n, r = 2, 2, 2
    vec = ja.bracket((1, 2), k, n, r)
    assignment = {ja.JetVar(1, 1, ()): 1, ja.JetVar(2, 1, ()): 0}
    sub = ja.substitute_vec(vec, assignment)
    u12 = var(1, 2, (), k, n, r)
    u22 = var(2, 2, (), k, n, r)
    # [F_1, F_2]^i = sum_j (u^j_1 D_j u^i_2 - u^j_2 D_j u^i_1) with u^1_1 = 1,
    # u^1_2 = 0
    for i in (1, 2):
        expected = (
            var(2, i, (1,), k, n, r)
            + u12 * var(2, i, (2,), k, n, r)
            - u22 * var(1, i, (2,), k, n, r)
        )
        assert sub.comps[i - 1] == expected


def test_pure_t_vars_examples():
    k, n = 2, 3
    vec = ja.bracket((2, 1), k, n, 2)
    got = ja.pure_t_vars(vec, 1, 1)
    assert got == {
        ja.JetVar(fld, comp, (1,)) for fld in (1, 2) for comp in range(1, n + 1)
    }
    zeros = ja.pure_t_vars(vec, 1, 0)
    assert zeros == {
        ja.JetVar(fld, comp, ()) for fld in (1, 2) for comp in range(1, n + 1)
    }


def test_perpendicular_substitution_kills_top_pure_vars():
    k, n = 3, 3
    t = 1
    for ln in (2, 3):
        for index in itertools.product(range(1, k + 1), repeat=ln):
            vec = ja.bracket(index, k, n, ln)
            for s1 in range(ln):
                for s2 in range(s1 + 1, ln):
                    assignment = {
                        ja.JetVar(index[s1], t, ()): 0,
                        ja.JetVar(index[s2], t, ()): 0,
                    }
                    sub = ja.substitute_vec(vec, assignment)
                    assert not ja.pure_t_vars(sub, t, ln - 1), (index, s1, s2)


def test_adapted_wrap_decomposes_as_pure_column_plus_rest():
    # index (1, ..., 1, j): after the adapted substitution the bracket equals
    # the top pure-derivative column of field j plus terms free of top pure
    # derivatives
    k, n = 3, 3
    t = 1
    for ln in (2, 3, 4):
        for j in range(2, k + 1):
            index = (1,) * (ln - 1) + (j,)
            vec = ja.bracket(index, k, n, ln)
            assignment = {ja.JetVar(1, t, ()): 1}
            for m in range(2, k + 1):
                assignment[ja.JetVar(m, t, ())] = 0
            sub = ja.substitute_vec(vec, assignment)
            pure_col = ja.DiffVec(
                tuple(
                    ja.DiffPoly.var(j, i, (t,) * (ln - 1), k, n, ln)
                    for i in range(1, n + 1)
                )
            )
            rest = sub - pure_col
            assert not ja.pure_t_vars(rest, t, ln - 1), index


# --- evaluation and jets ----------------------------------------------------


def test_evaluate_length_one_reads_zero_jet():
    fr = heisenberg_frame()
    jet = ja.jet_of_frame(fr, (F(1, 2), 0, 3), 1)
    for a in (1, 2):
        got = ja.evaluate(ja.bracket((a,), 2, 3, 2), jet)
        assert got == fr.fields[a - 1].value_at((F(1, 2), 0, 3))


def test_evaluate_zero_vector():
    fr = heisenberg_frame()
    jet = ja.jet_of_frame(fr, (0, 0, 0), 1)
    assert ja.evaluate(ja.DiffVec.zero(2, 3, 2), jet) == (0, 0, 0)


def test_evaluate_heisenberg_bracket():
    fr = heisenberg_frame()
    jet = ja.jet_of_frame(fr, (0, 0, 0), 1)
    assert ja.evaluate(ja.bracket((1, 2), 2, 3, 2), jet) == (0, 0, 1)
    assert ja.evaluate(ja.bracket((2, 1), 2, 3, 2), jet) == (0, 0, -1)


def test_evaluate_incomplete():
    fr = heisenberg_frame()
    jet = ja.jet_of_frame(fr, (0, 0, 0), 1)
    with pytest.raises(IncompleteJet):
        ja.evaluate(ja.bracket((1, 2, 1), 2, 3, 3), jet)


def test_pure_derivative_extract():
    fr = heisenberg_frame()
    point = (0, 0, 0)
    jet = ja.jet_of_frame(fr, point, 2)
    assert ja.pure_derivative_extract(jet, 2, 1, 0) == (0, 1, 0)
    assert ja.pure_derivative_extract(jet, 2, 1, 1) == (0, 0, 1)
    assert ja.pure_derivative_extract(jet, 1, 1, 1) == (0, 0, 0)
    assert ja.pure_derivative_extract(jet, 2, 1, 2) == (0, 0, 0)


def test_jet_of_constant_frame():
    fr = constant_frame(4, 2)
    jet = ja.jet_of_frame(fr, (1, 2, 3, 4), 2)
    for v, c in jet.values.items():
        if v.idx:
            assert c == 0
        else:
            assert c == (1 if v.comp == v.field else 0)


def test_jet_of_heisenberg_first_order():
    jet = ja.jet_of_frame(heisenberg_frame(), (0, 0, 0), 1)
    for v, c in jet.values.items():
        if v.idx:
            expected = 1 if v == ja.JetVar(2, 3, (1,)) else 0
            assert c == expected, v


def test_jet_translation_invariance():
    from liegrowth.polyfields import AffineMap, pushforward

    rng = random.Random(5)
    fr = martinet_frame()
    for _ in range(3):
        p = rand_point(rng, 3)
        shift = AffineMap.make(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [-x for x in p]
        )
        translated = pushforward(fr, shift)
        assert ja.jet_of_frame(fr, p, 2).values == ja.jet_of_frame(
            translated, (0, 0, 0), 2
        ).values


def test_jet_point_completeness_check():
    with pytest.raises(IncompleteJet):
        ja.JetPoint(1, 1, 1, (0,), {ja.JetVar(1, 1, ()): F(1)})


# --- oracle equivalence (symbol vs classical), small version ----------------


def test_symbol_matches_classical_brackets_small():
    rng = random.Random(23)
    for fr in (heisenberg_frame(), martinet_frame()):
        k, n = fr.k, fr.n
        for _ in range(3):
            p = rand_point(rng, n)
            jet = ja.jet_of_frame(fr, p, 2)
            for ln in (1, 2, 3):
                for index in itertools.product(range(1, k + 1), repeat=ln):
                    sym = ja.evaluate(ja.bracket(index, k, n, 3), jet)
                    assert sym == classical_chain_value(fr, index, p), index
