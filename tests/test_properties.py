"""Cross-module randomized properties and golden determinism checks."""

import itertools
import random
from fractions import Fraction
from math import factorial

from liegrowth import flags, freelie, jetalg, linalg, parsing
from liegrowth.polyfields import Frame, Poly, PolyField, _pack_width, poly_lie_bracket

from helpers import (
    apply_triangular,
    classical_chain_value,
    jet_by_derivatives,
    lie_flag_reference,
    push_triangular,
    rand_fraction,
    rand_point,
    triangular_map,
    truncate,
)


def _random_poly(rng, n, max_deg=2, max_terms=3):
    p = Poly.zero(n)
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        p = p + Poly(n, {tuple(exps): rand_fraction(rng, 4, 2)})
    return p


def _random_frame(rng, n, k, max_deg=2):
    """Random polynomial frame with constant parts the first k basis vectors,
    so the fields stay independent near rational sample points; its other
    terms have degree <= max_deg + 1.
    """
    fields = []
    for j in range(1, k + 1):
        comps = []
        for i in range(1, n + 1):
            base = Poly.const(n, 1 if i == j else 0)
            comps.append(base + _random_poly(rng, n, max_deg) * Poly.variable(n, 1))
        fields.append(PolyField(tuple(comps)))
    return Frame(n, tuple(fields))


def test_symbols_match_classical_on_random_frames():
    rng = random.Random(101)
    for trial in range(6):
        n = rng.choice((2, 3))
        k = 2
        fr = _random_frame(rng, n, k)
        p = rand_point(rng, n, span=2, den=2)
        jet = jetalg.jet_of_frame(fr, p, 2)
        for ln in (1, 2, 3):
            for index in itertools.product(range(1, k + 1), repeat=ln):
                sym = jetalg.evaluate(jetalg.bracket(index, k, n, 3), jet)
                assert sym == classical_chain_value(fr, index, p), (trial, index)


def test_formal_flag_matches_lie_flag_on_random_frames():
    # lie_flag (Taylor brackets) against formal_flag (jet symbols) and against
    # the ranks of the exact classical chains
    rng = random.Random(202)
    for _ in range(6):
        fr = _random_frame(rng, 3, 2)
        p = rand_point(rng, 3, span=2, den=2)
        jet = jetalg.jet_of_frame(fr, p, 2)
        dims = flags.lie_flag(fr, p, 3).dims
        assert flags.formal_flag(jet, 3).dims == dims
        chains = []
        for ln, dim in enumerate(dims, start=1):
            chains += [
                classical_chain_value(fr, index, p)
                for index in itertools.product((1, 2), repeat=ln)
            ]
            assert linalg.rank(chains) == dim


def test_bracket_commutes_with_taylor_truncation():
    rng = random.Random(808)
    for _ in range(8):
        n = rng.choice((2, 3))
        fr = _random_frame(rng, n, 2)
        X, Y = fr.fields
        p = rand_point(rng, n, span=2, den=2)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        exact = poly_lie_bracket(X, Y)
        got = truncate(poly_lie_bracket(X.taylor(p, a), Y.taylor(p, b)), min(a, b) - 1)
        assert got == exact.taylor(p, min(a, b) - 1)
        origin = (0,) * n
        assert tuple(c.terms.get(origin, 0) for c in got.comps) == exact.value_at(p)


def test_taylor_coefficients_are_scaled_jet_derivatives():
    # coefficient of x^alpha times alpha! is the alpha-th derivative at p;
    # order 1 truncates the random frames (degree up to 3)
    rng = random.Random(909)
    for _ in range(4):
        n = rng.choice((2, 3))
        fr = _random_frame(rng, n, 2)
        p = rand_point(rng, n, span=2, den=2)
        for order in (1, 3):
            ref = jet_by_derivatives(fr, p, order)
            for fld, field in enumerate(fr.fields, start=1):
                t = field.taylor(p, order)
                assert all(c.max_degree() <= order for c in t.comps)
                for comp, poly in enumerate(t.comps, start=1):
                    for ln in range(order + 1):
                        for idx in itertools.combinations_with_replacement(
                            range(1, n + 1), ln
                        ):
                            alpha = tuple(idx.count(j) for j in range(1, n + 1))
                            coeff = poly.terms.get(alpha, Fraction(0))
                            scale = 1
                            for e in alpha:
                                scale *= factorial(e)
                            assert coeff * scale == ref[jetalg.JetVar(fld, comp, idx)]
                    assert poly.max_degree() <= order


def test_jet_of_frame_matches_derivative_chains_on_catalog_frames():
    from liegrowth.catalog import catalog_frames, rank4_step2_frame

    rng = random.Random(910)
    frames = list(catalog_frames().values()) + [rank4_step2_frame()]
    assert len(frames) == 6
    for fr in frames:
        p = rand_point(rng, fr.n, span=3, den=3)
        jet = jetalg.jet_of_frame(fr, p, 3)
        assert jet.values == jet_by_derivatives(fr, p, 3)


# jet orders and the bits per exponent of their packed Taylor monomials
# (polyfields._pack_width): every width from 1 to 4, and two orders of width 3
PACKING_WIDTHS = ((1, 1), (3, 2), (4, 3), (7, 3), (8, 4))


def test_jets_and_flags_are_read_right_at_every_packing_width():
    # random frames with terms up to degree order + 1, at points where their
    # values are independent: the jet read off the packed Taylor parts
    # equals the derivative chains, and the flag of that jet equals the
    # flag of the frame and the whole-polynomial reference
    rng = random.Random(1103)
    for order, width in PACKING_WIDTHS:
        assert _pack_width(order) == width
        for trial in range(3):
            n = rng.choice((2, 3))
            fr = _random_frame(rng, n, 2, max_deg=order)
            p = rand_point(rng, n, span=2, den=2)
            while linalg.rank(fr.values_at(p)) < 2:
                p = rand_point(rng, n, span=2, den=2)
            jet = jetalg.jet_of_frame(fr, p, order)
            assert jet.values == jet_by_derivatives(fr, p, order), (order, trial)
            want = lie_flag_reference(fr, p, order + 1)
            assert flags.lie_flag(fr, p, order + 1) == want, (order, trial)
            assert flags.formal_flag(jet, order + 1) == want, (order, trial)


def test_a_deep_involutive_flag_is_read_right_at_every_packing_width():
    # X1 = d1, X2 = q(x1) (d2 + d3) with q of degree `order` spans an
    # involutive distribution whose brackets ad_X1^m X2 = q^(m)(x1) (d2 + d3)
    # do not vanish up to m = order, so the flag is (2, ..., 2) through step
    # order + 1 and the store asks the leaves for every degree up to
    # `order`; a triangular automorphism makes every component dense
    rng = random.Random(1104)
    x1 = Poly.variable(3, 1)
    for order, _ in PACKING_WIDTHS:
        q = sum((x1**e * rand_fraction(rng, 3, 2) for e in range(order)), x1**order)
        p = rand_point(rng, 3, span=2, den=2)
        while q.eval_at(p) == 0:
            p = rand_point(rng, 3, span=2, den=2)
        fr = Frame(3, (PolyField.basis(3, 1), PolyField((Poly.zero(3), q, q))))
        fs = triangular_map(rng, 3)
        moved, at = push_triangular(fr, fs), apply_triangular(fs, p)
        jet = jetalg.jet_of_frame(moved, at, order)
        assert jet.values == jet_by_derivatives(moved, at, order), order
        want = flags.lie_flag(moved, at, order + 1)
        assert want.dims == (2,) * (order + 1), order
        assert flags.formal_flag(jet, order + 1) == want, order


def test_tree_symbols_match_tree_brackets():
    # bracket symbols of arbitrary expression trees agree with the classical
    # bracket of the same tree on jets of frames
    rng = random.Random(303)
    fr = _random_frame(rng, 3, 2)
    p = rand_point(rng, 3, span=2, den=2)
    jet = jetalg.jet_of_frame(fr, p, 3)

    def tree_field(expr):
        if expr.is_leaf:
            return fr.fields[expr.gen - 1]
        return poly_lie_bracket(tree_field(expr.left), tree_field(expr.right))

    basis = freelie.hall_basis(2, 4)
    for expr in basis.elements():
        sym = jetalg.evaluate(jetalg.bracket_of_expr(expr, 2, 3, 4), jet)
        assert sym == tree_field(expr).value_at(p), str(expr)


def test_frame_serialization_round_trips_random_frames():
    rng = random.Random(404)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        k = rng.randint(1, min(3, n))
        fr = _random_frame(rng, n, k)
        text = parsing.frame_to_text(fr)
        assert parsing.parse_frame(text) == fr


def test_bracket_expansion_is_deterministic_text():
    vec = jetalg.bracket((2, 1), 2, 2, 2)
    assert str(vec) == (
        "(-u^1_1*u^1_2,(1) + u^1_1,(1)*u^1_2 + u^1_1,(2)*u^2_2 - u^2_1*u^1_2,(2))*d1"
        " + (-u^1_1*u^2_2,(1) - u^2_1*u^2_2,(2) + u^2_1,(1)*u^1_2 + u^2_1,(2)*u^2_2)*d2"
    )


def test_hall_listing_is_deterministic_text():
    basis = freelie.hall_basis(2, 5)
    flat = ", ".join(str(e) for e in basis.layer(5))
    assert flat == (
        "[X1, [X1, [X1, [X1, X2]]]], "
        "[X2, [X1, [X1, [X1, X2]]]], "
        "[X2, [X2, [X1, [X1, X2]]]], "
        "[X2, [X2, [X2, [X1, X2]]]], "
        "[[X1, X2], [X1, [X1, X2]]], "
        "[[X1, X2], [X2, [X1, X2]]]"
    )


def test_normal_pure_derivatives_never_change_the_formal_flag():
    # the span of the frame misses direction 3; overwriting the pure
    # derivatives along it moves inside one principal subspace and must not
    # change any flag dimension
    from liegrowth.catalog import heisenberg_frame

    rng = random.Random(606)
    fr = heisenberg_frame()
    jet = jetalg.jet_of_frame(fr, (0, 0, 0), 1)
    base_dims = flags.formal_flag(jet, 2).dims
    for _ in range(5):
        values = dict(jet.values)
        for fld in (1, 2):
            for comp in (1, 2, 3):
                values[jetalg.JetVar(fld, comp, (3,))] = rand_fraction(rng, 5, 3)
        moved = jetalg.JetPoint(2, 3, 1, (0, 0, 0), values)
        assert flags.formal_flag(moved, 2).dims == base_dims


def test_non_normal_pure_derivatives_do_change_the_formal_flag():
    # along a spanned direction the top pure derivatives are exactly the
    # data the bracket condition constrains: zeroing them kills the growth
    from liegrowth.catalog import heisenberg_frame

    fr = heisenberg_frame()
    jet = jetalg.jet_of_frame(fr, (0, 0, 0), 1)
    values = dict(jet.values)
    for fld in (1, 2):
        for comp in (1, 2, 3):
            values[jetalg.JetVar(fld, comp, (1,))] = Fraction(0)
            values[jetalg.JetVar(fld, comp, (2,))] = Fraction(0)
    flat = jetalg.JetPoint(2, 3, 1, (0, 0, 0), values)
    assert flags.formal_flag(flat, 2).dims == (2, 2)


def test_slice_reports_translate_along_left_invariant_frames():
    from liegrowth import ampleness as amp
    from liegrowth.catalog import cartan_frame

    rng = random.Random(707)
    fr = cartan_frame()
    for _ in range(3):
        p = rand_point(rng, 5, span=2, den=2)
        v = tuple(rand_fraction(rng, 3, 2) for _ in range(5))
        vecs = fr.values_at(p)
        from liegrowth import linalg as la

        if all(la.dot(v, b) == 0 for b in vecs) or all(x == 0 for x in v):
            continue
        reps = amp.slice_report(fr, p, v, 3)
        # free-type rank-2: the top level is always the hyperplane case
        assert reps[-1].verdict is amp.Verdict.NOT_AMPLE_HYPERPLANE
        for rep in reps[:-1]:
            assert rep.verdict is amp.Verdict.AMPLE_THIN_COMPLEMENT


def test_growth_vector_entries_dominate_every_realized_flag():
    # no random polynomial frame ever exceeds the maximal growth vector
    rng = random.Random(505)
    for _ in range(8):
        fr = _random_frame(rng, 3, 2)
        p = rand_point(rng, 3, span=2, den=2)
        dims = flags.lie_flag(fr, p, 3).dims
        gv = freelie.maximal_growth_vector(2, 3)
        for got, bound in zip(dims, gv.entries):
            assert got <= bound
