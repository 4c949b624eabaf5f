import random
import threading

import pytest

from liegrowth import jetalg as ja
from liegrowth import linalg
from liegrowth.errors import DomainError, OrderOverflow
from liegrowth.parsing import parse_frame
from liegrowth.polyfields import (
    AffineMap,
    Frame,
    Poly,
    PolyField,
    frame_change,
    poly_lie_bracket,
    pushforward,
)

from helpers import F, rand_fraction, rand_point


def test_poly_arithmetic():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1**3).eval_at((2, 0)) == 8
    assert Poly.const(2, F(1, 2)) * 4 == Poly.const(2, 2)
    assert (p - p).is_zero()


def test_poly_derivative():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = x1 * x1 * x2 + x2 * 3
    assert p.derivative(1) == 2 * x1 * x2
    assert p.derivative(2) == x1 * x1 + Poly.const(2, 3)
    assert Poly.const(2, 5).derivative(1).is_zero()


def test_poly_derivative_direction_out_of_range_raises():
    # x1^2 * x2 * 3: index 0 would wrap to the last exponent, 3 runs off the key
    p = Poly(2, {(2, 1): 3})
    for j in (0, 3, -1):
        with pytest.raises(DomainError):
            p.derivative(j)
    assert p.derivative(2) == Poly(2, {(2, 0): 3})


def test_poly_compose_affine_consistency():
    rng = random.Random(13)
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = x1 * x1 + 2 * x1 * x2 - x2
    subs = [x1 - x2, x2 + Poly.const(2, 3)]
    q = p.compose(subs)
    for _ in range(10):
        pt = rand_point(rng, 2)
        expected = p.eval_at((subs[0].eval_at(pt), subs[1].eval_at(pt)))
        assert q.eval_at(pt) == expected


def test_poly_compose_needs_one_substitution_per_variable():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = x1 * x2 + x1
    for subs in ([x1], [], [x1, x2, x1]):
        with pytest.raises(DomainError, match=f"compose needs 2 substitutions, got {len(subs)}"):
            p.compose(subs)
    # each term substitutes one variable, so no product meets both ambients
    with pytest.raises(DomainError, match="different ambients"):
        (x1 + x2).compose([x1, Poly.variable(3, 1)])
    assert p.compose([x2, x1]) == x1 * x2 + x2
    assert Poly.const(2, 7).compose([Poly.variable(3, 1), Poly.variable(3, 2)]) == Poly.const(3, 7)
    assert Poly.zero(2).compose([x1, x2]) == Poly.zero(2)


def test_poly_str_deterministic():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = x2 * x2 - x1 + Poly.const(2, F(1, 2))
    assert str(p) == "1/2 - x1 + x2^2"


def test_poly_mixed_ambients_raise():
    a = Poly(2, {(1, 0): 1})
    b = Poly(3, {(0, 0, 1): 1})
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b


def test_poly_float_coefficients_raise():
    with pytest.raises(DomainError):
        Poly(1, {(1,): 0.5})
    with pytest.raises(DomainError):
        Poly.variable(1, 1) * 0.5


_INEXACT = (0.1, float("nan"), float("inf"), "1/3")


def test_float_entry_points_raise():
    fr = Frame(2, (PolyField.basis(2, 1), PolyField.basis(2, 2)))
    x1 = Poly.variable(2, 1)
    amap = AffineMap.make([[1, 0], [0, 1]], [0, 0])
    for bad in _INEXACT:
        with pytest.raises(DomainError, match="change matrix row 1 coordinate 1"):
            frame_change(fr, [[bad, 0], [0, 1]])
        with pytest.raises(DomainError, match="linear part row 2 coordinate 1"):
            AffineMap.make([[1, 0], [bad, 1]], [0, 0])
        with pytest.raises(DomainError, match="shift coordinate 2"):
            AffineMap.make([[1, 0], [0, 1]], [0, bad])
        with pytest.raises(DomainError, match="point coordinate 1"):
            x1.eval_at((bad, 0))
        with pytest.raises(DomainError, match="point coordinate 2"):
            fr.fields[0].value_at((0, bad))
        with pytest.raises(DomainError, match="point coordinate 2"):
            amap.apply((0, bad))
        with pytest.raises(DomainError, match="coefficient must be an exact rational"):
            Poly(2, {(1, 0): bad})
        with pytest.raises(DomainError, match="scalar must be an exact rational"):
            x1 * bad
        for call in (linalg.rank, linalg.det, linalg.inverse, linalg.nullspace):
            with pytest.raises(DomainError, match="matrix row 2 coordinate 1"):
                call([[1, 0], [bad, 1]])
        with pytest.raises(DomainError, match="matrix row 2 coordinate 3"):
            linalg.solve([[1, 0], [0, 1]], [0, bad])
        with pytest.raises(DomainError, match="right factor coordinate 2"):
            linalg.dot((1, 0), (0, bad))
    for call in (x1.eval_at, fr.fields[0].value_at, fr.values_at, amap.apply):
        for point in ((1,), (1, 2, 3)):
            with pytest.raises(DomainError, match="point needs 2 coordinates"):
                call(point)
    assert frame_change(fr, [[F(1, 10), 0], [0, 1]]).fields[0] == PolyField.basis(2, 1).scale(F(1, 10))
    assert AffineMap.make([[1, 0], [0, 2]], [F(1, 10), 0]).apply((0, 1)) == (F(1, 10), 2)
    assert x1.eval_at((F(1, 10), 7)) == F(1, 10)


def test_affine_map_shape_is_checked():
    heis = Frame(3, (PolyField.basis(3, 1), PolyField.basis(3, 2)))
    with pytest.raises(DomainError, match="linear part needs 3 rows, got 2"):
        pushforward(heis, AffineMap.make([[1, 0, 0], [0, 1, 0]], [0, 0, 0]))
    with pytest.raises(DomainError, match="linear part row 1 needs 2 coordinates, got 3"):
        AffineMap.make([[1, 0, 0], [0, 1, 0]], [0, 0])


_VECTORS = {
    "PolyField": (PolyField, lambda n: [Poly.variable(n, j) for j in range(1, n + 1)]),
    "DiffVec": (
        ja.DiffVec,
        lambda n: [ja.DiffPoly.var(1, j, (), 2, n, 2) for j in range(1, n + 1)],
    ),
}


@pytest.mark.parametrize("kind", sorted(_VECTORS))
def test_malformed_vector_components_raise(kind):
    # both field types read their components by one rule; before it, a
    # malformed PolyField was accepted and failed later: IndexError in
    # poly_lie_bracket or lie_flag for a wrong count, AttributeError in str
    # for (1, 2)
    vec, comps = _VECTORS[kind]
    two, three = comps(2), comps(3)
    alien = ja.DiffPoly.var(1, 2, (), 2, 2, 2) if vec is PolyField else Poly.variable(2, 2)
    cases = [
        ((), "a vector needs at least one component"),
        (5, "vector components must be a sequence, got int"),
        ((1, 2), "vector component 1 is of type int, not a polynomial"),
        ((two[0], "x2"), "vector component 2 is of type str, not "),
        ((two[0], alien), f"vector component 2 is of type {type(alien).__name__}, not "),
        ((two[0], three[1]), "vector components 1 and 2 have different ambients"),
        ((three[0], three[1]), r"one component per variable \(3\), got 2"),
        ((two[0], two[1], two[0]), r"one component per variable \(2\), got 3"),
    ]
    for bad, named in cases:
        with pytest.raises(DomainError, match=named):
            vec(bad)
    assert vec(two).comps == tuple(two) and vec(iter(two)) == vec(two)


@pytest.mark.parametrize("point", [5, None], ids=["int", "None"])
def test_a_point_that_cannot_be_iterated_is_a_domain_error(point):
    # every reader of a point goes through linalg._exact_vector; before that
    # rule these were a TypeError from enumerate or from len(point)
    from liegrowth import catalog
    from liegrowth.ampleness import slice_report
    from liegrowth.flags import lie_flag

    heis = catalog.heisenberg_frame()
    calls = [
        lambda: heis.values_at(point),
        lambda: ja.jet_of_frame(heis, point, 2),
        lambda: lie_flag(heis, point, 2),
        lambda: slice_report(heis, point, (1, 0, 0), 2),
    ]
    named = f"point must be a sequence, got {type(point).__name__}"
    for call in calls:
        with pytest.raises(DomainError, match=named):
            call()


@pytest.mark.parametrize("kind", sorted(_VECTORS))
def test_vector_arithmetic_with_a_non_vector_names_its_type(kind):
    vec, comps = _VECTORS[kind]
    v = vec(comps(2))
    for other in (5, None, "x"):
        for symbol, op in (("+", v.__add__), ("-", v.__sub__)):
            with pytest.raises(DomainError) as err:
                op(other)
            assert str(err.value) == (
                f"{kind} {symbol} {type(other).__name__}: the operand is not a vector"
            )
    assert (v + v) - v == v


def test_an_error_raised_while_iterating_is_not_read_as_a_non_sequence():
    # only an input that cannot be iterated is refused as "must be a
    # sequence"; a TypeError raised inside a generator propagates as it is
    from liegrowth.flags import StratifiedAlgebra

    def broken(items):
        yield from items
        raise TypeError("raised inside the generator")

    two = _VECTORS["PolyField"][1](2)
    calls = [
        lambda: PolyField(broken(two)),
        lambda: ja.DiffVec(broken(_VECTORS["DiffVec"][1](2))),
        lambda: Frame(2, broken([PolyField(two)])),
        lambda: StratifiedAlgebra(broken((2, 1)), {(1, 2): {3: 1}}),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="raised inside the generator"):
            call()


def test_frame_reads_its_fields():
    f = PolyField.basis(2, 1)
    with pytest.raises(DomainError, match="frame field 1 is of type str, not PolyField"):
        Frame(2, ("x",))
    with pytest.raises(DomainError, match="frame field 2 is of type DiffVec, not PolyField"):
        Frame(2, (f, ja.DiffVec.zero(1, 2, 2)))
    with pytest.raises(DomainError, match="frame fields must be a sequence, got int"):
        Frame(2, 5)
    with pytest.raises(DomainError, match="frame dimension must be an int, got float"):
        Frame(2.0, (f,))
    fr = Frame(2, [f])
    assert fr.fields == (f,) and hash(fr) == hash(Frame(2, (f,)))


@pytest.mark.parametrize("entry", ["lie_flag", "adapted_frame", "slice_report"])
def test_an_empty_frame_is_refused_naming_the_frame(entry):
    # no field to give a rank, a value or a flag: the frame itself refuses,
    # before lie_flag reaches hall_basis, adapted_frame reads a direction or
    # slice_report asks for a maximal growth vector
    from liegrowth import ampleness, flags

    run = {
        "lie_flag": lambda fr: flags.lie_flag(fr, (1, 2, 3), 2),
        "adapted_frame": lambda fr: ampleness.adapted_frame(fr, (1, 2, 3), (1, 0, 0)),
        "slice_report": lambda fr: ampleness.slice_report(fr, (1, 2, 3), (1, 0, 0), 2),
    }[entry]
    for fields in ((), [], iter(())):
        with pytest.raises(DomainError, match="^a frame needs at least one field$"):
            run(Frame(3, fields))


def test_poly_malformed_keys_raise():
    for key in ((0, 0, 1), (-1, 0), (1,), (1.0, 0), "x1"):
        with pytest.raises(DomainError):
            Poly(2, {key: 1})
    assert Poly(2, {(0, 2): 1}).eval_at((1, 3)) == 9


def test_poly_power_domain():
    with pytest.raises(DomainError):
        Poly.variable(2, 1) ** -1
    with pytest.raises(DomainError):
        Poly.variable(2, 3)


def test_poly_power_squares_repeatedly():
    # a daemon thread, so that a power computed factor by factor fails the
    # test after 0.5 s instead of hanging it
    powered = []
    worker = threading.Thread(
        target=lambda: powered.append(Poly.variable(2, 1) ** 10**8), daemon=True
    )
    worker.start()
    worker.join(timeout=0.5)
    assert powered, "x1 ** 10**8 did not finish within 0.5 s"
    read = parse_frame("dim 2\nX1 = x1^100000000*d1\n").fields[0].comps[0]
    assert powered[0] == read and powered[0].terms == {(10**8, 0): 1}
    rng = random.Random(23)
    for _ in range(20):
        p = Poly(2, {
            (rng.randint(0, 2), rng.randint(0, 2)): rand_fraction(rng, 3, 2)
            for _ in range(rng.randint(0, 3))
        })
        product = Poly.const(2, 1)
        for e in range(7):
            got = p**e
            assert got == product and str(got) == str(product)
            assert [type(c) for c in got.terms.values()] == [type(product.terms[m]) for m in got.terms]
            product = product * p


def test_affine_map_inverse_round_trip():
    rng = random.Random(21)
    for _ in range(10):
        while True:
            lin = [[rand_fraction(rng, 3, 2) for _ in range(3)] for _ in range(3)]
            if linalg.det(lin) != 0:
                break
        amap = AffineMap.make(lin, [rand_fraction(rng, 3, 2) for _ in range(3)])
        inv = amap.inverse()
        p = rand_point(rng, 3)
        assert inv.apply(amap.apply(p)) == tuple(p)


def test_pushforward_bracket_naturality():
    # the classical bracket commutes with pushforward
    rng = random.Random(34)
    n = 3
    x1 = Poly.variable(n, 1)
    x2 = Poly.variable(n, 2)
    X = PolyField((Poly.const(n, 1), x1 * x2, x2))
    Y = PolyField((x2, Poly.const(n, 0), x1 * x1))
    fr = Frame(n, (X, Y))
    while True:
        lin = [[rand_fraction(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.det(lin) != 0:
            break
    amap = AffineMap.make(lin, [rand_fraction(rng, 2, 2) for _ in range(n)])
    moved = pushforward(fr, amap)
    lhs = poly_lie_bracket(moved.fields[0], moved.fields[1])
    rhs = pushforward(
        Frame(n, (poly_lie_bracket(X, Y),)), amap
    ).fields[0]
    assert lhs == rhs


def test_frame_change_requires_invertible():
    fr = Frame(2, (PolyField.basis(2, 1), PolyField.basis(2, 2)))
    with pytest.raises(DomainError):
        frame_change(fr, [[1, 2], [2, 4]])
    changed = frame_change(fr, [[0, 1], [1, 0]])
    assert changed.fields[0] == fr.fields[1]


def test_taylor_recentres_and_truncates():
    n = 2
    x1 = Poly.variable(n, 1)
    x2 = Poly.variable(n, 2)
    X = PolyField((x1 * x1 * x2, Poly.const(n, 5)))
    # x1^2 x2 about (1, 2): (x1 + 1)^2 (x2 + 2) through degree 1
    t = X.taylor((1, 2), 1)
    assert t.comps[0] == Poly.const(n, 2) + x1 * 4 + x2
    assert t.comps[1] == Poly.const(n, 5)
    assert X.taylor((0, 0), 3) == X
    assert X.taylor((1, 2), 0).comps[0] == Poly.const(n, 2)
    # the result is an ordinary field: it expands again like any other
    assert t.taylor((0, 0), 1) == t
    assert t.taylor((0, 0), 0) == X.taylor((1, 2), 0)
    with pytest.raises(DomainError):
        X.taylor((1, 2, 3), 1)
    with pytest.raises(OrderOverflow):
        X.taylor((1, 2), -1)


def test_ring_results_keep_an_integral_coefficient_as_an_int():
    # every ring result passes ``_like``, which keeps an integral Fraction
    # as an int, as the constructor does
    x = Poly(1, {(1,): F(1, 2)})
    u, w = ja.JetVar(1, 1, ()), ja.JetVar(1, 1, (1,))
    d = ja.DiffPoly(1, 1, 2, {(u,): F(1, 2)})
    results = {
        "Poly +": (x + x, (1,)),
        "Poly *": (x * 2, (1,)),
        "Poly compose": (x.compose([Poly(1, {(1,): 2})]), (1,)),
        "DiffPoly +": (d + d, (0,)),
        "DiffPoly *": (d * 2, (0,)),
        "substitute": (ja.substitute(ja.DiffPoly(1, 1, 2, {(u, w): F(1, 2)}), {w: 2}), (0,)),
    }
    for what, (p, mono) in results.items():
        assert p.terms == {mono: 1} and type(p.terms[mono]) is int, what
