import json
import random
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from liegrowth import catalog, flags, freelie, parsing
from liegrowth.cli import main
from liegrowth.errors import DomainError, InvalidAlgebra, ParseError

from helpers import F, bench_workloads, frame_to_text_reference


# --- frame parsing ------------------------------------------------------------


def test_parse_heisenberg():
    fr = parsing.parse_frame("dim 3\nX1 = d1\nX2 = d2 + x1*d3\n")
    assert fr.n == 3 and fr.k == 2
    assert flags.lie_flag(fr, (0, 0, 0), 2).dims == (2, 3)


def test_parse_single_field():
    fr = parsing.parse_frame("dim 2\nX1 = d1\n")
    assert fr.k == 1


def test_parse_comments_and_whitespace():
    text = "# header comment\n dim   3\nX1 = d1   # trailing\n\nX2 = d2 + x1 * d3\n"
    fr = parsing.parse_frame(text)
    assert fr.k == 2


def test_parse_rationals_powers_parens():
    fr = parsing.parse_frame("dim 2\nX1 = (1/2*x1^3 + 2)*d2 - x2*d1\n")
    comp = fr.fields[0].comps[1]
    assert comp.eval_at((2, 0)) == F(1, 2) * 8 + 2


def test_parse_index_out_of_range_position():
    with pytest.raises(ParseError) as err:
        parsing.parse_frame("dim 3\nX1 = d4\n")
    assert err.value.line == 2 and err.value.col == 6


ADVERSARIAL = [
    "",  # empty
    "dim\nX1 = d1\n",  # missing dimension
    "dim 0\nX1 = d1\n",  # nonpositive dimension
    "dims 3\nX1 = d1\n",  # bad keyword
    "dim 3\n",  # no fields
    "dim 3\nX1 = \n",  # empty expression
    "dim 3\nX2 = d1\n",  # wrong field numbering
    "dim 3\nX1 = d1\nX1 = d2\n",  # repeated name
    "dim 3\nY1 = d1\n",  # bad name
    "dim 3\nX1 d1\n",  # missing equals
    "dim 3\nX1 = d1 +\n",  # dangling operator
    "dim 3\nX1 = + d1\n",  # leading operator (no unary plus)
    "dim 3\nX1 = - d1\n",  # leading operator (no unary minus)
    "dim 3\nX1 = (d1\n",  # unbalanced open paren
    "dim 3\nX1 = d1)\n",  # unbalanced close paren
    "dim 3\nX1 = ()*d1\n",  # empty parens
    "dim 3\nX1 = 1/0*d1\n",  # zero denominator
    "dim 3\nX1 = 1//2*d1\n",  # double slash
    "dim 3\nX1 = d4\n",  # direction out of range
    "dim 3\nX1 = x4*d1\n",  # variable out of range
    "dim 3\nX1 = d1*d2\n",  # vector times vector
    "dim 3\nX1 = d1^2\n",  # vector power
    "dim 3\nX1 = x1^x2*d1\n",  # non-integer exponent
    "dim 3\nX1 = x1^(2)*d1\n",  # parenthesized exponent not in grammar
    "dim 3\nX1 = 5\n",  # scalar-only field
    "dim 3\nX1 = x1 + d1\n",  # scalar plus vector
    "dim 3\nX1 = d1 @ d2\n",  # stray symbol
    "dim 3\nX1 = d1 d2\n",  # missing operator
    "dim 3\nX1 = dx*d1\n",  # malformed direction token
    "dim 3.5\nX1 = d1\n",  # non-integer dimension
]


def test_adversarial_fixtures_fail_with_positions():
    assert len(ADVERSARIAL) == 30
    for text in ADVERSARIAL:
        with pytest.raises(ParseError) as err:
            parsing.parse_frame(text)
        assert err.value.line >= 1 and err.value.col >= 1, repr(text)


# The message, line and column of each ADVERSARIAL fixture, in its order.
ADVERSARIAL_ERRORS = [
    ("empty input", 1, 1),
    ("unexpected end of line", 1, 4),
    ("dimension must be positive", 1, 5),
    ("expected 'dim', found 'dims'", 1, 1),
    ("frame needs at least one field line", 1, 1),
    ("unexpected end of line", 2, 5),
    ("expected field name 'X1', found 'X2'", 2, 1),
    ("expected field name 'X2', found 'X1'", 3, 1),
    ("expected field name 'X1', found 'Y1'", 2, 1),
    ("expected '=', found 'd1'", 2, 4),
    ("unexpected end of line", 2, 10),
    ("unexpected token '+'", 2, 6),
    ("unexpected token '-'", 2, 6),
    ("unexpected end of line", 2, 9),
    ("unexpected trailing token ')'", 2, 8),
    ("unexpected token ')'", 2, 7),
    ("zero denominator", 2, 8),
    ("expected 'INT', found '/'", 2, 8),
    ("index out of range at token 'd4' (limit 3)", 2, 6),
    ("index out of range at token 'x4' (limit 3)", 2, 6),
    ("cannot multiply two vector expressions", 2, 8),
    ("cannot exponentiate a vector", 2, 8),
    ("expected 'INT', found 'x2'", 2, 9),
    ("expected 'INT', found '('", 2, 9),
    ("field expression must involve a direction dj", 2, 1),
    ("cannot add a scalar and a vector term", 2, 9),
    ("unexpected character '@'", 2, 9),
    ("unexpected trailing token 'd2'", 2, 9),
    ("malformed direction 'dx'", 2, 6),
    ("unexpected character '.'", 1, 6),
]

ALGEBRA_ERRORS = [
    ("layers 2 \u00b9\n", "unexpected character '\u00b9'", 1, 10),
    ("layers 2 1\nbracket e1 e2 = 1/0*e3\n", "zero denominator", 2, 19),
    ("layers 2 1\nbracket e1 e2 = - - e3\n", "expected basis label, found '-'", 2, 19),
    ("layers 2 1\nbracket e2 e1 = e3\n", "bracket pair needs i < j, got e2 e1", 2, 9),
    ("layers 2 1\nbracket e1 e2 = e3\nbracket e1 e2 = e3\n",
     "duplicate bracket line for e1 e2", 3, 9),
    ("layers 2 1\nbracket e1 e5 = e3\n", "index out of range at token 'e5' (limit 3)", 2, 12),
]


@pytest.mark.parametrize(
    "parse, text, message, line, col",
    [(parsing.parse_frame, text, *want) for text, want in zip(ADVERSARIAL, ADVERSARIAL_ERRORS)]
    + [(parsing.parse_algebra, *case) for case in ALGEBRA_ERRORS],
)
def test_parse_errors_keep_their_message_and_position(parse, text, message, line, col):
    assert len(ADVERSARIAL_ERRORS) == len(ADVERSARIAL)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line {line}, column {col})", line, col
    )


@pytest.mark.parametrize(
    "parse, text, line, col",
    [
        (parsing.parse_frame, "dim \u00b2\n", 1, 5),
        (parsing.parse_frame, "dim \u0663\nX1 = d1\n", 1, 5),
        (parsing.parse_frame, "dim 3\nX1 = x\u00b2*d1\n", 2, 7),
        (parsing.parse_frame, "dim 3\nX1 = 1/\u00b2*d1\n", 2, 8),
        (parsing.parse_algebra, "layers 2 \u00b9\n", 1, 10),
    ],
)
def test_non_ascii_digits_are_unexpected_characters(parse, text, line, col):
    # int() accepts some non-ASCII digits and rejects others; the grammar's
    # INT is ASCII only, so every one is a ParseError at its own column
    ch = text.splitlines()[line - 1][col - 1]
    assert not ch.isascii()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"unexpected character {ch!r} (line {line}, column {col})"


def _terms(frame):
    """Every field's components as (monomial, coefficient, type) lists, in
    dict order."""
    return [
        [[(m, c, type(c)) for m, c in comp.terms.items()] for comp in fld.comps]
        for fld in frame.fields
    ]


def test_frames_without_parentheses_form_no_term_product(monkeypatch):
    # a term's numbers, variables, direction and powers fold into one
    # monomial; only a parenthesized factor goes through _product
    workloads = bench_workloads()
    texts = [(Path(__file__).parent / "data" / "dense_rank2_r10.frame").read_text()]
    for seed in (1, 2, 3):
        for wl in (workloads.FlagsDense, workloads.Cli):
            files = wl.files(wl.generate(seed))
            texts += [text for name, text in sorted(files.items()) if name.endswith(".frame")]
    assert len(texts) == 1 + 3 * (16 + 15)
    want = [_terms(parsing.parse_frame(text)) for text in texts]

    def refuse(a, b):
        raise AssertionError("_product called")

    monkeypatch.setattr(parsing, "_product", refuse)
    assert [_terms(parsing.parse_frame(text)) for text in texts] == want


@pytest.mark.parametrize(
    "expr, comps",
    [
        ("x1^2^3*d1", [[((6, 0), 1, int)], []]),
        ("(x1 + 1)^0*d2", [[], [((0, 0), 1, int)]]),
        ("0^0*d1", [[((0, 0), 1, int)], []]),
        ("2*(x1*d1)*x2^2", [[((1, 2), 2, int)], []]),
        (
            "(d1 + x1*d2)*(1/2 + x2)",
            [[((0, 0), F(1, 2), Fraction), ((0, 1), 1, int)], [((1, 0), F(1, 2), Fraction), ((1, 1), 1, int)]],
        ),
        ("0*(x1 + x2)*d1", [[], []]),
        (
            # parenthesized factors multiply left to right, and the x1
            # terms of the first product cancel
            "(x1 - 1/2)*(x1 + 1/2)*(x1 + 1)*d1",
            [[((3, 0), 1, int), ((2, 0), 1, int), ((1, 0), F(-1, 4), Fraction), ((0, 0), F(-1, 4), Fraction)], []],
        ),
        ("1/2^0*d1 + 2^3*x2*d2 - 4/2*x1^0*d2", [[((0, 0), 1, int)], [((0, 1), 8, int), ((0, 0), -2, int)]]),
    ],
)
def test_term_corner_cases(expr, comps):
    assert _terms(parsing.parse_frame(f"dim 2\nX1 = {expr}\n")) == [comps]


@pytest.mark.parametrize(
    "expr, message, col",
    [
        ("d1 + (x1 + x3)*d2", "index out of range at token 'x3' (limit 2)", 17),
        ("(x1 + 1/0)*d1", "zero denominator", 14),
        ("(1 + (x1 + d2))*d1", "cannot add a scalar and a vector term", 15),
        ("(x1 + 1)^2^x1*d1", "expected 'INT', found 'x1'", 17),
        # a factor's powers are read before it is multiplied into its term
        ("d1*d2^2", "cannot exponentiate a vector", 11),
        ("d1*(x1*d2)^x1", "expected 'INT', found 'x1'", 17),
        ("x1*d1*d2^0", "cannot exponentiate a vector", 14),
    ],
)
def test_errors_inside_a_term_keep_their_position(expr, message, col):
    with pytest.raises(ParseError) as err:
        parsing.parse_frame(f"dim 2\nX1 = {expr}\n")
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line 2, column {col})", 2, col
    )


def test_huge_exponent_parses_by_repeated_squaring():
    # a daemon thread, so that a power computed factor by factor fails the
    # test after 1 s instead of hanging it
    parsed = []
    text = "dim 3\nX1 = x1^100000000*d1\n"
    worker = threading.Thread(target=lambda: parsed.append(parsing.parse_frame(text)), daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert parsed, "x1^100000000 did not parse within 1 s"
    assert parsed[0].fields[0].comps[0].terms == {(100000000, 0, 0): 1}


def test_huge_power_of_a_parenthesized_factor_squares_repeatedly():
    # a parenthesized factor stays a term dict, and ^ on it squares
    parsed = []
    text = "dim 3\nX1 = (x1*x2^2)^100000000*d1\n"
    worker = threading.Thread(target=lambda: parsed.append(parsing.parse_frame(text)), daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert parsed, "(x1*x2^2)^100000000 did not parse within 1 s"
    assert parsed[0].fields[0].comps[0].terms == {(100000000, 200000000, 0): 1}


@pytest.mark.parametrize("dim", ["1000000000", "100001", "0" * 7 + "100001", "9" * 5000])
def test_huge_dim_is_refused_at_its_token(dim):
    # no field line for the largest values: a parser that let them through
    # would allocate dim-long exponent tuples for the first field
    body = "X1 = d1 + x1*d2\n" if len(dim.lstrip("0")) <= 6 else ""
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parsing.parse_frame(f"dim {dim}\n{body}")
    assert time.perf_counter() - t0 < 0.05
    assert (err.value.line, err.value.col) == (1, 5)
    assert f"limit of {parsing.MAX_DIM}" in str(err.value)


def test_dim_at_the_limit_parses():
    fr = parsing.parse_frame(f"dim {parsing.MAX_DIM}\nX1 = d1\n")
    assert parsing.MAX_DIM == 100_000 and fr.n == parsing.MAX_DIM


_LONG = "1" * 5000  # past Python's 4300-digit limit for reading an int


@pytest.mark.parametrize(
    "parse, text, line, col",
    [
        (parsing.parse_frame, f"dim 3\nX1 = {_LONG}*d1\n", 2, 6),
        (parsing.parse_frame, f"dim 3\nX1 = 1/{_LONG}*d1\n", 2, 8),
        (parsing.parse_frame, f"dim 3\nX1 = x{_LONG}*d1\n", 2, 6),
        (parsing.parse_frame, f"dim 3\nX1 = d{_LONG}\n", 2, 6),
        (parsing.parse_frame, f"dim 3\nX1 = x1^{_LONG}*d1\n", 2, 9),
        (parsing.parse_frame, f"dim {'0' * 4999}3\nX1 = d1\n", 1, 5),
        (parsing.parse_algebra, f"layers {_LONG}\n", 1, 8),
        (parsing.parse_algebra, f"layers 2 1\nbracket e1 e2 = {_LONG}/7*e3\n", 2, 17),
        (parsing.parse_algebra, f"layers 2 1\nbracket e1 e2 = 1/{_LONG}*e3\n", 2, 19),
        (parsing.parse_algebra, f"layers 2 1\nbracket e1 e{_LONG} = e3\n", 2, 12),
    ],
    ids=["coefficient", "denominator", "variable", "direction", "exponent", "padded-dim",
         "layer", "rhs-numerator", "rhs-denominator", "basis-label"],
)
def test_long_integer_token_is_refused_at_its_token(parse, text, line, col):
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.perf_counter() - t0 < 0.05
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"integer of more than {parsing.MAX_DIGITS} digits")


def test_integer_token_at_the_digit_limit_parses():
    fr = parsing.parse_frame(f"dim 1\nX1 = {'1' * parsing.MAX_DIGITS}*d1\n")
    assert fr.fields[0].comps[0].terms == {(0,): int("1" * parsing.MAX_DIGITS)}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["growth", "--frame", "{f}", "--point", "0,0"], f"dim 2\nX1 = x1^{_LONG}*d1\n"),
        (["nilpotentize", "--algebra", "{f}"], f"layers {_LONG}\n"),
    ],
    ids=["growth-exponent", "nilpotentize-layer"],
)
def test_cli_long_integer_token_is_a_one_line_error(tmp_path, capsys, argv, text):
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert main([a.format(f=path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ParseError: integer of more than 4300 digits")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, entry, problem",
    [
        ("--point", "1e10000000", "has an exponent above 4300"),
        ("--point", "-1E-0010000000", "has an exponent above 4300"),
        ("--point", "1e4301", "has an exponent above 4300"),
        ("--point", "7" * 4301, "has more than 4300 digits"),
        ("--point", "0." + "7" * 4300, "has more than 4300 digits"),
        ("--direction", "1/" + "7" * 4301, "has more than 4300 digits"),
        ("--direction", "1e100000000", "has an exponent above 4300"),
    ],
)
def test_cli_oversized_vector_entry_fails_fast(tmp_path, capsys, flag, entry, problem):
    # Fraction would expand 1e10000000 for seconds; the entry is refused
    # before it is read, naming the limit
    frame_file = tmp_path / "h.frame"
    frame_file.write_text(parsing.frame_to_text(catalog.heisenberg_frame()))
    vectors = {"--point": "0,0,0", "--direction": "1,0,0"}
    vectors[flag] = f"{entry},0,0"
    argv = ["slice", "--frame", str(frame_file), "--step", "2"]
    argv += [f"{name}={text}" for name, text in vectors.items()]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    what = flag.lstrip("-")
    assert err.startswith(f"DomainError: {what} entry ")
    assert f"{problem} (parsing.MAX_DIGITS)" in err


@pytest.mark.parametrize(
    "entry, problem",
    [("x" * 100000, "cannot parse point entry 'xxxxxxxxxxxxxxxxxxxx...' as a rational"),
     ("1/" + "0" * 1000, "point entry '1/000000000000000000...' has a zero denominator")],
)
def test_cli_malformed_vector_entry_is_named_briefly(entry, problem):
    from liegrowth.cli import _parse_vector

    with pytest.raises(DomainError) as err:
        _parse_vector(entry + ",0,0", 3, "point")
    assert str(err.value) == problem
    assert len(str(err.value)) < 200


def test_cli_vector_entry_at_the_limits_parses():
    from liegrowth.cli import _parse_vector

    big = "7" * 4300
    assert _parse_vector(f"1e4300,{big},1/{big}", 3, "point") == (
        F(10**4300), F(int(big)), F(1, int(big))
    )
    assert _parse_vector("-1E-4300,0.5,1_0", 3, "point") == (F(-1, 10**4300), F(1, 2), F(10))


# --- algebra parsing ------------------------------------------------------------


def test_parse_algebra_heisenberg():
    alg = parsing.parse_algebra("layers 2 1\nbracket e1 e2 = e3\n")
    assert alg.layer_dims == (2, 1)
    assert alg.table[(1, 2)] == {3: F(1)}


def test_parse_algebra_abelian():
    alg = parsing.parse_algebra("layers 2\n")
    assert alg.layer_dims == (2,) and alg.table == {}


def test_parse_algebra_rational_coefficients():
    alg = parsing.parse_algebra(
        "layers 2 1\nbracket e1 e2 = 1/2*e3\n"
    )
    assert alg.table[(1, 2)] == {3: F(1, 2)}


def test_parse_algebra_zero_denominator_position():
    with pytest.raises(ParseError) as err:
        parsing.parse_algebra("layers 2 1\nbracket e1 e2 = 1/0*e3\n")
    assert str(err.value).startswith("zero denominator")
    assert err.value.line == 2 and err.value.col == 19


def test_parse_algebra_signed_sums_and_zero():
    alg = parsing.parse_algebra(
        "layers 4 2\n"
        "bracket e1 e2 = e5 - e6\n"
        "bracket e3 e4 = 2*e6 + e5\n"
        "bracket e1 e3 = e6\n"
        "bracket e1 e4 = 0\n"
    )
    assert alg.table[(1, 2)] == {5: F(1), 6: F(-1)}
    assert alg.table[(3, 4)] == {5: F(1), 6: F(2)}
    assert (1, 4) not in alg.table


def test_parse_algebra_leading_sign():
    alg = parsing.parse_algebra("layers 2 1\nbracket e1 e2 = -e3\n")
    assert alg.table[(1, 2)] == {3: F(-1)}
    alg = parsing.parse_algebra(
        "layers 4 2\nbracket e1 e2 = -2*e5 + e6\nbracket e3 e4 = +e5\n"
    )
    assert alg.table[(1, 2)] == {5: F(-2), 6: F(1)}
    assert alg.table[(3, 4)] == {5: F(1)}
    with pytest.raises(ParseError) as err:
        parsing.parse_algebra("layers 2 1\nbracket e1 e2 = - - e3\n")
    assert err.value.line == 2 and err.value.col == 19


def test_parse_algebra_validation_failure():
    with pytest.raises(InvalidAlgebra) as err:
        parsing.parse_algebra("layers 2 1\nbracket e1 e2 = e1\n")
    assert err.value.report.kind == "grading"


def test_parse_algebra_rejects_bad_pairs():
    with pytest.raises(ParseError):
        parsing.parse_algebra("layers 2 1\nbracket e2 e1 = e3\n")
    with pytest.raises(ParseError):
        parsing.parse_algebra(
            "layers 2 1\nbracket e1 e2 = e3\nbracket e1 e2 = e3\n"
        )
    with pytest.raises(ParseError):
        parsing.parse_algebra("layers 2 1\nbracket e1 e5 = e3\n")


# --- serialization round trip ------------------------------------------------------


def test_nilpotentize_round_trip():
    for alg, dims in (
        (catalog.heisenberg_algebra(), (2, 3)),
        (catalog.engel_algebra(), (2, 3, 4)),
        (catalog.free_rank2_step3_algebra(), (2, 3, 5)),
    ):
        frame = flags.nilpotent_frame(alg)
        text = parsing.frame_to_text(frame)
        reparsed = parsing.parse_frame(text)
        assert reparsed == frame
        assert flags.lie_flag(reparsed, (0,) * frame.n, len(dims)).dims == dims


def test_serializer_handles_leading_negative():
    from liegrowth.polyfields import Frame, Poly, PolyField

    f = PolyField((Poly.const(2, -1), Poly.variable(2, 1) * -2))
    text = parsing.frame_to_text(Frame(2, (f,)))
    again = parsing.parse_frame(text)
    assert again.fields[0] == f


def _random_frame(rng):
    """A frame on R^1..R^4 of up to 3 fields: sparse components with int and
    Fraction coefficients of either sign, and some fields zero."""
    from liegrowth.polyfields import Frame, Poly, PolyField

    n = rng.randint(1, 4)
    fields = []
    for _ in range(rng.randint(1, 3)):
        comps = []
        for _ in range(n):
            terms = {}
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 4)):
                    exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                    terms[exps] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
            comps.append(Poly(n, terms))
        fields.append(PolyField(tuple(comps)))
    return Frame(n, tuple(fields))


def test_serializer_matches_the_reference_renderer():
    # the catalog and 1500 seeded random frames: the same text, which
    # re-parses to the frame
    rng = random.Random(25)
    frames = list(catalog.catalog_frames().values())
    frames += [_random_frame(rng) for _ in range(1500)]
    for frame in frames:
        text = parsing.frame_to_text(frame)
        assert text == frame_to_text_reference(frame)
        assert parsing.parse_frame(text) == frame
    assert any("= (0 - " in parsing.frame_to_text(f) for f in frames)
    assert any("= 0*d1" in parsing.frame_to_text(f) for f in frames)


def test_serializer_refuses_a_coefficient_past_the_digit_limit():
    # the first such coefficient in field, direction and term order is named
    from liegrowth.polyfields import Frame, Poly, PolyField

    huge, x1 = 10**parsing.MAX_DIGITS, Poly.variable(3, 1)
    small = PolyField((x1, Poly.zero(3), Poly.zero(3)))
    for big in (huge, F(1, huge), -huge):
        late = PolyField((x1, x1 * 2 + Poly.const(3, big), x1 * big))
        frame = Frame(3, (small, late))
        with pytest.raises(DomainError) as err:
            parsing.frame_to_text(frame)
        assert str(err.value) == (
            "X2 has a d2 coefficient of more than 4300 digits (parsing.MAX_DIGITS), "
            "which a frame file cannot hold"
        )
        with pytest.raises(DomainError) as ref:
            frame_to_text_reference(frame)
        assert str(ref.value) == str(err.value)
    assert parsing.frame_to_text(Frame(3, (PolyField((x1 * (huge - 1),) * 3),)))


# --- CLI -------------------------------------------------------------------------


def test_cli_witt(capsys):
    assert main(["witt", "--generators", "3", "--length", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k, length", [(10, 5000), (10, 4304), (1000000, 1000000)])
def test_cli_witt_refuses_an_answer_past_the_digit_limit(capsys, fmt, k, length):
    # W(10, 4304) has 4301 digits; W(10**6, 10**6) about 6 million, and is
    # refused before it is computed
    start = time.perf_counter()
    argv = ["witt", "--generators", str(k), "--length", str(length), "--format", fmt]
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("DomainError: witt dimension ")
    assert "has more than 4300 digits (parsing.MAX_DIGITS)" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_witt_answer_just_under_the_digit_limit_prints(capsys, fmt):
    assert main(["witt", "--generators", "10", "--length", "4303", "--format", fmt]) == 0
    out = capsys.readouterr().out
    value = json.loads(out)["value"] if fmt == "json" else int(out)
    assert len(str(value)) == 4300
    assert value == freelie.witt_dimension(10, 4303)


def test_cli_mgv_text(capsys):
    assert main(["mgv", "--rank", "3", "--dim", "14"]) == 0
    assert capsys.readouterr().out.strip() == "(3, 6, 14) step=3 free_type=true"


def test_cli_mgv_json_schema(capsys):
    assert main(["mgv", "--rank", "2", "--dim", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"entries": [2, 3, 5, 8], "step": 4, "free_type": True}


def test_cli_hall_json(capsys):
    assert main(["hall", "--generators", "2", "--max-length", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 2
    assert payload["layers"][2] == ["[X1, [X1, X2]]", "[X2, [X1, X2]]"]


def test_cli_growth_and_slice(tmp_path, capsys):
    frame_file = tmp_path / "heis.frame"
    frame_file.write_text("dim 3\nX1 = d1\nX2 = d2 + x1*d3\n")
    assert main(["growth", "--frame", str(frame_file), "--point", "0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "growth (2, 3)" in out and "maximal=true" in out

    assert (
        main(
            [
                "growth",
                "--frame",
                str(frame_file),
                "--point",
                "0,0,0",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"p", "dims", "step", "maximal", "free_type", "irregular"}
    assert payload["dims"] == [2, 3] and payload["p"] == ["0", "0", "0"]

    assert (
        main(
            [
                "slice",
                "--frame",
                str(frame_file),
                "--point",
                "0,0,0",
                "--direction",
                "1,0,0",
                "--step",
                "2",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert [set(row) for row in payload] == [
        {"i", "m_i", "n_i", "verdict", "normal"}
    ] * 2
    assert payload[1]["verdict"] == "NotAmpleHyperplane"


def test_cli_nilpotentize_round_trip(tmp_path, capsys):
    alg_file = tmp_path / "free23.alg"
    alg_file.write_text(
        "layers 2 1 2\nbracket e1 e2 = e3\nbracket e1 e3 = e4\nbracket e2 e3 = e5\n"
    )
    out_file = tmp_path / "free23.frame"
    assert (
        main(["nilpotentize", "--algebra", str(alg_file), "--out", str(out_file)])
        == 0
    )
    capsys.readouterr()
    reparsed = parsing.parse_frame(out_file.read_text())
    assert flags.lie_flag(reparsed, (0,) * 5, 3).dims == (2, 3, 5)


def test_cli_nilpotentize_takes_a_step_seven_algebra(tmp_path, capsys):
    # step 7 needs the series coefficient of ad_x^6, generated like the rest
    alg_file = tmp_path / "filiform7.alg"
    lines = ["layers 2 1 1 1 1 1 1"] + [f"bracket e1 e{i} = e{i + 1}" for i in range(2, 8)]
    alg_file.write_text("\n".join(lines) + "\n")
    out_file = tmp_path / "filiform7.frame"
    argv = ["nilpotentize", "--algebra", str(alg_file), "--out", str(out_file)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["growth", "--frame", str(out_file), "--point", "0,0,0,0,0,0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == (
        "growth (2, 3, 4, 5, 6, 7, 8) step=7 maximal=false free_type=false"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_cli_nilpotentize_overlong_coefficient_is_a_one_line_error(
    tmp_path, capsys, fmt, to_file
):
    # X1's d4 coefficient is a multiple of big^2, about 6000 digits: a frame
    # file could not hold it, so nothing is written
    big = "7" * 3000
    alg_file = tmp_path / "big.alg"
    alg_file.write_text(f"layers 2 1 1\nbracket e1 e2 = {big}*e3\nbracket e1 e3 = {big}*e4\n")
    out_file = tmp_path / "big.frame"
    argv = ["nilpotentize", "--algebra", str(alg_file), "--format", fmt]
    if to_file:
        argv += ["--out", str(out_file)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("DomainError: ") and err.count("\n") == 1
    assert f"more than {parsing.MAX_DIGITS} digits (parsing.MAX_DIGITS)" in err
    assert not out_file.exists()


def test_cli_ampleness_engel(capsys):
    assert main(["ampleness", "--rank", "2", "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "NotAmpleHyperplane" in out


def test_cli_domain_error_exit_code(capsys):
    assert main(["mgv", "--rank", "5", "--dim", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("DomainError:")


def test_cli_parse_error_carries_name(tmp_path, capsys):
    frame_file = tmp_path / "bad.frame"
    frame_file.write_text("dim 3\nX1 = d9\n")
    assert main(["growth", "--frame", str(frame_file), "--point", "0,0,0"]) == 1
    assert capsys.readouterr().err.startswith("ParseError:")


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--frame", "{f}", "--point", "0,0,0"],
        ["slice", "--frame", "{f}", "--point", "0,0,0", "--direction", "1,0,0", "--step", "2"],
        ["nilpotentize", "--algebra", "{f}"],
    ],
)
def test_cli_non_utf8_file_is_a_one_line_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfed\x00i\x00m\x00")
    assert main([a.format(f=bad) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ParseError: not UTF-8 text: invalid start byte (line 1, column 1)\n"


def test_cli_non_utf8_error_counts_lines_and_characters(tmp_path, capsys):
    bad = tmp_path / "bad.frame"
    bad.write_bytes("dim 3\r\nX1 = \u00e9 d1 ".encode() + b"\xff\n")
    assert main(["growth", "--frame", str(bad), "--point", "0,0,0"]) == 1
    assert capsys.readouterr().err.endswith("(line 2, column 11)\n")


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["witt", "--generators", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_cli_check_suite(capsys):
    assert main(["check", "--suite", "hall", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
