import json
import threading
import time

import pytest

from liegrowth import catalog, flags, parsing
from liegrowth.cli import main
from liegrowth.errors import InvalidAlgebra, ParseError

from helpers import F


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


# --- CLI -------------------------------------------------------------------------


def test_cli_witt(capsys):
    assert main(["witt", "--generators", "3", "--length", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"


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
