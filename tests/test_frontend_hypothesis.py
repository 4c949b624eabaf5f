"""Hypothesis properties of the file front end.

* Grammar oracle: random expression trees over rationals, ``x_i``, ``d_j``,
  ``+``, ``-``, ``*``, ``^`` (exponents up to 3) and parentheses, with
  n <= 4, are rendered to text with the fewest parentheses the grammar
  needs; each parses to the field that ``Poly``/``PolyField`` arithmetic
  builds from the same tree.
* Round trips: ``parse_frame(frame_to_text(f)) == f`` on random exact frames
  (zero fields and negative leading coefficients included), and
  ``parse_algebra`` of a written-out catalog algebra rescaled along the
  diagonal, e_i -> s_i e_i, which maps c^m_ij to c^m_ij s_i s_j / s_m and
  keeps the grading and the Jacobi identity (negative scales give rows that
  start with a minus sign).
* Fuzz: random insertions, deletions and replacements, ASCII and not, in
  valid frame and algebra files make the parsers raise only
  ``LieGrowthError`` subclasses, and make ``cli.main`` return 0 or 1 with a
  one-line error, never a traceback.  Every integer in a fuzzed file is at
  most 6 and every exponent at most 4, so no example runs long.
* Byte fuzz: valid files with LF, CRLF and CR line endings mixed, and with
  invalid UTF-8, NUL bytes or non-ASCII letters inserted anywhere, read by
  ``cli._read`` and parsed, give the file's own result or a ``ParseError``.
"""

import contextlib
import io
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth import catalog, cli, parsing  # noqa: E402
from liegrowth.cli import main  # noqa: E402
from liegrowth.errors import LieGrowthError, ParseError  # noqa: E402
from liegrowth.flags import StratifiedAlgebra, validate_algebra  # noqa: E402
from liegrowth.polyfields import Frame, Poly, PolyField  # noqa: E402

# --- grammar oracle -------------------------------------------------------------

# A tree is ("rat", c), ("x", i), ("d", j), ("()", t), ("^", t, e) or
# (op, left, right) for op in "+-*".
_rats = st.fractions(min_value=0, max_value=4, max_denominator=3).map(lambda c: ("rat", c))


def _scalars(n: int, depth: int):
    leaf = st.one_of(_rats, st.integers(1, n).map(lambda i: ("x", i)))
    if depth == 0:
        return leaf
    sub = _scalars(n, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
        st.tuples(st.just("()"), sub),
    )


def _vectors(n: int, depth: int):
    leaf = st.integers(1, n).map(lambda j: ("d", j))
    if depth == 0:
        return leaf
    sub, scalar = _vectors(n, depth - 1), _scalars(n, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-"), sub, sub),
        st.tuples(st.just("*"), scalar, sub),
        st.tuples(st.just("*"), sub, scalar),
        st.tuples(st.just("()"), sub),
    )


_LEVEL = {"+": 1, "-": 1, "*": 2, "^": 3}  # atoms are level 4


def _render(tree) -> tuple[str, int]:
    """Text of a tree and its precedence level.  Parentheses go only where
    the grammar needs them: a right operand of "-" below level 2, an operand
    of "*" below 2, a base of "^" below 3 (so ``x1^2^3`` is (x1^2)^3)."""
    op = tree[0]
    if op == "rat":
        return str(tree[1]), 4
    if op in ("x", "d"):
        return f"{op}{tree[1]}", 4
    if op == "()":
        return f"({_render(tree[1])[0]})", 4

    def operand(sub, least):
        text, level = _render(sub)
        return text if level >= least else f"({text})"

    if op == "^":
        return f"{operand(tree[1], 3)}^{tree[2]}", 3
    least = {"+": (1, 1), "-": (1, 2), "*": (2, 2)}[op]
    left, right = operand(tree[1], least[0]), operand(tree[2], least[1])
    return (f"{left}*{right}" if op == "*" else f"{left} {op} {right}"), _LEVEL[op]


def _oracle(tree, n: int):
    """The Poly or PolyField of a tree, by the rings' own arithmetic."""
    op = tree[0]
    if op == "rat":
        return Poly.const(n, tree[1])
    if op == "x":
        return Poly.variable(n, tree[1])
    if op == "d":
        return PolyField.basis(n, tree[1])
    if op == "()":
        return _oracle(tree[1], n)
    if op == "^":
        return _oracle(tree[1], n) ** tree[2]
    a, b = _oracle(tree[1], n), _oracle(tree[2], n)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if isinstance(a, PolyField):
        return a.scale(b)
    return b.scale(a) if isinstance(b, PolyField) else a * b


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _vectors(n, 3))))
def test_expression_parses_to_its_oracle_field(case):
    n, tree = case
    text = f"dim {n}\nX1 = {_render(tree)[0]}\n"
    assert parsing.parse_frame(text).fields[0] == _oracle(tree, n), text


# --- round trips ----------------------------------------------------------------

# p/q with |p| <= 4 and q <= 3, so every integer of a frame's text is small
_coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


def _fields(n: int):
    comp = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), _coeffs, max_size=3
    ).map(lambda terms: Poly(n, terms))
    field = st.tuples(*[comp] * n).map(PolyField)
    return st.one_of(st.just(PolyField.zero(n)), field)


_frames = st.integers(1, 4).flatmap(
    lambda n: st.lists(_fields(n), min_size=1, max_size=3).map(
        lambda fields: Frame(n, tuple(fields))
    )
)


@settings(max_examples=150, deadline=None)
@given(_frames)
def test_frame_text_round_trip(frame):
    assert parsing.parse_frame(parsing.frame_to_text(frame)) == frame


CATALOG_ALGEBRAS = (
    catalog.heisenberg_algebra(),
    catalog.engel_algebra(),
    catalog.free_rank2_step3_algebra(),
    catalog.free_rank3_step2_algebra(),
    catalog.rank4_step2_algebra(),
)


def _rescaled(alg: StratifiedAlgebra, scale) -> StratifiedAlgebra:
    table = {
        (i, j): {m: c * scale[i - 1] * scale[j - 1] / scale[m - 1] for m, c in row.items()}
        for (i, j), row in alg.table.items()
    }
    return StratifiedAlgebra(alg.layer_dims, table)


def _algebras(scales):
    return st.sampled_from(CATALOG_ALGEBRAS).flatmap(
        lambda alg: st.lists(scales, min_size=alg.dim, max_size=alg.dim).map(
            lambda s: _rescaled(alg, s)
        )
    )


def _algebra_text(alg: StratifiedAlgebra) -> str:
    """Algebra file of ``alg``; a negative first coefficient is written with
    a leading minus."""
    lines = ["layers " + " ".join(map(str, alg.layer_dims))]
    for (i, j), row in sorted(alg.table.items()):
        rhs = ""
        for m, c in sorted(row.items()):
            if rhs:
                rhs += " + " if c > 0 else " - "
            elif c < 0:
                rhs = "-"
            rhs += f"{abs(c)}*e{m}"
        lines.append(f"bracket e{i} e{j} = {rhs or '0'}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_algebras(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)))
def test_algebra_text_round_trip(alg):
    assert validate_algebra(alg).valid
    assert parsing.parse_algebra(_algebra_text(alg)) == alg


# --- fuzz -----------------------------------------------------------------------

_ASCII = "=+-*^/()#_ \t\nxdeXE0123456789"
_NON_ASCII = [
    "\u00e9",  # a letter that int() and the grammar reject
    "\u00b2",  # superscript two, a digit that int() rejects
    "\u0663",  # Arabic-Indic three, a digit that int() accepts
    "\u00a0",  # no-break space, whitespace
    "\u2028",  # line separator, a line break for str.splitlines
    "\x00",
    "\ufeff",
]
# half of the edits write a non-ASCII character
_chars = st.sampled_from(_ASCII) | st.sampled_from(_NON_ASCII)
_edits = st.lists(
    st.tuples(st.sampled_from("idr"), st.integers(0, 10**4), _chars), min_size=1, max_size=3
)


def _mutate(text: str, edits) -> str:
    """Apply (insert | delete | replace, position, character) edits."""
    for op, pos, ch in edits:
        pos %= len(text) + 1
        if op == "i":
            text = text[:pos] + ch + text[pos:]
        else:
            text = text[:pos] + (ch if op == "r" else "") + text[pos + 1 :]
    return text


def _small(text: str) -> bool:
    """Every integer is at most 6 and every exponent at most 4."""
    return all(int(t) <= 6 for t in re.findall("[0-9]+", text)) and all(
        int(t) <= 4 for t in re.findall(r"\^\s*([0-9]+)", text)
    )


# the base files: frames with exponents up to 3, algebras scaled by +-1 or +-2
_frame_files = _frames.map(lambda f: ("frame", parsing.frame_to_text(f)))
_algebra_files = _algebras(st.sampled_from([1, -1, 2, -2]).map(Fraction)).map(
    lambda alg: ("algebra", _algebra_text(alg))
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_frame_files, _algebra_files), _edits)
def test_fuzzed_files_raise_only_library_errors(base, edits):
    kind, text = base
    assert _small(text)
    text = _mutate(text, edits)
    assume(_small(text))
    parse = parsing.parse_frame if kind == "frame" else parsing.parse_algebra
    try:
        parsed, error = parse(text), None
    except LieGrowthError as exc:
        parsed, error = None, exc

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.txt"
        path.write_text(text, encoding="utf-8")
        if kind == "frame":
            n = parsed.n if parsed else 1
            argv = ["growth", "--frame", str(path), "--point", ",".join(["0"] * n)]
        else:
            argv = ["nilpotentize", "--algebra", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1), (text, rc)
    if error is not None:
        assert rc == 1
        assert err.getvalue() == f"{type(error).__name__}: {error}\n"
    elif rc == 1:
        assert err.getvalue().count("\n") == 1, err.getvalue()


_INSERTS = [
    b"\xff",  # never valid in UTF-8
    b"\x80",  # a stray continuation byte
    b"\xe2\x82",  # a truncated three-byte sequence
    b"\xed\xa0\x80",  # an encoded surrogate
    b"\x00",
    "\u00e9".encode(),  # valid UTF-8, not in the grammar
]


@st.composite
def _byte_files(draw):
    """(kind, text, bytes): a valid file, and its bytes with each line ending
    drawn from LF, CRLF and CR and up to three byte strings inserted."""
    kind, text = draw(st.one_of(_frame_files, _algebra_files))
    lines = text.splitlines()
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(lines), max_size=len(lines)))
    data = b"".join(line.encode() + end for line, end in zip(lines, ends))
    inserts = st.tuples(st.integers(0, 10**4), st.sampled_from(_INSERTS))
    for pos, chunk in draw(st.lists(inserts, max_size=3)):
        pos %= len(data) + 1
        data = data[:pos] + chunk + data[pos:]
    return kind, text, data


@settings(max_examples=200, deadline=None)
@given(_byte_files())
def test_read_bytes_parse_to_the_file_or_raise_parse_error(case):
    kind, text, data = case
    parse = parsing.parse_frame if kind == "frame" else parsing.parse_algebra
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bytes.txt"
        path.write_bytes(data)
        try:
            parsed = parse(cli._read(str(path)))
        except ParseError:
            return
    assert parsed == parse(text)
