"""Frame and algebra file parsers, plus the frame serializer.

Frame files::

    dim 3            # ambient dimension
    X1 = d1
    X2 = d2 + x1*d3

Grammar (ASCII tokens; whitespace insignificant, ``#`` comments to end of
line)::

    file     := "dim" INT NEWLINE line+
    line     := WORD "=" expr
    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := RATIONAL | VAR | DVAR | factor "^" INT | "(" expr ")"
    VAR      := "x" INT      DVAR := "d" INT      RATIONAL := INT ("/" INT)?
    INT      := [0-9]+       WORD := [A-Za-z][A-Za-z0-9_]*

The symbols are ``= + - * ^ / ( )``.  Any other character that is not
whitespace, a non-ASCII digit or letter included, raises
``ParseError("unexpected character ...")`` at its own column.  Field names
must be X1..Xk in order, and ``dim`` is at most ``MAX_DIM`` (100000): a
larger one is refused at its token, before any field line is read.  Every
integer token, indices and layer dimensions included, has at most
``MAX_DIGITS`` (4300) digits, Python's default limit for reading one.  Every
parse failure carries the 1-based line and column of the offending token.

An expression evaluates to a scalar/vector flag and one term dict that maps
(direction, exponent tuple) to a nonzero coefficient, with direction 0 for
scalar terms.  ``+`` and ``-`` accumulate into that dict in place; ``*``
multiplies two dicts, at most one of which has directions; ``^`` squares
repeatedly, so ``x1^100000000`` takes 38 products, not 10^8.  ``parse_frame`` builds
each component's ``Poly`` once, when its field line is read.

Algebra files::

    layers 2 1
    bracket e1 e2 = e3

Right-hand sides are signed sums of optional rational multiples of basis
labels (or the literal 0); the first term may carry a sign too, so
``bracket e1 e2 = -e3`` is [e1, e2] = -e3.  Pairs need i < j and may not
repeat.  The parsed table is validated before being returned.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from operator import add

from .errors import InvalidAlgebra, ParseError
from .flags import StratifiedAlgebra, validate_algebra
from .polyfields import Frame, Poly, PolyField

__all__ = ["frame_to_text", "parse_algebra", "parse_frame"]

# The largest ``dim`` a frame file may declare, the cap ``hall_basis`` puts on
# its element count: every field holds ``dim`` components and every monomial
# ``dim`` exponents, so a larger header is refused before anything is built.
MAX_DIM = 100_000

# Python's default limit on the digits of an integer read from a string: a
# longer integer token is refused at its token, whatever it stands for.
MAX_DIGITS = 4300

_Token = namedtuple("_Token", "kind text line col")

# One match per token; a symbol is its own kind.  Whitespace matches no
# alternative and is skipped, and BAD is any other single character.
_TOKEN = re.compile(
    r"(?P<INT>[0-9]+)|(?P<WORD>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[=+\-*^/()])|(?P<BAD>\S)"
)


def _tokenize(text: str) -> list[list[_Token]]:
    """Token rows, one per logical line; comments and blank lines dropped."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = []
        for m in _TOKEN.finditer(raw.split("#", 1)[0]):
            kind, word, col = m.lastgroup, m.group(), m.start() + 1
            if kind == "BAD":
                raise ParseError(f"unexpected character {word!r}", lineno, col)
            toks.append(_Token(word if kind == "SYM" else kind, word, lineno, col))
        if toks:
            rows.append(toks)
    return rows


def _int(tok: _Token, digits: str | None = None) -> int:
    """The integer spelled by ``digits``, by default the whole token."""
    digits = tok.text if digits is None else digits
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"integer of more than {MAX_DIGITS} digits", tok.line, tok.col)
    return int(digits)


class _LineParser:
    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("unexpected end of line", self.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing token {tok.text!r}", tok.line, tok.col)

    def _rational(self, int_tok: _Token) -> int | Fraction:
        """INT ["/" INT] starting at the already consumed ``int_tok``."""
        num = _int(int_tok)
        tok = self.peek()
        if tok is not None and tok.kind == "/":
            self.next()
            den_tok = self.expect("INT")
            den = _int(den_tok)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(num, den)
        return num


def _word_index(tok: _Token, prefix: str, n: int, what: str) -> int:
    body = tok.text[len(prefix):]
    if not body.isdigit():
        raise ParseError(f"malformed {what} {tok.text!r}", tok.line, tok.col)
    idx = _int(tok, body)
    if not 1 <= idx <= n:
        raise ParseError(
            f"index out of range at token {tok.text!r} (limit {n})", tok.line, tok.col
        )
    return idx


def _product(a: dict, b: dict) -> dict:
    """Term dict of the product of two term dicts, at most one of which has
    directions, so the directions of a key add up to the one present."""
    out: dict = {}
    for (da, ea), ca in a.items():
        for (db, eb), cb in b.items():
            key = (da + db, tuple(map(add, ea, eb)))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


class _ExprParser(_LineParser):
    """Evaluates an expression to ``(vector, terms)``: the term dict of the
    module docstring and whether it has directions."""

    def __init__(self, tokens, line, n):
        super().__init__(tokens, line)
        self.n = n
        self.zeros = (0,) * n

    def parse_expr(self) -> tuple[bool, dict]:
        vector, terms = self.parse_term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.next()
            rhs_vector, rhs = self.parse_term()
            if vector != rhs_vector:
                raise ParseError(
                    "cannot add a scalar and a vector term", tok.line, tok.col
                )
            sign = 1 if tok.kind == "+" else -1
            for key, c in rhs.items():
                c = terms.get(key, 0) + sign * c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return vector, terms

    def parse_term(self) -> tuple[bool, dict]:
        vector, terms = self.parse_factor()
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.next()
            rhs_vector, rhs = self.parse_factor()
            if vector and rhs_vector:
                raise ParseError("cannot multiply two vector expressions", tok.line, tok.col)
            vector, terms = vector or rhs_vector, _product(terms, rhs)
        return vector, terms

    def parse_factor(self) -> tuple[bool, dict]:
        tok = self.next()
        zeros = self.zeros
        if tok.kind == "INT":
            c = self._rational(tok)
            vector, terms = False, {(0, zeros): c} if c else {}
        elif tok.kind == "WORD" and tok.text.startswith("x"):
            i = _word_index(tok, "x", self.n, "variable")
            vector, terms = False, {(0, zeros[: i - 1] + (1,) + zeros[i:]): 1}
        elif tok.kind == "WORD" and tok.text.startswith("d"):
            vector, terms = True, {(_word_index(tok, "d", self.n, "direction"), zeros): 1}
        elif tok.kind == "(":
            vector, terms = self.parse_expr()
            closing = self.next()
            if closing.kind != ")":
                raise ParseError(
                    f"expected ')', found {closing.text!r}", closing.line, closing.col
                )
        else:
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        while (caret := self.peek()) is not None and caret.kind == "^":
            self.next()
            e = _int(self.expect("INT"))
            if vector:
                raise ParseError("cannot exponentiate a vector", caret.line, caret.col)
            power = {(0, zeros): 1}
            while e:  # repeated squaring, one bit of e per pass
                if e & 1:
                    power = _product(power, terms)
                e >>= 1
                if e:
                    terms = _product(terms, terms)
            terms = power
        return vector, terms


def parse_frame(text: str) -> Frame:
    """Parse a frame file into a Frame of polynomial fields."""
    rows = _tokenize(text)
    if not rows:
        raise ParseError("empty input", 1, 1)
    header = _LineParser(rows[0], rows[0][0].line)
    word = header.expect("WORD")
    if word.text != "dim":
        raise ParseError(f"expected 'dim', found {word.text!r}", word.line, word.col)
    dim_tok = header.expect("INT")
    digits = dim_tok.text.lstrip("0")
    if len(digits) > len(str(MAX_DIM)) or int(digits or 0) > MAX_DIM:
        raise ParseError(
            f"dimension above the limit of {MAX_DIM}", dim_tok.line, dim_tok.col
        )
    n = _int(dim_tok)
    if n < 1:
        raise ParseError("dimension must be positive", dim_tok.line, dim_tok.col)
    header.done()
    fields = []
    for row in rows[1:]:
        parser = _ExprParser(row, row[0].line, n)
        name = parser.expect("WORD")
        expected = f"X{len(fields) + 1}"
        if name.text != expected:
            raise ParseError(
                f"expected field name {expected!r}, found {name.text!r}",
                name.line,
                name.col,
            )
        parser.expect("=")
        vector, terms = parser.parse_expr()
        parser.done()
        if not vector:
            raise ParseError(
                "field expression must involve a direction dj", name.line, name.col
            )
        comps: list[dict] = [{} for _ in range(n)]
        for (j, exps), c in terms.items():
            comps[j - 1][exps] = c
        fields.append(PolyField(tuple(Poly(n, comp) for comp in comps)))
    if not fields:
        raise ParseError("frame needs at least one field line", rows[0][0].line, 1)
    return Frame(n, tuple(fields))


def parse_algebra(text: str) -> StratifiedAlgebra:
    """Parse an algebra file; validation failures raise InvalidAlgebra."""
    rows = _tokenize(text)
    if not rows:
        raise ParseError("empty input", 1, 1)
    header = _LineParser(rows[0], rows[0][0].line)
    word = header.expect("WORD")
    if word.text != "layers":
        raise ParseError(f"expected 'layers', found {word.text!r}", word.line, word.col)
    dims = []
    while header.peek() is not None:
        tok = header.expect("INT")
        d = _int(tok)
        if d < 1:
            raise ParseError("layer dimensions must be positive", tok.line, tok.col)
        dims.append(d)
    if not dims:
        tok = rows[0][-1]
        raise ParseError("expected at least one layer dimension", tok.line, tok.col + len(tok.text))
    total = sum(dims)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for row in rows[1:]:
        parser = _LineParser(row, row[0].line)
        word = parser.expect("WORD")
        if word.text != "bracket":
            raise ParseError(
                f"expected 'bracket', found {word.text!r}", word.line, word.col
            )
        ei = parser.expect("WORD")
        i = _e_index(ei, total)
        ej = parser.expect("WORD")
        j = _e_index(ej, total)
        if not i < j:
            raise ParseError(
                f"bracket pair needs i < j, got e{i} e{j}", ei.line, ei.col
            )
        if (i, j) in table:
            raise ParseError(f"duplicate bracket line for e{i} e{j}", ei.line, ei.col)
        parser.expect("=")
        table[(i, j)] = _parse_rhs(parser, total)
        parser.done()
    alg = StratifiedAlgebra(tuple(dims), table)
    report = validate_algebra(alg)
    if not report.valid:
        raise InvalidAlgebra(report)
    return alg


def _e_index(tok: _Token, total: int) -> int:
    if tok.kind != "WORD" or not tok.text.startswith("e"):
        raise ParseError(f"expected basis label, found {tok.text!r}", tok.line, tok.col)
    return _word_index(tok, "e", total, "basis label")


def _parse_rhs(parser: _LineParser, total: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    tok = parser.peek()
    if tok is not None and tok.kind == "INT" and tok.text == "0" and parser.pos + 1 == len(parser.tokens):
        parser.next()
        return out
    sign = Fraction(1)
    if tok is not None and tok.kind in "+-":  # a sign on the first term
        parser.next()
        sign = Fraction(1) if tok.kind == "+" else Fraction(-1)
    while True:
        coeff = sign
        tok = parser.peek()
        if tok is None:
            last = parser.tokens[-1]
            raise ParseError("expected a term", last.line, last.col + len(last.text))
        if tok.kind == "INT":
            coeff *= parser._rational(parser.next())
            star = parser.next()
            if star.kind != "*":
                raise ParseError(
                    f"expected '*', found {star.text!r}", star.line, star.col
                )
        label = parser.next()
        m = _e_index(label, total)
        out[m] = out.get(m, Fraction(0)) + coeff
        tok = parser.peek()
        if tok is None:
            break
        if tok.kind not in "+-":
            raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.line, tok.col)
        parser.next()
        sign = Fraction(1) if tok.kind == "+" else Fraction(-1)
    return {m: c for m, c in out.items() if c != 0}


def _scalar_term_text(c: Fraction, exps: tuple[int, ...], direction: int) -> str:
    parts = []
    if abs(c) != 1:
        parts.append(str(abs(c)))
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    parts.append(f"d{direction}")
    return "*".join(parts)


def frame_to_text(frame: Frame) -> str:
    """Serialize a frame in the file grammar; output re-parses exactly."""
    lines = [f"dim {frame.n}"]
    for idx, fld in enumerate(frame.fields, start=1):
        terms = []
        for j, poly in enumerate(fld.comps, start=1):
            for exps, c in sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
                terms.append((j, exps, c))
        terms.sort(key=lambda t: (t[0], sum(t[1]), t[1]))
        if not terms:
            lines.append(f"X{idx} = 0*d1")
            continue
        rendered = []
        for pos, (j, exps, c) in enumerate(terms):
            body = _scalar_term_text(c, exps, j)
            if pos == 0:
                # no unary minus in the grammar: fold a leading negative
                # coefficient into a parenthesized scalar factor
                if c > 0:
                    rendered.append(body)
                else:
                    rendered.append(f"(0 - {str(abs(c))})*" + _scalar_term_text(Fraction(1), exps, j))
            else:
                rendered.append((" + " if c > 0 else " - ") + body)
        lines.append(f"X{idx} = " + "".join(rendered))
    return "\n".join(lines) + "\n"
