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
``MAX_DIGITS`` (4300, kept in ``linalg``) digits, Python's default limit
for reading one.  Every parse failure carries the 1-based line and column
of the offending token.

A file is read in one pass.  Each line is one ``findall`` of ``_TOKEN``,
which yields the token texts; a token's kind is read from its first
character, and a column is computed only when a ``ParseError`` is raised, by
scanning that one line again.  A character that starts no token is refused
before any line is parsed.

An expression evaluates to a scalar/vector flag and one term dict that maps
(direction, exponent tuple) to a nonzero coefficient, with direction 0 for
scalar terms.  Within a term, the rationals, variables and direction, with
their powers, fold into one running coefficient, exponent list and
direction, so ``x1^100000000`` adds to one exponent.  Only a parenthesized
factor is a term dict: ``^`` on it squares repeatedly, and ``_product``
multiplies the term's monomial by each such factor in turn, left to right.
``+`` and ``-`` accumulate terms into the expression's dict in place.
``parse_frame`` builds each component's ``Poly`` once, when its field line
is read.

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
import string
from fractions import Fraction
from operator import add, itemgetter

from .errors import DomainError, InvalidAlgebra, ParseError
from .flags import StratifiedAlgebra, validate_algebra
from .linalg import _TOO_LONG, MAX_DIGITS
from .polyfields import Frame, Poly, PolyField

__all__ = ["frame_to_text", "parse_algebra", "parse_frame"]

# The largest ``dim`` a frame file may declare, the cap ``hall_basis`` puts on
# its element count: every field holds ``dim`` components and every monomial
# ``dim`` exponents, so a larger header is refused before anything is built.
MAX_DIM = 100_000

# One match per token; whitespace matches no alternative and is skipped, and
# the last alternative is any other single character.  A token's kind is read
# from its first character: INT, WORD or the symbol itself.  A character with
# no kind starts no token of the grammar, and ``_tokenize`` refuses it.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[=+\-*^/()]|\S")
_KINDS = dict.fromkeys(string.digits, "INT") | dict.fromkeys(string.ascii_letters, "WORD")
_KINDS |= {symbol: symbol for symbol in "=+-*^/()"}


class _Line:
    """The token texts of one logical line and a cursor into them.  A
    column is found only for an error, by scanning the line again."""

    __slots__ = ("toks", "pos", "lineno", "code")

    def __init__(self, lineno: int, code: str, toks: list[str]):
        self.toks, self.pos, self.lineno, self.code = toks, 0, lineno, code

    def error(self, message: str, at: int) -> ParseError:
        """ParseError at token ``at``; past the last token, just after it."""
        spans = [m.span() for m in _TOKEN.finditer(self.code)]
        col = spans[at][0] + 1 if at < len(spans) else spans[-1][1] + 1
        return ParseError(message, self.lineno, col)

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        pos = self.pos
        if pos == len(self.toks):
            raise self.error("unexpected end of line", pos)
        self.pos = pos + 1
        return self.toks[pos]

    def expect(self, kind: str) -> str:
        tok = self.next()
        if _KINDS[tok[0]] != kind:
            raise self.error(f"expected {kind!r}, found {tok!r}", self.pos - 1)
        return tok

    def done(self):
        if self.pos < len(self.toks):
            raise self.error(f"unexpected trailing token {self.toks[self.pos]!r}", self.pos)

    def integer(self, at: int, digits: str | None = None) -> int:
        """The integer spelled by ``digits``, by default all of token ``at``."""
        digits = self.toks[at] if digits is None else digits
        if len(digits) > MAX_DIGITS:
            raise self.error(f"integer of more than {MAX_DIGITS} digits", at)
        return int(digits)

    def rational(self, at: int) -> int | Fraction:
        """INT ["/" INT] starting at the already consumed token ``at``."""
        num = self.integer(at)
        if self.peek() == "/":
            self.pos += 1
            self.expect("INT")
            den = self.integer(self.pos - 1)
            if den == 0:
                raise self.error("zero denominator", self.pos - 1)
            return Fraction(num, den)
        return num

    def index(self, at: int, n: int, what: str) -> int:
        """The index in 1..n of token ``at``: a letter, then digits."""
        tok = self.toks[at]
        if not tok[1:].isdigit():
            raise self.error(f"malformed {what} {tok!r}", at)
        idx = self.integer(at, tok[1:])
        if not 1 <= idx <= n:
            raise self.error(f"index out of range at token {tok!r} (limit {n})", at)
        return idx

    def expr(self, n: int) -> tuple[bool, dict]:
        """An expression on R^n as ``(vector, terms)``: the term dict of the
        module docstring and whether it has directions."""
        vector, terms = self.term(n)
        while (sign := self.peek()) is not None and sign in "+-":
            at = self.pos
            self.pos += 1
            rhs_vector, rhs = self.term(n)
            if vector != rhs_vector:
                raise self.error("cannot add a scalar and a vector term", at)
            for key, c in rhs.items():
                if sign == "-":
                    c = -c
                if key not in terms:
                    terms[key] = c
                elif c := terms[key] + c:
                    terms[key] = c
                else:
                    del terms[key]
        return vector, terms

    def term(self, n: int) -> tuple[bool, dict]:
        """Numbers, variables and a direction fold into one coefficient,
        exponent list and direction; each parenthesized factor is a term
        dict that multiplies the result."""
        toks, end = self.toks, len(self.toks)
        coef, exps, direction, vector, parens, star = 1, [0] * n, 0, False, [], 0
        while True:  # one factor per pass; ``value`` is the number, the
            # index of x_i or d_j, or the term dict of a parenthesized factor
            at = self.pos
            tok = self.next()
            lead = tok[0]
            if lead == "x" or lead == "d":
                value = self.index(at, n, "variable" if lead == "x" else "direction")
            elif lead == "(":
                is_vector, value = self.expr(n)
                if (closing := self.next()) != ")":
                    raise self.error(f"expected ')', found {closing!r}", self.pos - 1)
            elif _KINDS[lead] == "INT":
                value = self.rational(at)
            else:
                raise self.error(f"unexpected token {tok!r}", at)
            factor_vector = lead == "d" or lead == "(" and is_vector
            power = 1
            while self.pos < end and toks[self.pos] == "^":
                caret = self.pos
                self.pos += 1
                self.expect("INT")
                e = self.integer(self.pos - 1)
                if factor_vector:
                    raise self.error("cannot exponentiate a vector", caret)
                if lead != "(":
                    power *= e
                    continue
                squares, value = value, {(0, (0,) * n): 1}
                while e:  # repeated squaring, one bit of e per pass
                    if e & 1:
                        value = _product(value, squares)
                    e >>= 1
                    if e:
                        squares = _product(squares, squares)
            if factor_vector:
                if vector:
                    raise self.error("cannot multiply two vector expressions", star)
                vector = True
            if lead == "x":
                exps[value - 1] += power
            elif lead == "d":
                direction = value
            elif lead == "(":
                parens.append(value)
            else:
                if power != 1:
                    value = value**power if power else 1
                coef = value if coef == 1 else coef * value
            if self.pos == end or toks[self.pos] != "*":
                break
            star = self.pos
            self.pos += 1
        if not coef:
            return vector, {}
        terms = {(direction, tuple(exps)): coef}
        for factor in parens:
            terms = _product(terms, factor)
        return vector, terms


def _tokenize(text: str) -> list[_Line]:
    """One ``_Line`` per logical line; comments and blank lines dropped.  A
    character that starts no token raises before any line is parsed."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        toks = _TOKEN.findall(code)
        if not toks:
            continue
        row = _Line(lineno, code, toks)
        if not _KINDS.keys() >= set(map(itemgetter(0), toks)):
            at = next(i for i, tok in enumerate(toks) if tok[0] not in _KINDS)
            raise row.error(f"unexpected character {toks[at]!r}", at)
        rows.append(row)
    return rows


def _product(a: dict, b: dict) -> dict:
    """Term dict of the product of two term dicts, at most one of which has
    directions, so the directions of a key add up to the one present."""
    out: dict = {}
    for (da, ea), ca in a.items():
        for (db, eb), cb in b.items():
            key = (da + db, tuple(map(add, ea, eb)))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def parse_frame(text: str) -> Frame:
    """Parse a frame file into a Frame of polynomial fields."""
    rows = _tokenize(text)
    if not rows:
        raise ParseError("empty input", 1, 1)
    header = rows[0]
    word = header.expect("WORD")
    if word != "dim":
        raise header.error(f"expected 'dim', found {word!r}", 0)
    dim_tok = header.expect("INT")
    digits = dim_tok.lstrip("0")
    if len(digits) > len(str(MAX_DIM)) or int(digits or 0) > MAX_DIM:
        raise header.error(f"dimension above the limit of {MAX_DIM}", 1)
    n = header.integer(1)
    if n < 1:
        raise header.error("dimension must be positive", 1)
    header.done()
    fields = []
    for line in rows[1:]:
        name = line.expect("WORD")
        expected = f"X{len(fields) + 1}"
        if name != expected:
            raise line.error(f"expected field name {expected!r}, found {name!r}", 0)
        line.expect("=")
        vector, terms = line.expr(n)
        line.done()
        if not vector:
            raise line.error("field expression must involve a direction dj", 0)
        comps: list[dict] = [{} for _ in range(n)]
        for (j, exps), c in terms.items():
            comps[j - 1][exps] = c
        fields.append(PolyField(tuple(Poly(n, comp) for comp in comps)))
    if not fields:
        raise ParseError("frame needs at least one field line", header.lineno, 1)
    return Frame(n, tuple(fields))


def parse_algebra(text: str) -> StratifiedAlgebra:
    """Parse an algebra file; validation failures raise InvalidAlgebra."""
    rows = _tokenize(text)
    if not rows:
        raise ParseError("empty input", 1, 1)
    header = rows[0]
    word = header.expect("WORD")
    if word != "layers":
        raise header.error(f"expected 'layers', found {word!r}", 0)
    dims = []
    while header.peek() is not None:
        header.expect("INT")
        d = header.integer(header.pos - 1)
        if d < 1:
            raise header.error("layer dimensions must be positive", header.pos - 1)
        dims.append(d)
    if not dims:
        raise header.error("expected at least one layer dimension", header.pos)
    total = sum(dims)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for line in rows[1:]:
        word = line.expect("WORD")
        if word != "bracket":
            raise line.error(f"expected 'bracket', found {word!r}", 0)
        line.expect("WORD")
        i = _e_index(line, total)
        line.expect("WORD")
        j = _e_index(line, total)
        if not i < j:
            raise line.error(f"bracket pair needs i < j, got e{i} e{j}", 1)
        if (i, j) in table:
            raise line.error(f"duplicate bracket line for e{i} e{j}", 1)
        line.expect("=")
        table[(i, j)] = _parse_rhs(line, total)
        line.done()
    alg = StratifiedAlgebra(tuple(dims), table)
    report = validate_algebra(alg)
    if not report.valid:
        raise InvalidAlgebra(report)
    return alg


def _e_index(line: _Line, total: int) -> int:
    """The index of the basis label that ``line`` has just read."""
    tok = line.toks[line.pos - 1]
    if not tok.startswith("e"):
        raise line.error(f"expected basis label, found {tok!r}", line.pos - 1)
    return line.index(line.pos - 1, total, "basis label")


def _parse_rhs(line: _Line, total: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    tok = line.peek()
    if tok == "0" and line.pos + 1 == len(line.toks):
        line.next()
        return out
    sign = Fraction(1)
    if tok is not None and tok in "+-":  # a sign on the first term
        line.next()
        sign = Fraction(1) if tok == "+" else Fraction(-1)
    while True:
        coeff = sign
        tok = line.peek()
        if tok is None:
            raise line.error("expected a term", line.pos)
        if _KINDS[tok[0]] == "INT":
            line.next()
            coeff *= line.rational(line.pos - 1)
            if (star := line.next()) != "*":
                raise line.error(f"expected '*', found {star!r}", line.pos - 1)
        line.next()
        m = _e_index(line, total)
        out[m] = out.get(m, Fraction(0)) + coeff
        tok = line.peek()
        if tok is None:
            break
        if tok not in "+-":
            raise line.error(f"expected '+' or '-', found {tok!r}", line.pos)
        line.next()
        sign = Fraction(1) if tok == "+" else Fraction(-1)
    return {m: c for m, c in out.items() if c != 0}


def frame_to_text(frame: Frame) -> str:
    """Serialize a frame in the file grammar; output re-parses exactly.

    Each term is ``|c|*x1^e1*...*dj`` with the factor texts of
    ``Poly._printed_terms``, component by component, and a coefficient of 1
    left out.  A coefficient whose numerator or denominator has more than
    ``MAX_DIGITS`` digits could not be read back, so it raises
    ``DomainError`` instead.
    """
    lines = [f"dim {frame.n}"]
    for idx, fld in enumerate(frame.fields, start=1):
        out = []
        for j, poly in enumerate(fld.comps, start=1):
            for factors, c in poly._printed_terms():
                if max(abs(c.numerator), c.denominator) >= _TOO_LONG:
                    raise DomainError(
                        f"X{idx} has a d{j} coefficient of more than {MAX_DIGITS} "
                        "digits (parsing.MAX_DIGITS), which a frame file cannot hold"
                    )
                body = "*".join([*factors, f"d{j}"])
                if not out and c < 0:
                    # no unary minus in the grammar: fold a leading negative
                    # coefficient into a parenthesized scalar factor
                    out.append(f"(0 - {str(-c)})*{body}")
                    continue
                if abs(c) != 1:
                    body = f"{str(abs(c))}*{body}"
                out.append(((" + " if c > 0 else " - ") if out else "") + body)
        lines.append(f"X{idx} = " + ("".join(out) or "0*d1"))
    return "\n".join(lines) + "\n"
