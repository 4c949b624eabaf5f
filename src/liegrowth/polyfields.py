"""Sparse polynomials over Q, polynomial vector fields and their Taylor parts.

The sparse ring is written once, in ``_SparsePoly``: a polynomial maps
monomials to nonzero exact coefficients (ints or Fractions, see ``_exact``),
and the base class owns the normalising constructor, ``+``, ``-``, scalar and
polynomial ``*``, equality, hashing and the text, one signed join of terms.
A subclass supplies only what a monomial is (its product ``_times``), its
ambient (a mismatch raises ``DomainError``), the action of a vector field V
on a polynomial p, ``_act``: acc += sign * sum_j V^j * D_j p, with each
derivative term of p formed once and multiplied straight into ``acc``, and
its terms in print order with the text of their factors
(``_printed_terms``).  ``Poly`` here is the classical ring: monomials are
exponent n-tuples and D_j is d/dx_j.
``jetalg.DiffPoly`` is the ring of jet coordinates, whose D_j are the total
derivatives.  A partial derivative (``Poly.derivative``, ``jetalg.derive``)
is the action of a coordinate field, ``_along``.

The vector field is written once, next to the ring, in ``_Vector``: one
component per variable of one ring and one ambient, read by one validation
(anything else, ``PolyField(())`` included, raises ``DomainError``), with
componentwise ``+``, ``-``, ``scale``, ``is_zero``, equality and text.
``PolyField`` is its classical instance, a frozen dataclass of n ``Poly``s
in n variables, and ``jetalg.DiffVec`` its jet instance.  The Lie bracket is
written once too, in ``_bracket``: [A, B]^i = A(B^i) - B(A^i) over either
ring, exact, each field's components listed once per bracket (``_grade``).
``poly_lie_bracket`` and ``jetalg.diffvec_bracket`` validate their
arguments and return its components.  Nothing is kept between calls.  A
``Frame`` is a nonempty tuple of ``PolyField``s sharing one ambient
dimension.

There is one Taylor expansion, and it runs on ints.  ``_Expansion`` expands
about the point each distinct monomial of the fields of one call, once for
every component and every field: it clears the point's common denominator,
and it forms a degree slice of a monomial (packed monomials and int
factors) the first time any field asks for that degree.  ``_TaylorParts``
is one field's expansion read off those slices: it clears the field's
coefficient denominators once, so the expansion times one int, its
``scale``, has an int coefficient for every monomial, and it forms only the
parts of the degrees it is asked for.  Monomials are packed ints (the
exponent of x_{i+1} in bits [w*i, w*(i+1)), w wide enough for the order),
so a product of monomials is one int addition.  ``_taylor_leaves`` makes
the ``_TaylorParts`` of a call's fields about one ``_Expansion``, which
goes when they go.  ``PolyField.taylor(p, s)`` assembles from the parts of
degrees 0..s the degree-<= s Taylor polynomial about ``p``, in shifted
coordinates, as an ordinary field; ``jetalg.jet_of_frame`` reads its jet
off the parts, and the flag engine (``flags._Graded``) asks a leaf for one
degree at a time through the interface ``_GradedLeaf``, which
``jetalg._taylor_fields`` implements too.

Coefficients, points (of the ambient's length) and matrix entries are read
by the exactness rule in ``linalg``: an int or a Fraction, or a
``DomainError``.  An order, an exponent, a direction or a variable index
must be an int (``linalg._sizes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add, sub

from . import linalg
from .errors import DomainError, OrderOverflow
from .linalg import _exact, _exact_vector, _sizes, _tuple

__all__ = [
    "AffineMap",
    "Frame",
    "Poly",
    "PolyField",
    "frame_change",
    "poly_lie_bracket",
    "pushforward",
]

_ZERO = Fraction(0)


class _SparsePoly:
    """Sparse polynomial over Q: ``terms`` maps monomials to nonzero exact
    coefficients.  A subclass defines ``_ambient`` (the tuple its constructor
    takes before ``terms``), the commutative monomial product ``_times``, the
    action ``_act`` of a field whose components ``_grade`` has listed (see
    the module docstring), and the print order and factor texts of its terms
    (``_printed_terms``), which ``str`` joins.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = _exact(c, "coefficient")
                if c:
                    self.terms[mono] = c

    def _like(self, acc: dict):
        """Polynomial over this ambient holding the nonzero entries of ``acc``,
        whose coefficients are already exact; an integral ``Fraction`` is kept
        as an int, as the constructor keeps it."""
        p = type(self)(*self._ambient)
        p.terms = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in acc.items()
            if c
        }
        return p

    @staticmethod
    def _grade(comps) -> list:
        """Per component of a field, its (monomial, coefficient) pairs, read
        once per bracket."""
        return [tuple(p.terms.items()) for p in comps]

    def _check(self, other) -> None:
        if type(other) is not type(self) or other._ambient != self._ambient:
            raise DomainError("mixing polynomials of different ambients")

    def _along(self, t: int, one):
        """D_t of this polynomial (1 <= t <= n): the action of the t-th
        coordinate field, whose t-th component is ``one``, the ring's 1."""
        zero = self._like({})
        field = [one if i == t else zero for i in range(1, self.n + 1)]
        acc: dict = {}
        self._act(acc, self._grade(field))
        return self._like(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._ambient == self._ambient
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self._ambient, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _SparsePoly):
            c = _exact(other, "scalar")
            return self._like({m: v * c for m, v in self.terms.items()})
        self._check(other)
        short, long = self.terms, other.terms
        if len(short) > len(long):
            short, long = long, short
        acc: dict = {}
        monos, coeffs = long.keys(), long.values()
        for m1, c1 in short.items():
            for mono, c2 in zip(self._times(m1, monos), coeffs):
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return self._like(acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        """The terms in the ring's order (``_printed_terms``: per term the
        texts of its factors, and its coefficient), each ``|c|*f1*f2...``
        with a coefficient of 1 left out before a factor, joined by signs."""
        out = []
        for factors, c in self._printed_terms():
            if abs(c) != 1 or not factors:
                factors = [str(abs(c)), *factors]
            out += [" - " if c < 0 else " + ", "*".join(factors)]
        if not out:
            return "0"
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class _Vector:
    """Vector sum(comps[j] * D_{j+1}) over one sparse ring, written once for
    ``PolyField`` and ``jetalg.DiffVec``.  ``comps`` is read as a tuple of
    polynomials of one ring and one ambient, one per variable of that ring
    (its ``n``); anything else raises ``DomainError``.  The arithmetic is
    componentwise and returns the same type."""

    __slots__ = ()

    def __init__(self, comps):
        self.comps = self._read(comps)

    @staticmethod
    def _read(comps) -> tuple:
        comps = _tuple(comps, "vector components")
        if not comps:
            raise DomainError("a vector needs at least one component")
        ring = type(comps[0])
        if not issubclass(ring, _SparsePoly):
            raise DomainError(f"vector component 1 is of type {ring.__name__}, not a polynomial")
        ambient = comps[0]._ambient
        for j, c in enumerate(comps, start=1):
            if type(c) is not ring:
                raise DomainError(
                    f"vector component {j} is of type {type(c).__name__}, not {ring.__name__}"
                )
            if c._ambient != ambient:
                raise DomainError(f"vector components 1 and {j} have different ambients")
        if len(comps) != comps[0].n:
            raise DomainError(
                f"a vector needs one component per variable ({comps[0].n}), got {len(comps)}"
            )
        return comps

    @property
    def n(self) -> int:
        return len(self.comps)

    def _operand(self, other, symbol: str) -> tuple:
        """The components of ``other``, which must be a vector too."""
        if not isinstance(other, _Vector):
            raise DomainError(
                f"{type(self).__name__} {symbol} {type(other).__name__}: the operand is not a vector"
            )
        return other.comps

    def __add__(self, other):
        return type(self)(tuple(map(add, self.comps, self._operand(other, "+"))))

    def __sub__(self, other):
        return type(self)(tuple(map(sub, self.comps, self._operand(other, "-"))))

    def __neg__(self):
        return type(self)(tuple(-p for p in self.comps))

    def scale(self, c):
        """This vector times ``c``, a number or a polynomial of its ring."""
        return type(self)(tuple(p * c for p in self.comps))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.comps == self.comps

    def __hash__(self):
        return hash(self.comps)

    def __str__(self) -> str:
        parts = [f"({p})*d{j}" for j, p in enumerate(self.comps, start=1) if p.terms]
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(comps={self.comps!r})"


def _bracket(a_comps, b_comps) -> list:
    """Components of [A, B]^i = A(B^i) - B(A^i) for the components of two
    vectors over one ring, where V(p) = sum_j V^j D_j p is the ring's
    ``_act``; each field is graded once."""
    grade = a_comps[0]._grade
    ga, gb = grade(a_comps), grade(b_comps)
    comps = []
    for ai, bi in zip(a_comps, b_comps):
        acc: dict = {}
        bi._act(acc, ga, 1)
        ai._act(acc, gb, -1)
        comps.append(ai._like(acc))
    return comps


class Poly(_SparsePoly):
    """Polynomial over Q in variables x1..xn, stored sparsely; a monomial is
    an exponent n-tuple of non-negative ints, and the constructor raises
    ``DomainError`` on any other key."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        for exps in terms or ():
            if not (
                type(exps) is tuple
                and len(exps) == n
                and all(type(e) is int and e >= 0 for e in exps)
            ):
                raise DomainError(
                    f"exponent key {exps!r} is not a tuple of {n} non-negative ints"
                )
        super().__init__(terms)

    @property
    def _ambient(self) -> tuple[int]:
        return (self.n,)

    @staticmethod
    def _times(e1, monos):
        """The monomials e1 * e for e in ``monos``: exponent sums."""
        return (tuple(map(add, e1, e2)) for e2 in monos)

    def _act(self, acc: dict, graded: list, sign: int = 1) -> None:
        """acc += sign * sum_j V^j * d(self)/dx_j for the components V^j of a
        field graded by ``_grade``: each derivative term is formed once and
        multiplied straight into ``acc``, and a zero component is skipped.
        Cancelled coefficients stay as zeros."""
        for exps, c in self.terms.items():
            for j, mult in enumerate(graded):
                e = exps[j]
                if e and mult:
                    d = exps[:j] + (e - 1,) + exps[j + 1 :]
                    sc = sign * c * e
                    for m, c2 in mult:
                        key = tuple(map(add, d, m))
                        acc[key] = acc.get(key, 0) + sc * c2

    @staticmethod
    def zero(n: int) -> Poly:
        return Poly(n)

    @staticmethod
    def const(n: int, c) -> Poly:
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def variable(n: int, j: int) -> Poly:
        _sizes(n=n, variable=j)
        if not 1 <= j <= n:
            raise DomainError(f"variable x{j} out of range 1..{n}")
        exps = tuple(1 if i == j - 1 else 0 for i in range(n))
        return Poly(n, {exps: 1})

    def __pow__(self, e: int) -> Poly:
        _sizes(exponent=e)
        if e < 0:
            raise DomainError("negative exponents are not polynomial")
        out, base = Poly.const(self.n, 1), self
        while e:  # repeated squaring, one bit of e per pass
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def derivative(self, j: int) -> Poly:
        """Exact partial derivative with respect to x_j (1-based)."""
        _sizes(direction=j)
        if not 1 <= j <= self.n:
            raise DomainError(f"direction {j} out of range 1..{self.n}")
        return self._along(j, Poly.const(self.n, 1))

    def eval_at(self, point) -> Fraction:
        vals = _exact_vector(point, "point", self.n)
        total = _ZERO
        for exps, c in self.terms.items():
            prod = c
            for v, e in zip(vals, exps):
                if e:
                    prod *= v**e
            total += prod
        return total

    def compose(self, subs) -> Poly:
        """Substitute x_i := subs[i] for n polynomials over a common variable
        set; another number of them raises ``DomainError``.  Each power
        subs[i]**e is formed once per call, and the terms are summed in one
        accumulator."""
        if len(subs) != self.n:
            raise DomainError(f"compose needs {self.n} substitutions, got {len(subs)}")
        out = subs[0] if subs else self
        needed = {(i, e) for exps in self.terms for i, e in enumerate(exps) if e}
        powers = {(i, e): subs[i] ** e for i, e in needed}
        acc: dict = {}
        for exps, c in self.terms.items():
            term = out._like({(0,) * out.n: c})
            for i, e in enumerate(exps):
                if e:
                    term = term * powers[i, e]
            for mono, v in term.terms.items():
                acc[mono] = acc.get(mono, 0) + v
        return out._like(acc)

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _printed_terms(self):
        """By total degree, then exponent tuple: x_i^e printed as ``xi^e``."""
        for exps, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            yield [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e], c


def _pack_width(order: int) -> int:
    """Bits per exponent in a packed monomial of total degree <= ``order``."""
    return max(order, 1).bit_length()


class _GradedLeaf:
    """A Taylor field about a point kept as its homogeneous parts, the leaf
    of the flag engine (``flags._Graded``).  ``part(d)`` is the degree-d
    part times ``scale``, a nonzero int that is the same for every part: a
    list of n dicts from packed monomials to nonzero ints, the exponent of
    x_{i+1} in bits [w*i, w*(i+1)) of a key, w = ``width``.  A subclass
    supplies ``_form(d)``, which ``part`` calls once per degree; ``top`` is
    a degree above which every part is zero, and no part above the order
    the leaf was made for may be asked for."""

    __slots__ = ("n", "width", "top", "scale", "_parts")

    def part(self, d: int) -> list[dict]:
        got = self._parts.get(d)
        if got is None:
            got = self._parts[d] = self._form(d)
        return got

    def _form(self, d: int) -> list[dict]:
        raise NotImplementedError

    def decode(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        w, mask = self.width, (1 << self.width) - 1
        return tuple((key >> (w * i)) & mask for i in range(self.n))

    def values(self) -> tuple:
        """The field's value at the point, read off the degree-0 part."""
        return tuple(_exact(Fraction(c.get(0, 0), self.scale), "value") for c in self.part(0))


class _Expansion:
    """The expansion about one point, for one order, of the monomials of the
    fields whose leaves share it, in ints.

    With D the common denominator of the point (shift P/D), the slice of
    degree d of a monomial x^alpha is the degree-d part of
    D^|alpha| (x + P/D)^alpha: the pairs (packed x^k, int factor
    prod_i C(alpha_i, k_i) P_i^(alpha_i - k_i) D^(k_i)) for |k| = d.  Each
    distinct exponent tuple has one record (``monomial``), shared by every
    component and every field that holds it, and ``form`` fills in its
    slices of the degrees a leaf asks for, the first time any leaf asks.

    Only the variables with a nonzero exponent and a nonzero shift are
    expanded, k_i running over 0..alpha_i; every other variable keeps
    k_i = alpha_i, and its degree starts the partial products.  A partial
    product is dropped once its degree passes the highest degree asked for,
    or once the variables left can no longer lift it to the lowest, so a
    monomial of high degree never forms its full product.
    """

    __slots__ = ("n", "width", "order", "den", "shift", "_monos", "_factors")

    def __init__(self, n: int, point, order: int):
        _sizes(order=order)
        if order < 0:
            raise OrderOverflow(f"Taylor order must be >= 0, got {order}")
        if type(point) is not tuple or len(point) != n or not all(
            type(x) is int or type(x) is Fraction for x in point
        ):
            point = _exact_vector(point, "point", n)
        self.n, self.order, self.width = n, order, _pack_width(order)
        den = self.den = lcm(*(x.denominator for x in point))
        self.shift = [x.numerator * (den // x.denominator) for x in point]
        # exponent tuple -> its record; (i, e) -> its ``_expansion`` triples
        self._monos: dict = {}
        self._factors: dict = {}

    def monomial(self, exps: tuple) -> tuple:
        """The record of the monomial x^alpha, alpha = ``exps``: its degree
        |alpha|, the degree of its unshifted variables (the degrees of its
        nonzero slices run from this one to |alpha|), its slices by degree,
        the packed monomial of its unshifted variables and the expansion
        triples of each shifted one."""
        got = self._monos.get(exps)
        if got is None:
            w, shift = self.width, self.shift
            key = low = 0
            active = []
            for i, e in enumerate(exps):
                if e:
                    if shift[i]:
                        active.append(self._expansion(i, e))
                    else:
                        low += e
                        key += e << (w * i)
            got = self._monos[exps] = (sum(exps), low, {}, key, active)
        return got

    def form(self, record: tuple, lo: int, hi: int) -> None:
        """Fill in, from one pass of partial products, the slices of degrees
        ``lo``..``hi`` that the monomial of ``record`` lacks; lo..hi lies
        within the degrees of its nonzero slices."""
        deg, low, slices, key, active = record
        partial = [(key, self.den**low, low)]
        room = deg - low
        for triples in active:
            room -= triples[-1][0]
            floor = lo - room
            partial = [
                (head + packed, coef * f, d + j)
                for head, coef, d in partial
                for j, f, packed in triples
                if floor <= d + j <= hi
            ]
        # every degree of lo..hi is reached, since no factor is zero
        fresh: dict = {}
        for head, coef, d in partial:
            got = fresh.get(d)
            if got is None:
                fresh[d] = [(head, coef)]
            else:
                got.append((head, coef))
        for d, got in fresh.items():
            slices.setdefault(d, got)

    def _expansion(self, i: int, e: int) -> list:
        """The (k, factor, packed x_i^k) triples, k = 0..e, of
        (x_i + P_i/D)^e D^e = sum_k C(e, k) P_i^(e-k) D^k x_i^k."""
        got = self._factors.get((i, e))
        if got is None:
            p, den, at = self.shift[i], self.den, self.width * i
            got = self._factors[(i, e)] = [
                (j, comb(e, j) * p ** (e - j) * den**j, j << at) for j in range(e + 1)
            ]
        return got


class _TaylorParts(_GradedLeaf):
    """The Taylor expansion of a field about a point, in ints, read off the
    slices of its monomials in the ``_Expansion`` it shares.

    With D the common denominator of the point, L the lcm of the field's
    coefficient denominators and T its top degree, ``scale`` is L D^T and
    the expansion is ``scale`` times the Taylor polynomial: a term
    c x^alpha contributes c L D^(T - |alpha|), an int, times each slice of
    x^alpha.  The terms are grouped by monomial, so each slice is looked up
    once per field and degree.  ``expand(lo, hi)`` forms the parts of
    degrees lo..hi only, and ``PolyField.taylor``, ``jetalg.jet_of_frame``
    and the flag engine (one degree at a time, as ``part``) all read it.
    """

    __slots__ = ("_about", "_terms")

    def __init__(self, field: PolyField, about: _Expansion):
        self.n, self.width, self._about, self._parts = about.n, about.width, about, {}
        records, monomial = about._monos, about.monomial
        # per monomial of the field: its record and the (component,
        # coefficient) pairs that hold it
        users: dict = {}
        mult = 1
        top = 0
        for i, comp in enumerate(field.comps):
            for exps, c in comp.terms.items():
                got = users.get(exps)
                if got is None:
                    record = records.get(exps) or monomial(exps)
                    if record[0] > top:
                        top = record[0]
                    got = users[exps] = (record, [])
                got[1].append((i, c))
                if type(c) is not int:
                    mult = lcm(mult, c.denominator)
        den, order = about.den, about.order
        self.scale = mult * den**top
        self.top = min(top, order)
        lift = [mult * den ** (top - deg) for deg in range(top + 1)]
        # per monomial that has a slice of degree <= order: its degree, its
        # lowest degree, its slices, its record and the (component, int
        # coefficient) pairs
        self._terms = []
        for record, terms in users.values():
            deg, low, slices, _, _ = record
            if low <= order:
                up = lift[deg]
                nums = [
                    (i, c * up if type(c) is int else c.numerator * (up // c.denominator))
                    for i, c in terms
                ]
                self._terms.append((deg, low, slices, record, nums))

    def expand(self, lo: int, hi: int) -> list[dict]:
        """The parts of degrees ``lo``..``hi`` together, times ``scale``: per
        component a dict from packed monomials to nonzero ints."""
        form = self._about.form
        out: list[dict] = [{} for _ in range(self.n)]
        for deg, low, slices, record, terms in self._terms:
            first, last = lo if lo > low else low, hi if hi < deg else deg
            for d in range(first, last + 1):
                got = slices.get(d)
                if got is None:
                    form(record, first, last)
                    got = slices[d]
                for i, num in terms:
                    acc = out[i]
                    for key, f in got:
                        acc[key] = acc.get(key, 0) + num * f
        return [{m: c for m, c in acc.items() if c} if acc else acc for acc in out]

    def _form(self, d: int) -> list[dict]:
        return self.expand(d, d)


def _taylor_leaves(fields, point, order: int) -> list[_TaylorParts]:
    """The ``_TaylorParts`` of ``fields`` (``PolyField``s on one R^n, at
    least one) about ``point`` to ``order``, sharing one ``_Expansion``."""
    about = _Expansion(fields[0].n, point, order)
    return [_TaylorParts(f, about) for f in fields]


@dataclass(frozen=True, eq=False, repr=False)
class PolyField(_Vector):
    """Vector field sum(comps[j] * d_{j+1}) with polynomial coefficients: n
    ``Poly``s in n variables (``_Vector``)."""

    comps: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "comps", self._read(self.comps))

    @staticmethod
    def zero(n: int) -> PolyField:
        return PolyField(tuple(Poly.zero(n) for _ in range(n)))

    @staticmethod
    def basis(n: int, j: int) -> PolyField:
        comps = tuple(
            Poly.const(n, 1) if i == j - 1 else Poly.zero(n) for i in range(n)
        )
        return PolyField(comps)

    def value_at(self, point) -> tuple[Fraction, ...]:
        return tuple(c.eval_at(point) for c in self.comps)

    def taylor(self, point, order: int) -> PolyField:
        """The degree-<= ``order`` Taylor polynomial about ``point`` in
        shifted coordinates, as an ordinary field: its x^alpha coefficient,
        the alpha-th partial derivative at ``point`` over alpha!, is a part
        of ``_TaylorParts`` over its ``scale``, an int when integral."""
        parts = _taylor_leaves([self], point, order)[0]
        scale, decode = parts.scale, parts.decode
        comps = []
        for comp, acc in zip(self.comps, parts.expand(0, order)):
            out = {decode(key): num for key, num in acc.items()}
            if scale != 1:
                for head, num in out.items():
                    out[head] = _exact(Fraction(num, scale), "coefficient")
            comps.append(comp._like(out))
        return PolyField(tuple(comps))


def poly_lie_bracket(x: PolyField, y: PolyField) -> PolyField:
    """Classical bracket [X, Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j)."""
    if x.n != y.n:
        raise DomainError("fields live on different ambient dimensions")
    return PolyField(tuple(_bracket(x.comps, y.comps)))


@dataclass(frozen=True)
class Frame:
    """k-tuple of polynomial vector fields on R^n, k >= 1; ``fields`` is
    kept as a tuple, and no field, or an entry that is not a ``PolyField``
    on R^n, raises ``DomainError``."""

    n: int
    fields: tuple[PolyField, ...]

    def __post_init__(self):
        _sizes(**{"frame dimension": self.n})
        fields = _tuple(self.fields, "frame fields")
        if not fields:
            raise DomainError("a frame needs at least one field")
        for j, f in enumerate(fields, start=1):
            if not isinstance(f, PolyField):
                raise DomainError(f"frame field {j} is of type {type(f).__name__}, not PolyField")
            if f.n != self.n:
                raise DomainError("all frame fields must share the ambient dimension")
        object.__setattr__(self, "fields", fields)

    @property
    def k(self) -> int:
        return len(self.fields)

    def values_at(self, point) -> list[tuple[Fraction, ...]]:
        return [f.value_at(point) for f in self.fields]


@dataclass(frozen=True)
class AffineMap:
    """y = linear * x + shift with rational entries."""

    linear: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, ...]

    @staticmethod
    def make(linear, shift) -> AffineMap:
        """The map from an n x n linear part and a length-n shift of exact
        entries; another entry or shape raises ``DomainError`` naming it."""
        shift = tuple(map(Fraction, _exact_vector(shift, "shift")))
        n = len(shift)
        lin = tuple(
            tuple(map(Fraction, _exact_vector(row, f"linear part row {r}", n)))
            for r, row in enumerate(linear, start=1)
        )
        if len(lin) != n:
            raise DomainError(f"linear part needs {n} rows, got {len(lin)}")
        return AffineMap(lin, shift)

    @property
    def n(self) -> int:
        return len(self.shift)

    def apply(self, point) -> tuple[Fraction, ...]:
        point = _exact_vector(point, "point", self.n)
        return tuple(
            linalg.dot(row, point) + s for row, s in zip(self.linear, self.shift)
        )

    def inverse(self) -> AffineMap:
        inv = linalg.inverse(self.linear)
        if inv is None:
            raise DomainError("affine map has singular linear part")
        shift = tuple(-linalg.dot(row, self.shift) for row in inv)
        return AffineMap(tuple(tuple(r) for r in inv), shift)


def pushforward(fr: Frame, a: AffineMap) -> Frame:
    """Pushforward (a_* X)(y) = L . X(a^{-1} y) computed exactly."""
    if a.n != fr.n:
        raise DomainError("affine map dimension does not match the frame")
    inv = a.inverse()
    n = fr.n
    subs = [
        Poly(n, {tuple(int(m == j) for m in range(n)): x for j, x in enumerate(row)})
        + Poly.const(n, shift)
        for row, shift in zip(inv.linear, inv.shift)
    ]
    linear = [[_exact(x, "linear part entry") for x in row] for row in a.linear]
    new_fields = []
    for f in fr.fields:
        pulled = [c.compose(subs) for c in f.comps]
        comps = []
        for row in linear:
            acc: dict = {}
            for p, x in zip(pulled, row):
                if x:
                    for mono, c in p.terms.items():
                        acc[mono] = acc.get(mono, 0) + c * x
            comps.append(Poly(n)._like(acc))
        new_fields.append(PolyField(tuple(comps)))
    return Frame(n, tuple(new_fields))


def frame_change(fr: Frame, g) -> Frame:
    """Constant recombination fr . G: new field m is sum_j G[j][m] X_j.
    An entry of G that is not exact, a float included, raises
    ``DomainError`` naming it."""
    k = fr.k
    rows = [
        list(map(Fraction, _exact_vector(row, f"change matrix row {r}")))
        for r, row in enumerate(g, start=1)
    ]
    if len(rows) != k or any(len(r) != k for r in rows):
        raise DomainError(f"change matrix must be {k}x{k}")
    if linalg.det(rows) == 0:
        raise DomainError("frame change matrix is singular")
    new_fields = []
    for m in range(k):
        acc = PolyField.zero(fr.n)
        for j in range(k):
            if rows[j][m] != 0:
                acc = acc + fr.fields[j].scale(rows[j][m])
        new_fields.append(acc)
    return Frame(fr.n, tuple(new_fields))
