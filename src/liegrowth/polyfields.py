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
arguments and return its components.  One thing is kept between calls: a
``PolyField``'s cleared ints (``PolyField._clearing``, below), which depend
on the field alone.  A ``Frame`` is a nonempty tuple of ``PolyField``s
sharing one ambient dimension.

The Taylor engine runs on ints, and its monomial format is known here
alone.  A packed monomial is one int: the exponent of x_{i+1} sits in bits
[w*i, w*(i+1)), w = ``_pack_width(order)`` bits wide enough for the order,
so a product of monomials is one int addition and d/dx_j of x^alpha one
subtraction.  ``_Expansion`` and ``_packed_index`` (a jet multi-index, for
``jetalg``) pack, ``_TaylorParts.decode`` unpacks and ``_Graded``
differentiates and multiplies packed monomials; ``flags`` and ``jetalg``
only pass them on.

There is one Taylor expansion.  ``_Expansion`` expands about the point each
distinct monomial of the fields of one call, once for every component and
every field: it clears the point's common denominator, and it forms a
degree slice of a monomial (packed monomials and int factors) the first
time any field asks for that degree.  There is one Taylor leaf too,
``_TaylorParts``: a field about the point as its homogeneous parts, each
times one int, its ``scale``, with an int coefficient for every packed
monomial.  A leaf forms each part once, when it is first asked for, from
its per-monomial terms about the shared expansion, or is given its parts
when it is made.  ``_taylor_leaves`` makes the leaves of a call's fields
about one ``_Expansion``, which goes when they go, from each field's
clearing: its coefficients over the lcm of their denominators as ints,
formed on the field's first call at any point and kept by the field, and
lifted to the point's denominator per call.  ``_recombined`` makes the
leaf of a constant combination of such leaves by merging their terms
monomial by monomial, as
``ampleness.slice_report`` recombines a frame into its adapted one; and
``jetalg._taylor_fields`` gives every part of the Taylor fields a jet fixes.
``PolyField.taylor(p, s)`` assembles from the parts of degrees 0..s the
degree-<= s Taylor polynomial about ``p``, in shifted coordinates, as an
ordinary field, and ``jetalg.jet_of_frame`` reads its jet off the parts.

There is one graded store, ``_Graded``, the field store of the flag engine
(``flags._span_ranks``).  It keeps every bracket of the leaves as its
homogeneous parts by degree and forms a part only when it is asked for,
once per (expression, degree), asking a leaf for one degree at a time.  The
degree-d part of [A, B] needs the parts of degree <= d + 1 of A and B, so
at step s a length-m sub-bracket is asked for degree s - m at most and a
leaf for degree s - 1, and a value is a degree-0 part.  Each leaf is its
Taylor field times one nonzero int, so a bracket multiplies and adds ints,
and by bilinearity all the scaling does to a bracket's value is multiply
it by a nonzero int, which changes no rank.

The affine moves run on ints too, on one kernel, ``_Substitution``:
x_i := S_i / D for int polynomials S_i in packed monomials over one int D.
``pushforward`` reads the inverse map once, from one fraction-free
elimination, as int affine forms over one D (``AffineMap._inverse_rows``),
and its linear part once as an int matrix over one denominator;
``frame_change`` reads its change matrix so and substitutes the identity;
``Poly.compose`` clears its substitutions over their common denominator.
The polynomials moved together are cleared once, by the clearing and the
lift that ``_taylor_leaves`` uses (``_cleared_terms``, ``_lifted_terms``),
not kept, as they are the components of several fields: with L the lcm of
their coefficient denominators and T their top degree, a term c x^alpha
becomes the int c L D^(T - |alpha|).  Each power of each S_i and each
monomial's image is formed once per call, the matrix combines each
monomial's int coefficients before they multiply its image, and
``_Substitution._emit`` forms the one ``Fraction`` of each output
coefficient at the very end, dividing by the matrix's denominator times
L D^T and keeping an integral one as an int.

Coefficients, points (of the ambient's length) and matrix entries are read
by the exactness rule in ``linalg``: an int or a Fraction, or a
``DomainError``; a matrix (a linear part, a change matrix) is read by its
shape rule (``linalg._exact_matrix``), and ``terms`` must be a mapping
(``linalg._mapping``).  An order, an exponent, a direction or a variable index
must be an int (``linalg._sizes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import add, mul, sub

from . import linalg
from .errors import DomainError, OrderOverflow
from .freelie import BracketExpr
from .linalg import _cleared, _exact, _exact_matrix, _exact_vector, _mapping, _sizes, _tuple

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
        for exps in _mapping(terms, "terms") if terms is not None else ():
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
        set, the ambient of subs[0]; another number of them, or a
        substitution used on another ambient, raises ``DomainError``.  The
        substitutions are cleared to ints over one denominator D and packed,
        and ``_Substitution`` forms each power once and the result in ints,
        with one ``Fraction`` per coefficient at the end."""
        if len(subs) != self.n:
            raise DomainError(f"compose needs {self.n} substitutions, got {len(subs)}")
        ring = Poly(subs[0].n if subs else self.n)
        used = {i for exps in self.terms for i, e in enumerate(exps) if e}
        for i in used:
            ring._check(subs[i])
        # the degree of each substitution bounds the exponents formed
        degs = [subs[i].max_degree() if i in used else 0 for i in range(self.n)]
        top = max((sum(map(mul, exps, degs)) for exps in self.terms), default=0)
        w = _pack_width(top)
        den = lcm(*(c.denominator for i in used for c in subs[i].terms.values()))
        packed = [
            {
                sum(e << (w * k) for k, e in enumerate(exps)): c.numerator * (den // c.denominator)
                for exps, c in subs[i].terms.items()
            } if i in used else {}
            for i in range(self.n)
        ]
        return _Substitution(ring.n, w, packed, den).combine([self], [[(0, 1)]], 1)[0]

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _printed_terms(self):
        """By total degree, then exponent tuple: x_i^e printed as ``xi^e``."""
        for exps, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            yield [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e], c


def _pack_width(order: int) -> int:
    """Bits per exponent in a packed monomial of total degree <= ``order``."""
    return max(order, 1).bit_length()


def _packed_index(idx, width: int) -> int:
    """The packed monomial x^alpha of a jet multi-index ``idx``, its
    directions 0-based and repeated alpha_j times, ``width`` bits per
    exponent."""
    return sum(1 << (width * t) for t in idx)


def _cleared_terms(polys) -> tuple[list, int, int]:
    """The terms of ``polys`` cleared to ints, which depends on them alone:
    with L the lcm of their coefficient denominators and T their top
    degree, per distinct exponent tuple alpha, the triple (alpha, |alpha|,
    the (index, c L) pairs of the polynomials that hold it with coefficient
    c); L, and T."""
    held: dict = {}
    mult = 1
    for j, p in enumerate(polys):
        for exps, c in p.terms.items():
            got = held.get(exps)
            if got is None:
                got = held[exps] = []
            got.append((j, c))
            if type(c) is not int:
                mult = lcm(mult, c.denominator)
    terms = []
    for exps, pairs in held.items():
        nums = [(j, c * mult if type(c) is int else c.numerator * (mult // c.denominator)) for j, c in pairs]
        terms.append((exps, sum(exps), nums))
    return terms, mult, max((term[1] for term in terms), default=0)


def _lifted_terms(cleared: tuple, den: int) -> tuple[list, int]:
    """The terms of a clearing (``_cleared_terms``) lifted over one scale
    L D^T for an int D, each int c L of a term of degree |alpha| times
    D^(T - |alpha|), and the scale.  When D = 1 they are the clearing's
    own terms, which no caller mutates."""
    terms, mult, top = cleared
    if den == 1:
        return terms, mult
    lift: dict = {}  # degree -> D^(T - degree)
    lifted = []
    for exps, deg, nums in terms:
        up = lift.get(deg)
        if up is None:
            up = lift[deg] = den ** (top - deg)
        lifted.append((exps, deg, [(j, c * up) for j, c in nums]))
    return lifted, mult * den**top


def _product(a: dict, b: dict) -> dict:
    """The product of two int polynomials in packed monomials."""
    out: dict = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


class _Substitution:
    """The substitution x_i := S_i / D into polynomials in x_1..x_n, for int
    polynomials S_i in y_1..y_m over one int denominator D, the kernel of
    ``pushforward``, ``frame_change`` and ``Poly.compose``.

    ``subs[i]`` is S_{i+1} as a dict from packed monomials (``width`` bits
    per exponent, wide enough for every degree formed) to ints.  Each power
    S_i^e and each image prod_i S_i^(alpha_i) of a monomial x^alpha is
    formed once per substitution, and ``combine`` forms the results in ints
    and one ``Fraction`` per coefficient at the end.
    """

    __slots__ = ("m", "width", "den", "subs", "_powers", "_images", "_decoded")

    def __init__(self, m: int, width: int, subs: list, den: int):
        self.m, self.width, self.subs, self.den = m, width, subs, den
        self._powers: dict = {}
        self._images: dict = {}
        self._decoded: dict = {}

    def _power(self, i: int, e: int) -> dict:
        """S_i^e (e >= 1), by squaring from the powers formed before."""
        if e == 1:
            return self.subs[i]
        got = self._powers.get((i, e))
        if got is None:
            if e % 2:
                got = _product(self._power(i, e - 1), self.subs[i])
            else:
                half = self._power(i, e // 2)
                got = _product(half, half)
            self._powers[(i, e)] = got
        return got

    def _image(self, exps: tuple) -> list:
        """The (packed monomial, int) terms of prod_i S_i^(alpha_i)."""
        got = self._images.get(exps)
        if got is None:
            prod = {0: 1}
            for i, e in enumerate(exps):
                if e:
                    prod = _product(prod, self._power(i, e))
            got = self._images[exps] = list(prod.items())
        return got

    def _emit(self, acc: dict, scale: int) -> Poly:
        """The ``Poly`` in y_1..y_m of the nonzero ints of ``acc`` over
        ``scale``: each coefficient an int when integral, else one
        ``Fraction``."""
        w, mask, m, decoded = self.width, (1 << self.width) - 1, self.m, self._decoded
        terms = {}
        for key, v in acc.items():
            if v:
                exps = decoded.get(key)
                if exps is None:
                    exps = decoded[key] = tuple((key >> (w * i)) & mask for i in range(m))
                q, r = divmod(v, scale)
                terms[exps] = Fraction(v, scale) if r else q
        p = Poly(m)
        p.terms = terms
        return p

    def combine(self, polys, cols, wden: int) -> list[Poly]:
        """As many polynomials as ``polys``: output i is
        (1 / wden) sum_j w polys[j](S / D) over the int weights (i, w) in
        ``cols[j]``.  The terms of ``polys`` are cleared to ints once
        (``_cleared_terms``, lifted by ``_lifted_terms``: c x^alpha becomes
        c L D^(T - |alpha|) over the scale L D^T), the weighted sums of a monomial's int coefficients
        multiply its image, and each coefficient is divided by wden L D^T
        at the end.  ``polys`` may be the components of several fields, so
        no field's kept clearing is read."""
        terms, scale = _lifted_terms(_cleared_terms(polys), self.den)
        outs: list[dict] = [{} for _ in polys]
        for exps, _, nums in terms:
            sums: dict = {}
            for j, num in nums:
                for i, w in cols[j]:
                    sums[i] = sums.get(i, 0) + w * num
            image = self._image(exps)
            for i, v in sums.items():
                if v:
                    acc = outs[i]
                    get = acc.get
                    for key, f in image:
                        acc[key] = get(key, 0) + v * f
        return [self._emit(acc, wden * scale) for acc in outs]


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
    expanded, k_i running over 0..min(alpha_i, order), as no slice above
    the order is asked for; every other variable keeps k_i = alpha_i, and
    its degree starts the partial products.  A partial product is dropped
    once its degree passes the highest degree asked for, or once the
    variables left can no longer lift it to the lowest, so a monomial of
    high degree never forms its full product.
    """

    __slots__ = ("n", "width", "order", "den", "shift", "_monos", "_factors")

    def __init__(self, n: int, point, order: int):
        _sizes(order=order)
        if order < 0:
            raise OrderOverflow(f"Taylor order must be >= 0, got {order}")
        point = _exact_vector(point, "point", n)
        self.n, self.order, self.width = n, order, _pack_width(order)
        (self.shift,), self.den = _cleared([point])
        # exponent tuple -> its record; (i, e) -> its ``_expansion`` triples
        self._monos: dict = {}
        self._factors: dict = {}

    def monomial(self, exps: tuple) -> tuple:
        """The record of the monomial x^alpha, alpha = ``exps``: its degree
        |alpha|, the degree of its unshifted variables (the degrees of its
        nonzero slices run from this one to |alpha|), its slices by degree,
        the packed monomial of its unshifted variables, the expansion
        triples of each shifted one, and the most that those can add to a
        degree (each expanded through the order only)."""
        got = self._monos.get(exps)
        if got is None:
            w, shift = self.width, self.shift
            key = low = reach = 0
            active = []
            for i, e in enumerate(exps):
                if e:
                    if shift[i]:
                        triples = self._expansion(i, e)
                        active.append(triples)
                        reach += triples[-1][0]
                    else:
                        low += e
                        key += e << (w * i)
            got = self._monos[exps] = (sum(exps), low, {}, key, active, reach)
        return got

    def form(self, record: tuple, lo: int, hi: int) -> None:
        """Fill in, from one pass of partial products, the slices of degrees
        ``lo``..``hi`` that the monomial of ``record`` lacks; lo..hi lies
        within the degrees of its nonzero slices."""
        deg, low, slices, key, active, room = record
        partial = [(key, self.den**low, low)]
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
        """The (k, factor, packed x_i^k) triples, k = 0..min(e, order), of
        (x_i + P_i/D)^e D^e = sum_k C(e, k) P_i^(e-k) D^k x_i^k: no slice
        above the order is asked for, so no higher k is formed."""
        got = self._factors.get((i, e))
        if got is None:
            p, den, at = self.shift[i], self.den, self.width * i
            got = self._factors[(i, e)] = [
                (j, comb(e, j) * p ** (e - j) * den**j, j << at)
                for j in range(min(e, self.order) + 1)
            ]
        return got


class _TaylorParts:
    """A Taylor field about a point kept as its homogeneous parts in ints,
    the one leaf of the flag engine's store (``_Graded``).

    ``part(d)`` is the degree-d part times ``scale``, a nonzero int that is
    the same for every part: a list of n dicts from packed monomials to
    nonzero ints, the exponent of x_{i+1} in bits [w*i, w*(i+1)) of a key,
    w = ``width``.  ``top`` is a degree above which every part is zero, and
    no part above the order the leaf was made for may be asked for.  A part
    is given at construction (``parts``, as ``jetalg._taylor_fields`` gives
    every part of a jet's leaf) or formed once, when first asked for, from
    ``terms`` about the shared ``_Expansion`` ``about``: per monomial that
    has a slice of degree <= the order, its degree, its lowest degree, its
    slices, its record and the (component, int coefficient) pairs that hold
    it, each slice times its coefficient adding to a part.  ``expand(lo,
    hi)`` forms the parts of degrees lo..hi together from those terms, and
    ``PolyField.taylor``, ``jetalg.jet_of_frame`` and the flag engine (one
    degree at a time, as ``part``) all read it.
    """

    __slots__ = ("n", "width", "top", "scale", "_about", "_terms", "_parts")

    def __init__(self, n: int, width: int, top: int, scale: int, about=None, terms=(), parts=None):
        self.n, self.width, self.top, self.scale = n, width, top, scale
        self._about, self._terms = about, terms
        self._parts = {} if parts is None else parts

    def part(self, d: int) -> list[dict]:
        got = self._parts.get(d)
        if got is None:
            got = self._parts[d] = self.expand(d, d)
        return got

    def expand(self, lo: int, hi: int) -> list[dict]:
        """The parts of degrees ``lo``..``hi`` together, times ``scale``,
        formed from the terms: per component a dict from packed monomials to
        nonzero ints.  A leaf given its parts has no terms, and only
        ``part`` reads it."""
        out: list[dict] = [{} for _ in range(self.n)]
        for deg, low, slices, record, terms in self._terms:
            first, last = lo if lo > low else low, hi if hi < deg else deg
            for d in range(first, last + 1):
                got = slices.get(d)
                if got is None:
                    self._about.form(record, first, last)
                    got = slices[d]
                for i, num in terms:
                    acc = out[i]
                    for key, f in got:
                        acc[key] = acc.get(key, 0) + num * f
        return [{m: c for m, c in acc.items() if c} if acc else acc for acc in out]

    def decode(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        w, mask = self.width, (1 << self.width) - 1
        return tuple((key >> (w * i)) & mask for i in range(self.n))


def _taylor_leaves(fields, point, order: int) -> list[_TaylorParts]:
    """The ``_TaylorParts`` of ``fields`` (``PolyField``s on one R^n, at
    least one) about ``point`` to ``order``, sharing one ``_Expansion``,
    which goes when they go.

    With D the common denominator of the point, L the lcm of a field's
    coefficient denominators and T its top degree, the field's ``scale`` is
    L D^T and its leaf is ``scale`` times its Taylor polynomial: a term
    c x^alpha contributes c L D^(T - |alpha|), an int, times each slice of
    x^alpha.  The ints c L are the field's kept clearing
    (``PolyField._clearing``), formed on its first call whatever the point,
    and only their lift by D (``_lifted_terms``) is done per call.  The
    terms are grouped by monomial, so each slice is looked up once per
    field and degree.
    """
    about = _Expansion(fields[0].n, point, order)
    records, monomial = about._monos, about.monomial
    leaves = []
    for field in fields:
        cleared = field._clearing
        lifted, scale = _lifted_terms(cleared, about.den)
        top = cleared[2]
        terms = []
        for exps, deg, nums in lifted:
            record = records.get(exps) or monomial(exps)
            low, slices = record[1], record[2]
            if low <= order:
                terms.append((deg, low, slices, record, nums))
        leaves.append(_TaylorParts(about.n, about.width, min(top, order), scale, about, terms))
    return leaves


def _recombined(leaves, coeffs) -> _TaylorParts:
    """The leaf of sum_j coeffs[j] L_j, for exact ``coeffs`` not all zero
    and leaves L_j of one ``_taylor_leaves`` call, each read as the int
    field it holds (its field times its ``scale``): the leaves' terms times
    the coefficients cleared to ints over one denominator
    (``linalg._cleared``), which is its ``scale``.  The leaves' terms are
    merged monomial by monomial, keyed by the identity of the record of
    their shared expansion, so a slice is still formed once for all of
    them."""
    (weights,), scale = _cleared([coeffs])
    # per record, by identity: a term of it and its summed int coefficients
    # by component
    merged: dict = {}
    for weight, leaf in zip(weights, leaves):
        if weight:
            for term in leaf._terms:
                acc = merged.setdefault(id(term[3]), (term, {}))[1]
                for i, num in term[4]:
                    acc[i] = acc.get(i, 0) + weight * num
    terms = []
    for term, acc in merged.values():
        nums = [(i, c) for i, c in acc.items() if c]
        if nums:
            terms.append(term[:4] + (nums,))
    top = max(leaf.top for weight, leaf in zip(weights, leaves) if weight)
    first = leaves[0]
    return _TaylorParts(first.n, first.width, top, scale, first._about, terms)


class _Part:
    """One homogeneous part of an engine field: per component a dict from
    packed monomials to nonzero ints (``polyfields._TaylorParts``), whether
    they are all empty, and, once the part is differentiated, per component
    its derivative terms by direction."""

    __slots__ = ("comps", "zero", "derivs")

    def __init__(self, comps: list[dict]):
        self.comps = comps
        self.zero = not any(comps)
        self.derivs = None


class _Graded:
    """The graded store of the flag engine.

    Every field is kept as its homogeneous parts by degree, and a part is
    formed only when it is asked for, once per (expression, degree).  Leaf
    ``X_g`` is ``leaves[g - 1]``.  The degree-d part of [A, B] is

        sum over a + b = d + 1 of  A_a(B_b) - B_b(A_a),

    V(p) = sum_j V^j d_j p, so it needs the parts of degree <= d + 1 of A
    and B; a length-m sub-bracket of a value of length s is asked for no
    degree above s - m.  ``top(expr)`` bounds the degrees that can be
    nonzero (a bracket drops one degree), and a part above it is not
    formed.  Monomials are packed ints, so a product of monomials is one
    int addition.
    """

    def __init__(self, leaves):
        self.leaves = leaves
        self.n, self.width = leaves[0].n, leaves[0].width
        self.mask = (1 << self.width) - 1
        self.ones = [1 << (self.width * j) for j in range(self.n)]
        self.parts: dict[tuple[BracketExpr, int], _Part] = {}
        self.tops: dict[BracketExpr, int] = {}
        self.empty = _Part([{} for _ in range(self.n)])

    def top(self, expr: BracketExpr) -> int:
        got = self.tops.get(expr)
        if got is None:
            if expr.is_leaf:
                got = self.leaves[expr.gen - 1].top
            else:
                got = self.top(expr.left) + self.top(expr.right) - 1
            self.tops[expr] = got
        return got

    def part(self, expr: BracketExpr, d: int) -> _Part:
        """The degree-``d`` part of ``expr``, formed on the first call."""
        if d > self.top(expr):
            return self.empty
        key = (expr, d)
        got = self.parts.get(key)
        if got is None:
            got = self.parts[key] = self._form(expr, d)
        return got

    def value(self, expr: BracketExpr) -> tuple[int, ...]:
        """The value of ``expr`` at the centre: its degree-0 part."""
        return tuple(c.get(0, 0) for c in self.part(expr, 0).comps)

    def vanishes(self, expr: BracketExpr, through: int) -> bool:
        """Whether every part of ``expr`` of degree <= ``through`` is zero,
        asking for one degree at a time."""
        return all(self.part(expr, d).zero for d in range(min(through, self.top(expr)) + 1))

    def _form(self, expr: BracketExpr, d: int) -> _Part:
        if expr.is_leaf:
            return _Part(self.leaves[expr.gen - 1].part(d))
        left, right = expr.left, expr.right
        # per pair of nonzero parts (A_a, B_b): A_a times the derivatives of
        # B_b, and B_b times those of A_a with the sign flipped
        products = []
        for a in range(max(0, d + 1 - self.top(right)), min(d + 1, self.top(left)) + 1):
            b_part = self.part(right, d + 1 - a)
            if not b_part.zero:
                a_part = self.part(left, a)
                if not a_part.zero:
                    products.append((1, a_part.comps, self._derivs(b_part)))
                    products.append((-1, b_part.comps, self._derivs(a_part)))
        comps = []
        for i in range(self.n):
            acc: dict = {}
            get = acc.get
            for sign, mults, derivs in products:
                for j, row in derivs[i]:
                    mult = mults[j]
                    if mult:
                        for dm, dc in row:
                            dc *= sign
                            for m, c in mult.items():
                                m += dm
                                acc[m] = get(m, 0) + dc * c
            comps.append({m: c for m, c in acc.items() if c})
        return _Part(comps)

    def _derivs(self, part: _Part) -> list:
        """Per component of ``part``, the (direction j, [(monomial, coefficient)])
        pairs of its nonzero d_j; formed once per part."""
        if part.derivs is None:
            w, mask, ones = self.width, self.mask, self.ones
            part.derivs = []
            for comp in part.comps:
                by_dir: dict = {}
                for m, c in comp.items():
                    rest, j = m, 0
                    while rest:
                        e = rest & mask
                        if e:
                            by_dir.setdefault(j, []).append((m - ones[j], c * e))
                        rest >>= w
                        j += 1
                part.derivs.append(list(by_dir.items()))
        return part.derivs


@dataclass(frozen=True, eq=False, repr=False)
class PolyField(_Vector):
    """Vector field sum(comps[j] * d_{j+1}) with polynomial coefficients: n
    ``Poly``s in n variables (``_Vector``).

    It keeps one thing past a call, its clearing, which depends on it
    alone; neither ``==``, ``hash``, ``repr`` nor its pickle sees it."""

    comps: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "comps", self._read(self.comps))

    @cached_property
    def _clearing(self) -> tuple[list, int, int]:
        """The components' terms cleared to ints (``_cleared_terms``),
        formed on first use and kept: nothing mutates a component's
        ``terms`` after construction."""
        return _cleared_terms(self.comps)

    def __getstate__(self) -> dict:
        """The pickled state: ``comps`` alone, not the clearing."""
        return {"comps": self.comps}

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
        lin = tuple(tuple(map(Fraction, row)) for row in _exact_matrix(linear, "linear part", n, n))
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
        rows, den = self._inverse_rows()
        n = self.n
        return AffineMap(
            tuple(tuple(Fraction(x, den) for x in row[:n]) for row in rows),
            tuple(Fraction(row[n], den) for row in rows),
        )

    def _inverse_rows(self) -> tuple[list[list[int]], int]:
        """The inverse map x = (M y + s) / D as the int rows (M_i, s_i) and
        D: the first n rows of the int inverse (``linalg._int_inverse``) of
        the square matrix ((linear, shift), (0, 1)).  A singular linear part
        raises ``DomainError``."""
        n = self.n
        rows = [(*row, s) for row, s in zip(self.linear, self.shift)]
        got = linalg._int_inverse([*rows, (0,) * n + (1,)])
        if got is None:
            raise DomainError("affine map has singular linear part")
        mat, den = got
        return mat[:n], den


def _moved(fr: Frame, forms, den: int, cols, wden: int) -> Frame:
    """The frame whose components, numbered field by field as those of
    ``fr`` are, are ``_Substitution.combine`` (weights ``cols`` over
    ``wden``) of the components of ``fr`` under the substitution
    x_i := (sum_m forms[i][m] y_{m+1} + forms[i][n]) / den, for int
    ``forms``.  The packed width is that of the frame's top degree, which
    an affine substitution does not raise."""
    n = fr.n
    polys = [c for f in fr.fields for c in f.comps]
    width = _pack_width(max((sum(exps) for p in polys for exps in p.terms), default=0))
    keys = [1 << (width * m) for m in range(n)] + [0]
    subs = [{key: x for key, x in zip(keys, row) if x} for row in forms]
    comps = _Substitution(n, width, subs, den).combine(polys, cols, wden)
    return Frame(n, tuple(PolyField(tuple(comps[j : j + n])) for j in range(0, len(polys), n)))


def pushforward(fr: Frame, a: AffineMap) -> Frame:
    """Pushforward (a_* X)(y) = L . X(a^{-1} y) computed exactly.

    The inverse map is read once as an int matrix and shift over one
    denominator D, and the linear part L as an int matrix over one
    denominator.  One ``_Substitution`` substitutes the inverse into every
    component of every field and combines each field's components by L,
    in ints, forming each power of the substituted forms once per call;
    one ``Fraction`` per output coefficient is formed at the end."""
    if a.n != fr.n:
        raise DomainError("affine map dimension does not match the frame")
    n = fr.n
    rows, den = a._inverse_rows()
    linear, lden = _cleared(a.linear)
    # component j of a field, numbered f + j, enters its component i with
    # weight L[i][j]
    cols = [
        [(f + i, linear[i][j]) for i in range(n) if linear[i][j]]
        for f in range(0, fr.k * n, n)
        for j in range(n)
    ]
    return _moved(fr, rows, den, cols, lden)


def frame_change(fr: Frame, g) -> Frame:
    """Constant recombination fr . G: new field m is sum_j G[j][m] X_j.
    An entry of G that is not exact, a float included, raises
    ``DomainError`` naming it.

    G is read once as an int matrix over one denominator
    (``linalg._cleared``), its determinant is taken on those ints
    (``linalg._int_det``), and every component of every new field is an
    int combination of the components of the fields
    (``_Substitution.combine`` under the identity substitution), with one
    ``Fraction`` per output coefficient at the end."""
    k, n = fr.k, fr.n
    rows, den = _cleared(_exact_matrix(g, "change matrix", k, k))
    if linalg._int_det(rows) == 0:
        raise DomainError("frame change matrix is singular")
    identity = [[int(i == m) for m in range(n + 1)] for i in range(n)]
    # component i of field j enters component i of field m with weight G[j][m]
    cols = [
        [(m * n + i, rows[j][m]) for m in range(k) if rows[j][m]]
        for j in range(k)
        for i in range(n)
    ]
    return _moved(fr, identity, 1, cols, den)
