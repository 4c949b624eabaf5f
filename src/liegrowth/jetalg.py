"""Exact symbolic algebra of jet coordinates.

A jet coordinate ``u^j_{i,I}`` records the partial derivative with unordered
multi-index ``I`` (a sorted tuple of direction indices in 1..n) of component
``j`` of the ``i``-th frame field.  Differential polynomials carry ambient
parameters ``(k, n, r)``: up to ``k`` fields, ``n`` coordinates, derivative
data of order at most ``r - 1``.

``DiffPoly`` is the jet-coordinate instance of the sparse ring in
``polyfields._SparsePoly``: its monomials are sorted tuples of ``JetVar`` and
its ``_act`` applies a vector V to a polynomial through the total
derivatives, sum_t V^t D_t p; ``derive`` is the action of one coordinate
field.  Add, multiply and the bracket are the shared ones: ``diffvec_bracket``
checks the ambient and the order and returns the components of
``polyfields._bracket``, the one Lie-bracket kernel, A(B^i) - B(A^i), which it
shares with ``poly_lie_bracket``.  ``jet_of_frame`` reads the jet of a frame
off its Taylor fields (``PolyField.taylor``) instead of differentiating, and
hands its complete, canonical dict to ``JetPoint`` without the re-validation
a user-built jet point gets.  ``_taylor_fields`` is the inverse read-off: the
Taylor fields a jet fixes, u^i_{a,alpha} / alpha! being the coefficient of
x^alpha, which ``flags.formal_flag`` brackets.  Both walk one table of
multi-indices, ``_multi_indices``.

The symbol core does no work twice.  ``_act`` looks the successors
``(D_1 v, ..., D_n v)`` of a coordinate up in a table keyed by ``n`` and
filled as coordinates occur, builds the rest of a monomial once per position,
and forms each product key by one sort of the rest, the successor and the
multiplier's monomial; no per-direction derivative dict is built.  A
``DiffPoly`` carries its order: the first ``order()`` computes it from the
distinct coordinates and keeps it, so the order checks of ``derive``,
``diffvec_bracket`` and ``evaluate`` cost O(1) afterwards.  It carries the
lcm of its coefficient denominators and its largest degree the same way, for
``evaluate``, so a symbol evaluated at many jets walks its terms for them
once.  Nothing mutates ``terms`` after construction (``_like`` assigns them
before any ``order()`` or ``evaluate`` call).

Bracket convention used throughout: ``bracket((b1, ..., bl))`` is the symbol
of ``[F_b1, [F_b2, [... [F_b{l-1}, F_bl] ...]]]`` -- the leftmost index is the
outermost field.  Swapping the last two entries flips the sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm
from math import prod as _prod
from typing import NamedTuple

from .errors import (
    DomainError,
    IncompleteJet,
    OrderOverflow,
)
from .polyfields import Frame, Poly, PolyField, _bracket, _coeff, _SparsePoly

__all__ = [
    "DiffPoly",
    "DiffVec",
    "JetPoint",
    "JetVar",
    "bracket",
    "bracket_of_expr",
    "derive",
    "diffvec_bracket",
    "evaluate",
    "jet_of_frame",
    "pure_derivative_extract",
    "pure_t_vars",
    "substitute",
]

class JetVar(NamedTuple):
    """Coordinate u^comp_{field, idx}; ``idx`` is kept sorted."""

    field: int
    comp: int
    idx: tuple[int, ...]

    def __str__(self) -> str:
        if self.idx:
            sub = ",".join(str(i) for i in self.idx)
            return f"u^{self.comp}_{self.field},({sub})"
        return f"u^{self.comp}_{self.field}"


def _var_sort_key(v: JetVar):
    return (v.field, v.comp, len(v.idx), v.idx)


def _mono_sort_key(mono):
    return (len(mono), tuple(_var_sort_key(v) for v in mono))


# n -> {v: (D_1 v, ..., D_n v)}, filled as coordinates occur.  The successors
# depend on v and n alone, so one table serves every polynomial.
_SUCCESSORS: dict[int, dict[JetVar, tuple[JetVar, ...]]] = {}


class DiffPoly(_SparsePoly):
    """Sparse polynomial in jet coordinates with exact rational coefficients.

    ``terms`` maps monomials (tuples of JetVar, canonically sorted) to nonzero
    int or Fraction coefficients.
    """

    __slots__ = ("k", "n", "r", "_order", "_scale")

    def __init__(self, k: int, n: int, r: int, terms=None):
        self.k = k
        self.n = n
        self.r = r
        self._order = self._scale = None
        super().__init__(terms)

    @property
    def _ambient(self) -> tuple[int, int, int]:
        return (self.k, self.n, self.r)

    @staticmethod
    def _times(m1, monos):
        """The monomials m1 * m for m in ``monos``: sorted concatenations."""
        return map(tuple, map(sorted, map(m1.__add__, monos)))

    @staticmethod
    def zero(k: int, n: int, r: int) -> DiffPoly:
        return DiffPoly(k, n, r)

    @staticmethod
    def const(c, k: int, n: int, r: int) -> DiffPoly:
        return DiffPoly(k, n, r, {(): c})

    @staticmethod
    def var(fld: int, comp: int, idx, k: int, n: int, r: int) -> DiffPoly:
        v = make_var(fld, comp, idx, k, n, r)
        return DiffPoly(k, n, r, {(v,): 1})

    @staticmethod
    def _grade(comps, cap=None) -> list:
        """Per component, its (monomials, coefficients); symbols are exact,
        so ``cap`` is unused."""
        return [tuple(p.terms.items()) for p in comps]

    def _act(self, acc: dict, graded: list, sign: int = 1, cap=None) -> None:
        """acc += sign * sum_t V^t * D_t(self) for the components V^t of a
        vector as ``_grade`` lists them: each derivative term, a coordinate v
        replaced by its successor D_t v from ``_SUCCESSORS``, is formed once
        and multiplied straight into ``acc``, its key sorted together with
        the multiplier's monomial; cancelled coefficients stay as zeros."""
        n = self.n
        succ = _SUCCESSORS.setdefault(n, {})
        for mono, c in self.terms.items():
            sc = sign * c
            for pos, v in enumerate(mono):
                nvs = succ.get(v)
                if nvs is None:
                    nvs = succ[v] = tuple(
                        JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))
                        for t in range(1, n + 1)
                    )
                rest = mono[:pos] + mono[pos + 1 :]
                for nv, mult in zip(nvs, graded):
                    head = rest + (nv,)
                    for m2, c2 in mult:
                        key = tuple(sorted(head + m2))
                        acc[key] = acc.get(key, 0) + sc * c2

    def order(self) -> int:
        """Largest multi-index length among the coordinates present; computed
        on the first call and carried from then on."""
        if self._order is None:
            self._order = max(
                (len(v.idx) for v in set().union(*self.terms)), default=0
            )
        return self._order

    def variables(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            body = "*".join(str(v) for v in mono) if mono else "1"
            if abs(c) == 1 and mono:
                s = body
            else:
                s = f"{abs(c)}*{body}" if mono else str(abs(c))
            if not parts:
                parts.append(s if c > 0 else f"-{s}")
            else:
                parts.append(f" + {s}" if c > 0 else f" - {s}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


def make_var(fld: int, comp: int, idx, k: int, n: int, r: int) -> JetVar:
    idx = tuple(sorted(idx))
    if not 1 <= fld <= k:
        raise DomainError(f"field index {fld} out of range 1..{k}")
    if not 1 <= comp <= n:
        raise DomainError(f"component {comp} out of range 1..{n}")
    if any(not 1 <= t <= n for t in idx):
        raise DomainError(f"derivative direction out of range in {idx}")
    if len(idx) > r - 1:
        raise OrderOverflow(f"multi-index {idx} exceeds jet order {r - 1}")
    return JetVar(fld, comp, idx)


class DiffVec:
    """n-tuple of differential polynomials, read as sum(comps[i] * d_{i+1})."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise DomainError("empty differential vector")
        k, n, r = comps[0].k, comps[0].n, comps[0].r
        if len(comps) != n:
            raise DomainError(f"expected {n} components, got {len(comps)}")
        for c in comps:
            if (c.k, c.n, c.r) != (k, n, r):
                raise DomainError("components disagree on ambient parameters")
        self.comps = comps

    @property
    def k(self) -> int:
        return self.comps[0].k

    @property
    def n(self) -> int:
        return self.comps[0].n

    @property
    def r(self) -> int:
        return self.comps[0].r

    @staticmethod
    def zero(k: int, n: int, r: int) -> DiffVec:
        return DiffVec(tuple(DiffPoly.zero(k, n, r) for _ in range(n)))

    def __add__(self, other: DiffVec) -> DiffVec:
        return DiffVec(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: DiffVec) -> DiffVec:
        return DiffVec(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> DiffVec:
        return DiffVec(tuple(-a for a in self.comps))

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffVec) and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def order(self) -> int:
        return max(c.order() for c in self.comps)

    def __str__(self) -> str:
        parts = [f"({c})*d{i + 1}" for i, c in enumerate(self.comps) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def derive(p: DiffPoly, t: int) -> DiffPoly:
    """Directional derivation D_t: linear, Leibniz, appends ``t`` to the
    multi-index of each coordinate.  Undefined at the top order.
    """
    if not 1 <= t <= p.n:
        raise DomainError(f"direction {t} out of range 1..{p.n}")
    order = p.order()
    if order > p.r - 2:
        raise OrderOverflow(
            f"cannot derive a polynomial of order {order} inside order-{p.r - 1} jets"
        )
    return p._along(t, DiffPoly.const(1, p.k, p.n, p.r))


def diffvec_bracket(a: DiffVec, b: DiffVec) -> DiffVec:
    """Symbol-level bracket [A, B]^i = sum_j (A^j D_j(B^i) - B^j D_j(A^i))."""
    if (a.k, a.n, a.r) != (b.k, b.n, b.r):
        raise DomainError("bracket of vectors over different ambients")
    top = max(a.order(), b.order())
    if top > a.r - 2:
        raise OrderOverflow(
            f"cannot derive order-{top} components inside order-{a.r - 1} jets"
        )
    return DiffVec(_bracket(a.comps, b.comps))


def _field_vec(a: int, k: int, n: int, r: int) -> DiffVec:
    return DiffVec(
        tuple(DiffPoly.var(a, i, (), k, n, r) for i in range(1, n + 1))
    )


def bracket(index, k: int, n: int, r: int) -> DiffVec:
    """Fully expanded symbol of the iterated bracket named by ``index``.

    ``index`` lists field indices; the leftmost is outermost.  Length 1 gives
    the 0-jet vector of that field; longer indices wrap one field at a time.
    """
    index = tuple(index)
    if len(index) == 0:
        raise DomainError("bracket needs a nonempty multi-index")
    if len(index) > r:
        raise OrderOverflow(f"length {len(index)} exceeds the order budget r={r}")
    for a in index:
        if not 1 <= a <= k:
            raise DomainError(f"field index {a} out of range 1..{k}")
    vec = _field_vec(index[-1], k, n, r)
    for c in reversed(index[:-1]):
        vec = diffvec_bracket(_field_vec(c, k, n, r), vec)
    return vec


def bracket_of_expr(expr, k: int, n: int, r: int) -> DiffVec:
    """Symbol of an arbitrary bracket expression tree (see freelie)."""
    if expr.length > r:
        raise OrderOverflow(f"length {expr.length} exceeds the order budget r={r}")
    if expr.is_leaf:
        if not 1 <= expr.gen <= k:
            raise DomainError(f"field index {expr.gen} out of range 1..{k}")
        return _field_vec(expr.gen, k, n, r)
    return diffvec_bracket(
        bracket_of_expr(expr.left, k, n, r), bracket_of_expr(expr.right, k, n, r)
    )


def substitute(p: DiffPoly, assignment) -> DiffPoly:
    """Replace assigned jet coordinates by rationals or differential
    polynomials; unassigned coordinates are untouched.
    """
    scalars = {}
    polys = {}
    for v, val in assignment.items():
        if isinstance(val, DiffPoly):
            polys[v] = val
        else:
            scalars[v] = _coeff(val)
    out = DiffPoly.zero(p.k, p.n, p.r)
    acc: dict = {}
    for mono, c in p.terms.items():
        coeff = c
        kept = []
        poly_factors = []
        for v in mono:
            if v in scalars:
                coeff *= scalars[v]
                if coeff == 0:
                    break
            elif v in polys:
                poly_factors.append(polys[v])
            else:
                kept.append(v)
        if coeff == 0:
            continue
        if not poly_factors:
            key = tuple(sorted(kept))
            acc[key] = acc.get(key, 0) + coeff
        else:
            term = DiffPoly(p.k, p.n, p.r, {tuple(sorted(kept)): coeff})
            for q in poly_factors:
                term = term * q
            out = out + term
    return out + p._like(acc)


def substitute_vec(vec: DiffVec, assignment) -> DiffVec:
    return DiffVec(tuple(substitute(c, assignment) for c in vec.comps))


def pure_t_vars(vec: DiffVec, t: int, m: int) -> set[JetVar]:
    """Jet coordinates present in ``vec`` whose multi-index is exactly ``m``
    copies of direction ``t``; ``m = 0`` returns the 0-jet coordinates.
    """
    target = (t,) * m
    out: set[JetVar] = set()
    for comp in vec.comps:
        for mono in comp.terms:
            for v in mono:
                if v.idx == target:
                    out.add(v)
    return out


@dataclass
class JetPoint:
    """Total rational assignment of all jet coordinates up to ``order``,
    together with the base point.
    """

    k: int
    n: int
    order: int
    base: tuple[Fraction, ...]
    values: dict[JetVar, Fraction]
    _int_view: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.base = tuple(Fraction(x) for x in self.base)
        if len(self.base) != self.n:
            raise DomainError("base point dimension mismatch")
        vals = {}
        for v, c in self.values.items():
            vals[JetVar(v.field, v.comp, tuple(sorted(v.idx)))] = Fraction(c)
        self.values = vals
        missing = []
        for v in iter_jet_vars(self.k, self.n, self.order):
            if v not in vals:
                missing.append(v)
        if missing:
            raise IncompleteJet(
                f"jet point is missing {len(missing)} coordinates, e.g. {missing[0]}"
            )

    @classmethod
    def _trusted(cls, k: int, n: int, order: int, base, values) -> JetPoint:
        """A jet point from parts that are already canonical: a tuple of
        Fractions, and a complete dict from sorted-index ``JetVar``s to
        Fractions.  Skips the checks of ``__post_init__``; only
        ``jet_of_frame`` builds such parts."""
        jet = cls.__new__(cls)
        jet.k, jet.n, jet.order, jet.base, jet.values = k, n, order, base, values
        jet._int_view = None
        return jet

    def __getitem__(self, v: JetVar) -> Fraction:
        try:
            return self.values[v]
        except KeyError:
            raise IncompleteJet(f"jet point has no coordinate {v}") from None

    def _ints(self):
        if self._int_view is None:
            denom = 1
            for c in self.values.values():
                denom = denom * c.denominator // gcd(denom, c.denominator)
            self._int_view = (
                denom,
                {v: int(c * denom) for v, c in self.values.items()},
            )
        return self._int_view


def iter_jet_vars(k: int, n: int, order: int):
    for fld in range(1, k + 1):
        for comp in range(1, n + 1):
            for ln in range(order + 1):
                for idx in itertools.combinations_with_replacement(
                    range(1, n + 1), ln
                ):
                    yield JetVar(fld, comp, idx)


def _eval_poly(p: DiffPoly, jet: JetPoint) -> Fraction:
    # Integer fast path: scale jet values and coefficients to integers, then
    # accumulate a single integer numerator.  The lcm of the coefficient
    # denominators and the largest degree are computed on the first call and
    # carried in ``_scale``, like ``_order``.
    denom, ints = jet._ints()
    if p._scale is None:
        cden = lcm(*(c.denominator for c in p.terms.values()))
        p._scale = (cden, max(map(len, p.terms), default=0))
    cden, maxdeg = p._scale
    get = ints.__getitem__
    acc = 0
    try:
        if denom == 1 and cden == 1:
            for mono, c in p.terms.items():
                acc += _prod(map(get, mono), start=c)
            return Fraction(acc)
        powers = [denom**e for e in range(maxdeg + 1)]
        for mono, c in p.terms.items():
            prod = _prod(map(get, mono), start=c if cden == 1 else int(c * cden))
            acc += prod * powers[maxdeg - len(mono)]
    except KeyError as exc:
        raise IncompleteJet(f"jet point has no coordinate {exc.args[0]}") from None
    return Fraction(acc, cden * powers[maxdeg])


def evaluate(vec: DiffVec, jet: JetPoint) -> tuple[Fraction, ...]:
    """Exact value of a differential vector on a jet point."""
    order = vec.order()
    if order > jet.order:
        raise IncompleteJet(
            f"vector of order {order} needs jet order >= that, got {jet.order}"
        )
    return tuple(_eval_poly(c, jet) for c in vec.comps)


def pure_derivative_extract(
    jet: JetPoint, fld: int, t: int, m: int
) -> tuple[Fraction, ...]:
    """The order-``m`` pure derivative column of field ``fld`` along ``t``."""
    if m > jet.order:
        raise DomainError(f"pure order {m} exceeds jet order {jet.order}")
    idx = (t,) * m
    return tuple(jet[JetVar(fld, comp, idx)] for comp in range(1, jet.n + 1))


def _multi_indices(n: int, order: int) -> list:
    """``(idx, alpha, alpha!)`` for every multi-index of length <= ``order``
    in n directions: the sorted directions of a jet coordinate, the exponents
    of the matching monomial and their factorial."""
    table = []
    for ln in range(order + 1):
        for idx in itertools.combinations_with_replacement(range(1, n + 1), ln):
            alpha = tuple(idx.count(j) for j in range(1, n + 1))
            table.append((idx, alpha, _prod(map(factorial, alpha))))
    return table


def jet_of_frame(frame: Frame, point, order: int) -> JetPoint:
    """All partial derivatives of the frame coefficients up to ``order``,
    evaluated exactly at ``point``.  They are read off the order-``order``
    Taylor fields at ``point``: the derivative along a multi-index that takes
    direction j alpha_j times is alpha! times the coefficient of x^alpha.
    """
    n = frame.n
    base = tuple(Fraction(x) for x in point)
    if len(base) != n:
        raise DomainError("point dimension does not match the frame")
    table = _multi_indices(n, order)
    values: dict[JetVar, Fraction] = {}
    for fld, f in enumerate(frame.fields, start=1):
        for comp, poly in enumerate(f.taylor(base, order).comps, start=1):
            coeff = poly.terms.get
            for idx, alpha, scale in table:
                values[JetVar(fld, comp, idx)] = Fraction(coeff(alpha, 0) * scale)
    return JetPoint._trusted(frame.k, n, order, base, values)


def _taylor_fields(jet: JetPoint, order: int) -> list[PolyField]:
    """The order-``order`` Taylor fields about the base point that ``jet``
    fixes, the inverse of ``jet_of_frame``'s read-off: component i of field a
    is sum_{|alpha| <= order} u^i_{a,alpha} / alpha! * x^alpha."""
    n, table = jet.n, _multi_indices(jet.n, order)

    def component(fld: int, comp: int) -> Poly:
        terms = {alpha: jet.values[JetVar(fld, comp, idx)] / scale for idx, alpha, scale in table}
        return Poly(n, terms)

    return [
        PolyField(tuple(component(fld, comp) for comp in range(1, n + 1)), order)
        for fld in range(1, jet.k + 1)
    ]
