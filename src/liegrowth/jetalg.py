"""Exact symbolic algebra of jet coordinates.

A jet coordinate ``u^j_{i,I}`` records the partial derivative with unordered
multi-index ``I`` (a sorted tuple of direction indices in 1..n) of component
``j`` of the ``i``-th frame field.  Differential polynomials carry ambient
parameters ``(k, n, r)``: up to ``k`` fields, ``n`` coordinates, derivative
data of order at most ``r - 1``.

Bracket convention used throughout: ``bracket((b1, ..., bl))`` is the symbol
of ``[F_b1, [F_b2, [... [F_b{l-1}, F_bl] ...]]]`` -- the leftmost index is the
outermost field.  Swapping the last two entries flips the sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from math import prod as _prod
from typing import NamedTuple

from .errors import (
    DomainError,
    IncompleteJet,
    OrderOverflow,
)
from .polyfields import Frame

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


def _coeff(c):
    """Exact coefficients only: ints stay ints, rationals stay Fractions."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise DomainError(f"coefficients must be exact rationals, got {type(c).__name__}")


class DiffPoly:
    """Sparse polynomial in jet coordinates with exact rational coefficients.

    ``terms`` maps monomials (tuples of JetVar, canonically sorted) to nonzero
    int or Fraction coefficients.
    """

    __slots__ = ("k", "n", "r", "terms")

    def __init__(self, k: int, n: int, r: int, terms=None):
        self.k = k
        self.n = n
        self.r = r
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _coeff(c)
                if c != 0:
                    acc = clean.get(mono, 0) + c
                    if acc == 0:
                        clean.pop(mono, None)
                    else:
                        clean[mono] = acc
        self.terms = clean

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

    def _compat(self, other: DiffPoly):
        if (self.k, self.n, self.r) != (other.k, other.n, other.r):
            raise DomainError("mixing differential polynomials of different ambients")

    def __add__(self, other: DiffPoly) -> DiffPoly:
        self._compat(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            v = out.get(mono, 0) + c
            if v == 0:
                out.pop(mono, None)
            else:
                out[mono] = v
        p = DiffPoly(self.k, self.n, self.r)
        p.terms = out
        return p

    def __neg__(self) -> DiffPoly:
        p = DiffPoly(self.k, self.n, self.r)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: DiffPoly) -> DiffPoly:
        return self + (-other)

    def __mul__(self, other) -> DiffPoly:
        if not isinstance(other, DiffPoly):
            c = _coeff(other)
            p = DiffPoly(self.k, self.n, self.r)
            if c != 0:
                p.terms = {m: v * c for m, v in self.terms.items()}
            return p
        self._compat(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                v = out.get(mono, 0) + c1 * c2
                if v == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = v
        p = DiffPoly(self.k, self.n, self.r)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffPoly)
            and (self.k, self.n, self.r) == (other.k, other.n, other.r)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, self.n, self.r, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        out = 0
        for mono in self.terms:
            for v in mono:
                if len(v.idx) > out:
                    out = len(v.idx)
        return out

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
    if p.order() > p.r - 2:
        raise OrderOverflow(
            f"cannot derive a polynomial of order {p.order()} inside order-{p.r - 1} jets"
        )
    out: dict = {}
    for mono, c in p.terms.items():
        for pos, v in enumerate(mono):
            nv = JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))
            new = tuple(sorted(mono[:pos] + (nv,) + mono[pos + 1 :]))
            acc = out.get(new, 0) + c
            if acc == 0:
                out.pop(new, None)
            else:
                out[new] = acc
    q = DiffPoly(p.k, p.n, p.r)
    q.terms = out
    return q


def _acc_product(acc: dict, t1: dict, t2: dict, sign: int) -> None:
    """acc += sign * (poly t1) * (poly t2), merging into one dict."""
    for m1, c1 in t1.items():
        sc = sign * c1
        for m2, c2 in t2.items():
            mono = tuple(sorted(m1 + m2))
            acc[mono] = acc.get(mono, 0) + sc * c2


def _derive_all(p: DiffPoly) -> list[dict]:
    """Term dicts of D_1(p), ..., D_n(p) in one pass."""
    outs: list[dict] = [{} for _ in range(p.n)]
    for mono, c in p.terms.items():
        for pos, v in enumerate(mono):
            head = mono[:pos]
            tail = mono[pos + 1 :]
            for t in range(1, p.n + 1):
                nv = JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))
                new = tuple(sorted(head + (nv,) + tail))
                out = outs[t - 1]
                out[new] = out.get(new, 0) + c
    return outs


def diffvec_bracket(a: DiffVec, b: DiffVec) -> DiffVec:
    """Symbol-level bracket [A, B]^i = sum_j (A^j D_j(B^i) - B^j D_j(A^i))."""
    if (a.k, a.n, a.r) != (b.k, b.n, b.r):
        raise DomainError("bracket of vectors over different ambients")
    top = max(a.order(), b.order())
    if top > a.r - 2:
        raise OrderOverflow(
            f"cannot derive order-{top} components inside order-{a.r - 1} jets"
        )
    n = a.n
    comps = []
    for i in range(n):
        acc: dict = {}
        db = _derive_all(b.comps[i])
        da = _derive_all(a.comps[i])
        for j in range(n):
            if a.comps[j].terms and db[j]:
                _acc_product(acc, a.comps[j].terms, db[j], 1)
            if b.comps[j].terms and da[j]:
                _acc_product(acc, b.comps[j].terms, da[j], -1)
        p = DiffPoly(a.k, a.n, a.r)
        p.terms = {m: c for m, c in acc.items() if c != 0}
        comps.append(p)
    return DiffVec(comps)


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
            val = acc.get(key, 0) + coeff
            if val == 0:
                acc.pop(key, None)
            else:
                acc[key] = val
        else:
            term = DiffPoly(p.k, p.n, p.r, {tuple(sorted(kept)): coeff})
            for q in poly_factors:
                term = term * q
            out = out + term
    base = DiffPoly(p.k, p.n, p.r)
    base.terms = acc
    return out + base


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
    # accumulate a single integer numerator.
    denom, ints = jet._ints()
    cden = 1
    for c in p.terms.values():
        d = c.denominator
        if d != 1:
            cden = cden * d // gcd(cden, d)
    maxdeg = max(map(len, p.terms), default=0)
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
    if vec.order() > jet.order:
        raise IncompleteJet(
            f"vector of order {vec.order()} needs jet order >= that, got {jet.order}"
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


def jet_of_frame(frame: Frame, point, order: int) -> JetPoint:
    """All partial derivatives of the frame coefficients up to ``order``,
    evaluated exactly at ``point``.
    """
    n = frame.n
    k = frame.k
    base = tuple(Fraction(x) for x in point)
    if len(base) != n:
        raise DomainError("point dimension does not match the frame")
    values: dict[JetVar, Fraction] = {}
    for fld in range(1, k + 1):
        for comp in range(1, n + 1):
            poly = frame.fields[fld - 1].comps[comp - 1]
            stack = {(): poly}
            values[JetVar(fld, comp, ())] = poly.eval_at(base)
            for ln in range(1, order + 1):
                new_stack = {}
                for idx in itertools.combinations_with_replacement(
                    range(1, n + 1), ln
                ):
                    parent = idx[:-1]
                    dp = stack[parent].derivative(idx[-1])
                    new_stack[idx] = dp
                    values[JetVar(fld, comp, idx)] = dp.eval_at(base)
                stack = new_stack
    return JetPoint(k, n, order, base, values)
