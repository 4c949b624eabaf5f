"""Exact symbolic algebra of jet coordinates.

A jet coordinate ``u^j_{i,I}`` records the partial derivative with unordered
multi-index ``I`` (a sorted tuple of direction indices in 1..n) of component
``j`` of the ``i``-th frame field.  Differential polynomials carry ambient
parameters ``(k, n, r)``: up to ``k`` fields, ``n`` coordinates, derivative
data of order at most ``r - 1``.

Inside the symbol core a coordinate is an int, its code in the code table of
its ambient's ``(k, n)`` (``_Codes``).  The table is made on first use, never
at import, and grows one derivative order at a time; codes run by order
first, then by (field, comp, idx), so a code depends on ``(k, n)`` and the
coordinate alone, and a pickled polynomial means the same in any
interpreter.  The table holds the ``JetVar`` of each code and its inverse,
the successor codes (D_1 v, ..., D_n v) of every code below its top order,
and where each order starts.

One reader, ``_Codes.code``, reads every coordinate key, a ``JetVar`` or a
(field, comp, idx) triple: its index is sorted, and its field, comp and
index entries must be ints by the rule of ``linalg._sizes`` (a bool or a
float is a ``DomainError`` naming it).  ``_Codes.encode`` checks the key
against the ambient ``(k, n, r)`` before it reads it.

``DiffPoly`` is the jet-coordinate instance of the sparse ring in
``polyfields._SparsePoly``: its ``terms`` map sorted tuples of codes to
coefficients.  Its constructor takes ``JetVar`` monomials, in any order and
with indices in any order, codes each coordinate by ``_Codes.encode``, and
adds up the spellings of one monomial;
``sorted_terms``, ``variables`` and the shared ``str`` and ``repr`` decode.
``DiffVec`` is the jet instance of the one vector, ``polyfields._Vector``,
which reads its components (n differential polynomials of one ambient) and
owns its arithmetic, equality and text; it adds only ``k``, ``r``, ``zero``
and ``order``.  ``_act``
applies a vector V to a polynomial through the total derivatives,
sum_t V^t D_t p; ``derive`` is the action of one coordinate field, along a
direction that must be an int.  Add, multiply and the bracket are the shared
ones: ``diffvec_bracket`` checks the ambient and the order and returns the
components of ``polyfields._bracket``, the one exact Lie-bracket kernel,
A(B^i) - B(A^i), which it shares with ``poly_lie_bracket``.
``jet_of_frame`` reads the jet of a frame off the int parts of its Taylor
expansion (``polyfields._taylor_leaves``, one expansion of its monomials
shared by its fields) instead of differentiating: the numerator of each
value is the part's int times alpha! over the lcm of the fields' scales,
written straight into the jet's store, with no ``Fraction`` formed.
``_taylor_fields`` is the inverse read-off: the Taylor fields a jet fixes,
u^i_{a,alpha} / alpha! being the coefficient of x^alpha, as the flag
engine's one leaf, ``polyfields._TaylorParts``, given all its int parts at
once, which ``flags.formal_flag`` brackets.
Both walk one table of multi-indices by length, ``_multi_indices``, beside
the matching codes (``_Codes.run``), kept like the code tables for the
``MAX_TABLES`` most recent (n, order); the table's packed monomials come from
``polyfields._packed_index``, and the ``polyfields`` docstring describes
the packed monomial, the leaf and the graded store once.

A jet point is a frozen record that keeps its values once, as ints over
one denominator: ``_denom``, the lcm of the value denominators, and
``_nums``, per code of its ambient's table up to its order, the value times
``_denom``.  ``jet[v]`` and ``values`` (a new dict on every read) read
``Fraction``s off it; ``evaluate`` multiplies along a monomial's codes
straight out of that list, on one integer path whatever the denominators,
and ``_taylor_fields`` scales each entry to an int coefficient.  The
checked constructor reads each key by ``_Codes.code`` and each value
by the rule of ``linalg._exact`` (a float is a ``DomainError``), ignores a
key that names no coordinate the jet fixes, and refuses a missing one with
``IncompleteJet``; it and ``jet_of_frame`` both end in ``JetPoint._set``,
and from equal values they build equal jets, which hash equal.

The code tables are kept in the standard library's bounded cache
(``_codes``, a ``functools.lru_cache`` over ``_Codes``): those of the
``MAX_TABLES`` most recently used ambients stay, and an older one is
dropped; codes depend on the ambient alone, so a dropped table rebuilds
with the same codes, and a jet's store or a pickled polynomial coded
against it still reads right.  What reads codes through a
table grows it first as far as it needs (``DiffPoly._table``,
``JetPoint._table``).

The symbol core does no work twice.  ``_act`` reads the successors of a code
from the table, builds the rest of a monomial once per position, and forms
each product key by one sort of the rest, the successor and the multiplier's
monomial, all ints; no per-direction derivative dict is built.  A
``DiffPoly`` carries its order: the first ``order()`` reads the order of the
largest last code of its monomials (the highest-order coordinate, codes
running by order first) and keeps it, so the order checks of ``derive``,
``diffvec_bracket`` and ``evaluate`` cost O(1) afterwards.  It carries the
lcm of its coefficient denominators and its largest degree the same way, for
``evaluate``, so a symbol evaluated at many jets walks its terms for them
once.  Nothing mutates ``terms`` after construction (``_like`` assigns them
before any ``order()`` or ``evaluate`` call).

Bracket convention used throughout: ``bracket((b1, ..., bl))`` is the symbol
of ``[F_b1, [F_b2, [... [F_b{l-1}, F_bl] ...]]]`` -- the leftmost index is the
outermost field.  Swapping the last two entries flips the sign.  It is
``bracket_of_expr`` of ``freelie.BracketExpr.chain``, which owns the chain
and the check of every generator index; ``bracket_of_expr`` checks only that
an index names one of the k fields and that the length fits the order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, gcd, lcm
from math import prod as _prod
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DomainError,
    IncompleteJet,
    OrderOverflow,
)
from .freelie import BracketExpr
from .linalg import _cleared, _exact, _exact_vector, _mapping, _sizes, _tuple
from .polyfields import (
    _ZERO,
    Frame,
    _bracket,
    _pack_width,
    _packed_index,
    _SparsePoly,
    _taylor_leaves,
    _TaylorParts,
    _Vector,
)

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


def _mono_sort_key(mono):
    return (len(mono), tuple((v.field, v.comp, len(v.idx), v.idx) for v in mono))


class _Codes:
    """The code table of one ambient ``(k, n)``: ``vars[c]`` is the
    coordinate with code c and ``index`` the inverse, ``succ[c]`` the codes
    of its successors (D_1 v, ..., D_n v), and ``starts[m]`` the first code
    of order m.  Codes run by order first, then by (field, comp, idx), and
    the table grows one order at a time, so a code depends on k, n and the
    coordinate alone.  Successors are filled only as far as ``_act`` asks,
    so a table that only names the coordinates of a jet holds none."""

    __slots__ = ("k", "n", "vars", "index", "succ", "starts")

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.vars: list[JetVar] = []
        self.index: dict[JetVar, int] = {}
        self.succ: list[tuple[int, ...]] = []
        self.starts = [0]
        self.grow(0)

    def grow(self, order: int) -> _Codes:
        """Code every coordinate of order <= ``order``; the table itself."""
        while len(self.starts) - 2 < order:
            m, dirs = len(self.starts) - 1, range(1, self.n + 1)
            idxs = list(itertools.combinations_with_replacement(dirs, m))  # shared by all keys
            for fld in range(1, self.k + 1):
                for comp in range(1, self.n + 1):
                    for idx in idxs:
                        v = JetVar(fld, comp, idx)
                        self.index[v] = len(self.vars)
                        self.vars.append(v)
            self.starts.append(len(self.vars))
        return self

    def successors(self, order: int) -> list[tuple[int, ...]]:
        """``succ``, filled for every code of order <= ``order``."""
        self.grow(order + 1)
        index, dirs = self.index, range(1, self.n + 1)
        for v in self.vars[len(self.succ) : self.starts[order + 1]]:
            self.succ.append(
                tuple(index[JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))] for t in dirs)
            )
        return self.succ

    def run(self, fld: int, comp: int, m: int) -> range:
        """The codes of u^comp_{fld,I} for |I| = m, in the order of
        ``_multi_indices``."""
        self.grow(m)
        lo, hi = self.starts[m], self.starts[m + 1]
        size = (hi - lo) // (self.k * self.n)
        pos = (fld - 1) * self.n + comp - 1
        return range(lo + pos * size, lo + (pos + 1) * size)

    def order_of(self, code: int, r: int) -> int:
        """The order of ``code``, coding up to order ``r - 1`` to reach it."""
        while code >= len(self.vars):
            if len(self.starts) - 1 >= r:
                raise DomainError(f"code {code} names no coordinate of order below {r}")
            self.grow(len(self.starts) - 1)
        return sum(start <= code for start in self.starts) - 1

    def code(self, key) -> int | None:
        """The code of coordinate ``key``, a ``JetVar`` or a (field, comp,
        idx) triple with its index in any order, or None when the table
        has no such coordinate.  Its field, comp and index entries are read
        by the rule of ``linalg._sizes``: one that is not an int, a bool or
        a float included, raises ``DomainError`` naming it, and so does any
        other key."""
        try:
            fld, comp, idx = key
            v = JetVar(fld, comp, tuple(sorted(idx)))
            if not all(type(x) is int for x in v[:2] + v.idx):
                _sizes(**{f"{key!r} is not a jet coordinate: its entry {x!r}": x for x in v[:2] + v.idx})
            return self.index.get(v)
        except (TypeError, ValueError):
            raise DomainError(f"{key!r} is not a jet coordinate (field, comp, idx)") from None

    def encode(self, v, r: int) -> int:
        """The code of coordinate ``v`` of the ambient ``(k, n, r)``, read as
        ``code`` reads it; outside the ambient it raises ``DomainError``
        (``OrderOverflow`` for an index longer than r - 1) naming the
        coordinate, its index sorted."""
        k, n = self.k, self.n
        try:
            fld, comp, idx = v
            var = JetVar(fld, comp, tuple(sorted(idx)))
            if not 1 <= fld <= k:
                raise DomainError(f"jet coordinate {var}: field index {fld} out of range 1..{k}")
            if not 1 <= comp <= n:
                raise DomainError(f"jet coordinate {var}: component {comp} out of range 1..{n}")
            if any(not 1 <= t <= n for t in var.idx):
                raise DomainError(f"jet coordinate {var}: derivative direction out of range 1..{n}")
        except (TypeError, ValueError):
            raise DomainError(f"{v!r} is not a jet coordinate (field, comp, idx)") from None
        if len(var.idx) > r - 1:
            raise OrderOverflow(f"jet coordinate {var}: multi-index exceeds jet order {r - 1}")
        return self.grow(len(var.idx)).code(var)


# The code tables of the MAX_TABLES most recently used ambients; a dropped
# table rebuilds identically, since a code depends on (k, n) and the
# coordinate alone.  Called positionally, as lru_cache keys on the call.
MAX_TABLES = 8
_codes = lru_cache(maxsize=MAX_TABLES)(_Codes)


class DiffPoly(_SparsePoly):
    """Sparse polynomial in jet coordinates with exact rational coefficients.

    ``terms`` maps monomials, sorted tuples of the codes of the ambient's
    ``(k, n)`` table, to nonzero int or Fraction coefficients; the
    constructor takes ``JetVar`` monomials and ``sorted_terms`` gives them
    back.
    """

    __slots__ = ("k", "n", "r", "_order", "_scale")

    def __init__(self, k: int, n: int, r: int, terms=None):
        self.k = k
        self.n = n
        self.r = r
        self._order = self._scale = None
        if terms is not None:
            encode = partial(_codes(k, n).encode, r=r)
            acc: dict = {}
            for mono, c in _mapping(terms, "terms").items():
                key = tuple(sorted(map(encode, _tuple(mono, "monomial"))))
                acc[key] = acc.get(key, 0) + (c if type(c) is int else _exact(c, "coefficient"))
            terms = acc
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
        return DiffPoly(k, n, r, {((fld, comp, idx),): 1})

    def _act(self, acc: dict, graded: list, sign: int = 1) -> None:
        """acc += sign * sum_t V^t * D_t(self) for the components V^t of a
        vector as ``_grade`` lists them: each derivative term, a code v
        replaced by its successor D_t v from the code table, is formed once
        and multiplied straight into ``acc``, its key sorted together with
        the multiplier's monomial; cancelled coefficients stay as zeros."""
        succ = _codes(self.k, self.n).successors(self.order())
        for mono, c in self.terms.items():
            sc = sign * c
            for pos, v in enumerate(mono):
                rest = mono[:pos] + mono[pos + 1 :]
                for nv, mult in zip(succ[v], graded):
                    head = rest + (nv,)
                    for m2, c2 in mult:
                        key = tuple(sorted(head + m2))
                        acc[key] = acc.get(key, 0) + sc * c2

    def order(self) -> int:
        """Largest multi-index length among the coordinates present: codes
        run by order first, so it is the order of the largest last code of a
        monomial.  Computed on the first call and carried from then on."""
        if self._order is None:
            top = max(map(itemgetter(-1), filter(None, self.terms)), default=None)
            self._order = 0 if top is None else _codes(self.k, self.n).order_of(top, self.r)
        return self._order

    def _table(self) -> _Codes:
        """The code table of this ambient, coded through this polynomial's
        order, so that it names every code present even where it was
        dropped and rebuilt since ``order()`` first read it."""
        return _codes(self.k, self.n).grow(self.order())

    def _names(self) -> list[JetVar]:
        """The coordinate of each code, covering every code present."""
        return self._table().vars

    def variables(self) -> set[JetVar]:
        names = self._names()
        return {names[c] for c in set(itertools.chain.from_iterable(self.terms))}

    def sorted_terms(self):
        """(monomial, coefficient) pairs, each monomial a tuple of ``JetVar``s
        in their natural order, by degree and then coordinate by coordinate
        on (field, comp, order, idx)."""
        names = self._names()
        items = [
            (tuple(sorted(names[c] for c in mono)), coeff) for mono, coeff in self.terms.items()
        ]
        return sorted(items, key=lambda kv: _mono_sort_key(kv[0]))

    def _printed_terms(self):
        """As ``sorted_terms``, a coordinate printed as ``JetVar`` prints."""
        return [(list(map(str, mono)), c) for mono, c in self.sorted_terms()]


class DiffVec(_Vector):
    """n-tuple of differential polynomials of one ambient ``(k, n, r)``, read
    as sum(comps[i] * D_{i+1}): the vector of ``polyfields._Vector``, which
    validates the components and owns the arithmetic, equality and text."""

    __slots__ = ("comps",)

    @property
    def k(self) -> int:
        return self.comps[0].k

    @property
    def r(self) -> int:
        return self.comps[0].r

    @staticmethod
    def zero(k: int, n: int, r: int) -> DiffVec:
        return DiffVec(tuple(DiffPoly.zero(k, n, r) for _ in range(n)))

    def order(self) -> int:
        return max(c.order() for c in self.comps)


def derive(p: DiffPoly, t: int) -> DiffPoly:
    """Directional derivation D_t: linear, Leibniz, appends ``t`` to the
    multi-index of each coordinate.  Undefined at the top order.
    """
    _sizes(direction=t)
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
    """Fully expanded symbol of the iterated bracket named by ``index``:
    ``bracket_of_expr`` of the right-nested chain ``BracketExpr.chain(index)``,
    so the leftmost field index is outermost and length 1 gives the 0-jet
    vector of that field."""
    return bracket_of_expr(BracketExpr.chain(index), k, n, r)


def bracket_of_expr(expr, k: int, n: int, r: int) -> DiffVec:
    """Symbol of an arbitrary bracket expression tree (see freelie), whose
    generator indices name fields 1..k; a ``BracketExpr`` has checked them
    for ints >= 1 already."""
    if type(expr) is not BracketExpr:
        raise DomainError(f"a bracket symbol needs a BracketExpr, got {type(expr).__name__}")
    if expr.length > r:
        raise OrderOverflow(f"length {expr.length} exceeds the order budget r={r}")
    if expr.is_leaf:
        if expr.gen > k:
            raise DomainError(f"field index {expr.gen} out of range 1..{k}")
        return _field_vec(expr.gen, k, n, r)
    return diffvec_bracket(
        bracket_of_expr(expr.left, k, n, r), bracket_of_expr(expr.right, k, n, r)
    )


def substitute(p: DiffPoly, assignment) -> DiffPoly:
    """Replace assigned jet coordinates by rationals or differential
    polynomials; unassigned coordinates are untouched.  A key's index is
    sorted first, as everywhere else, so it names the same coordinate in any
    order; keys that name no coordinate of ``p`` are ignored, and of keys
    that name the same one, the last wins.
    """
    # every coordinate of p is coded, so a key it lacks finds no code of p
    code = p._table().code
    assigned = {
        code(v): val if isinstance(val, DiffPoly) else _exact(val, f"value of {v}")
        for v, val in _mapping(assignment, "an assignment").items()
    }
    polys = {code: val for code, val in assigned.items() if isinstance(val, DiffPoly)}
    scalars = {code: val for code, val in assigned.items() if code not in polys}
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
        # a subsequence of a sorted monomial is sorted
        term = {tuple(kept): coeff}
        for q in poly_factors:
            term = (p._like(term) * q).terms
        for key, c in term.items():
            acc[key] = acc.get(key, 0) + c
    return p._like(acc)


def substitute_vec(vec: DiffVec, assignment) -> DiffVec:
    return DiffVec(tuple(substitute(c, assignment) for c in vec.comps))


def pure_t_vars(vec: DiffVec, t: int, m: int) -> set[JetVar]:
    """Jet coordinates present in ``vec`` whose multi-index is exactly ``m``
    copies of direction ``t``; ``m = 0`` returns the 0-jet coordinates.
    A ``t`` outside 1..n or a negative ``m`` is a ``DomainError`` naming it.
    """
    _sizes(t=t, m=m)
    if not 1 <= t <= vec.n:
        raise DomainError(f"t must be in 1..{vec.n}, got {t}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    tab = _codes(vec.k, vec.n).grow(vec.order())  # codes every coordinate of vec
    target = (t,) * m
    wanted = {
        tab.code((fld, comp, target))
        for fld in range(1, vec.k + 1)
        for comp in range(1, vec.n + 1)
    }
    present = {c for comp in vec.comps for mono in comp.terms for c in mono}
    return {tab.vars[c] for c in present & wanted}


@dataclass(frozen=True, init=False)
class JetPoint:
    """Total rational assignment of all jet coordinates up to ``order``,
    together with the base point, kept as ints over one denominator (see
    the module docstring).

    ``JetPoint(k, n, order, base, values)`` takes ``values`` as a mapping
    from coordinates (a ``JetVar`` or a (field, comp, idx) triple, its index
    in any order) to exact rationals; of keys naming one coordinate the last
    wins.
    """

    k: int
    n: int
    order: int
    base: tuple[Fraction, ...]
    _denom: int = field(repr=False)
    _nums: list[int] = field(repr=False)

    def __init__(self, k: int, n: int, order: int, base, values):
        _sizes(k=k, n=n, order=order)
        if k < 1 or n < 1 or order < 0:
            raise DomainError(
                f"a jet point needs k >= 1, n >= 1 and order >= 0, "
                f"got k={k}, n={n}, order={order}"
            )
        base = tuple(map(Fraction, _exact_vector(base, "base point", n)))
        _mapping(values, "jet values")
        tab = _codes(k, n).grow(order)
        vals: list = [None] * tab.starts[order + 1]
        for key, c in values.items():
            code = tab.code(key)
            c = _exact(c, f"jet value of {key if code is None else tab.vars[code]}")
            if code is not None and code < len(vals):
                vals[code] = c
        missing = [tab.vars[code] for code, c in enumerate(vals) if c is None]
        if missing:
            first = min(missing, key=lambda v: (v.field, v.comp, len(v.idx), v.idx))
            raise IncompleteJet(f"jet point is missing {len(missing)} coordinates, e.g. {first}")
        (nums,), denom = _cleared([vals])
        self._set(k, n, order, base, denom, nums)

    def _set(self, k: int, n: int, order: int, base, denom: int, nums: list) -> JetPoint:
        """This jet, its parts set from canonical ones: ``base`` a tuple of
        Fractions, ``denom`` the lcm of the value denominators and ``nums``
        the value times ``denom`` per code up to ``order``."""
        vars(self).update(k=k, n=n, order=order, base=base, _denom=denom, _nums=nums)
        return self

    def __hash__(self) -> int:
        # the store stays a list, which ``evaluate`` indexes faster than a
        # tuple; nothing writes to it after ``_set``
        return hash((self.k, self.n, self.order, self.base, self._denom, tuple(self._nums)))

    def _table(self) -> _Codes:
        """The code table of this jet's ambient, coded through its order,
        even where it was dropped and rebuilt since the jet was made."""
        return _codes(self.k, self.n).grow(self.order)

    @property
    def values(self) -> dict[JetVar, Fraction]:
        """Every coordinate the jet fixes and its value, in code order: a
        new dict on every read."""
        denom = self._denom
        return {v: Fraction(u, denom) for v, u in zip(self._table().vars, self._nums)}

    def __getitem__(self, v) -> Fraction:
        """The value of coordinate ``v``, read as ``_Codes.code`` reads it."""
        code = self._table().code(v)
        if code is None or code >= len(self._nums):
            raise IncompleteJet(f"jet point has no coordinate {v}")
        return Fraction(self._nums[code], self._denom)

    def _coded(self, k: int, n: int) -> tuple[int, list]:
        """``(denom, view)`` over the code table of the ambient ``(k, n)``:
        the store for the jet's own ambient, and for another one a list
        rebuilt on each call, per code up to this jet's order the value
        times ``denom``, or None where the jet lacks the coordinate."""
        if (k, n) == (self.k, self.n):
            return self._denom, self._nums
        tab, nums = _codes(k, n).grow(self.order), self._nums
        codes = map(self._table().index.get, tab.vars[: tab.starts[self.order + 1]])
        return self._denom, [None if c is None else nums[c] for c in codes]


def _eval_poly(p: DiffPoly, jet: JetPoint) -> Fraction:
    # One integer path for every input: the coefficients times their lcm
    # ``cden`` and the jet's values times theirs, ``denom`` (the jet's store,
    # or a view for another ambient, indexed by p's codes), summed into one
    # integer numerator, a monomial of degree d weighted by
    # denom**(maxdeg - d); with integer values and coefficients every power
    # is 1.  A zero value is the one shared Fraction zero.  ``cden`` and the
    # largest degree are computed on the first call and carried in
    # ``_scale``, like ``_order``.
    denom, view = jet._coded(p.k, p.n)
    if p._scale is None:
        cden = lcm(*(c.denominator for c in p.terms.values()))
        p._scale = (cden, max(map(len, p.terms), default=0))
    cden, maxdeg = p._scale
    powers = [denom**e for e in range(maxdeg + 1)]
    get = view.__getitem__
    acc = 0
    try:
        for mono, c in p.terms.items():
            prod = _prod(map(get, mono), start=c if cden == 1 else int(c * cden))
            acc += prod * powers[maxdeg - len(mono)]
    except (IndexError, TypeError):
        # a code past the view or a None in it: a coordinate the jet lacks
        names = p._names()
        for code in itertools.chain.from_iterable(p.terms):
            if code >= len(view) or view[code] is None:
                raise IncompleteJet(f"jet point has no coordinate {names[code]}") from None
        raise
    return Fraction(acc, cden * powers[maxdeg]) if acc else _ZERO


def evaluate(vec: DiffVec, jet: JetPoint) -> tuple[Fraction, ...]:
    """Exact value of a differential vector on a jet point of the same
    ambient dimension; the jet may have more fields or a higher order."""
    if vec.n != jet.n:
        raise DomainError(
            f"a vector on R^{vec.n} cannot be evaluated on a jet on R^{jet.n}"
        )
    order = vec.order()
    if order > jet.order:
        raise IncompleteJet(
            f"vector of order {order} needs jet order >= that, got {jet.order}"
        )
    return tuple(_eval_poly(c, jet) for c in vec.comps)


def pure_derivative_extract(
    jet: JetPoint, fld: int, t: int, m: int
) -> tuple[Fraction, ...]:
    """The order-``m`` pure derivative column of field ``fld`` along ``t``.
    A ``fld`` outside 1..k, a ``t`` outside 1..n or a negative ``m`` is a
    ``DomainError`` naming it."""
    _sizes(fld=fld, t=t, m=m)
    if not 1 <= fld <= jet.k:
        raise DomainError(f"fld must be in 1..{jet.k}, got {fld}")
    if not 1 <= t <= jet.n:
        raise DomainError(f"t must be in 1..{jet.n}, got {t}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if m > jet.order:
        raise DomainError(f"pure order {m} exceeds jet order {jet.order}")
    idx = (t,) * m
    return tuple(jet[JetVar(fld, comp, idx)] for comp in range(1, jet.n + 1))


# Kept beside the code tables, under the same bound; the tuples are shared.
@lru_cache(maxsize=MAX_TABLES)
def _multi_indices(n: int, order: int, width: int) -> tuple[tuple, ...]:
    """Per length m <= ``order``, ``(key, alpha!)`` for every multi-index of
    length m in n directions, in the order of ``_Codes.run``: the packed
    monomial x^alpha (``polyfields._TaylorParts``, ``width`` bits per
    exponent) matching the sorted directions of a jet coordinate, and the
    factorial of its exponents."""
    return tuple(
        tuple(
            (_packed_index(idx, width), _prod(factorial(idx.count(j)) for j in range(n)))
            for idx in itertools.combinations_with_replacement(range(n), ln)
        )
        for ln in range(order + 1)
    )


def jet_of_frame(frame: Frame, point, order: int) -> JetPoint:
    """All partial derivatives of the frame coefficients up to ``order``,
    evaluated exactly at ``point``.  They are read off the int parts of the
    order-``order`` Taylor expansion at ``point`` (``_taylor_leaves``): the
    derivative along a multi-index that takes direction j alpha_j times is
    alpha! times the coefficient of x^alpha, the part's int times alpha!
    over the part's scale.  Each is written as an int over the lcm of the
    scales, and the gcd of that lcm and every numerator is divided out, which
    leaves the lcm of the reduced denominators, as the checked constructor
    keeps them.
    """
    n = frame.n
    _sizes(order=order)
    base = tuple(map(Fraction, _exact_vector(point, "point", n)))
    tab = _codes(frame.k, n).grow(order)
    runs = _multi_indices(n, order, _pack_width(order))
    leaves = _taylor_leaves(frame.fields, base, order)
    denom = lcm(*(parts.scale for parts in leaves))
    nums = [0] * tab.starts[order + 1]
    for fld, parts in enumerate(leaves, start=1):
        mult = denom // parts.scale
        for comp, acc in enumerate(parts.expand(0, order), start=1):
            get = acc.get
            for m, run in enumerate(runs):
                for (key, fact), code in zip(run, tab.run(fld, comp, m)):
                    u = get(key)
                    if u:
                        nums[code] = u * fact * mult
    g = gcd(denom, *nums)
    if g != 1:
        denom //= g
        nums = [u // g for u in nums]
    return JetPoint.__new__(JetPoint)._set(frame.k, n, order, base, denom, nums)


def _taylor_fields(jet: JetPoint, order: int) -> list[_TaylorParts]:
    """The flag engine's leaves for ``jet``: per field, the order-``order``
    Taylor field about the base point that the jet fixes, the inverse of
    ``jet_of_frame``'s read-off, as a ``polyfields._TaylorParts`` given
    every part.  The coefficient of x^alpha in component i is
    u^i_{fld,alpha} / alpha!, and the leaf is that field times
    ``denom * order!``, so its coefficient is u * (order! / alpha!) with u
    the value times ``denom`` from the jet's store (``jet._nums``), and
    ``scale`` is ``denom * order!``.  No ``Fraction`` is formed."""
    n, width, fact = jet.n, _pack_width(order), factorial(order)
    runs = _multi_indices(n, order, width)
    nums, tab = jet._nums, _codes(jet.k, n)
    leaves = []
    for fld in range(1, jet.k + 1):
        parts = {}
        for d, run in enumerate(runs):
            parts[d] = comps = []
            for comp in range(1, n + 1):
                terms = {}
                for (key, afact), code in zip(run, tab.run(fld, comp, d)):
                    u = nums[code]
                    if u:
                        terms[key] = u * (fact // afact)
                comps.append(terms)
        leaves.append(_TaylorParts(n, width, order, jet._denom * fact, parts=parts))
    return leaves
