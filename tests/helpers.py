"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

from liegrowth.checks import (  # noqa: F401
    all_expressions,
    classical_chain_value,
    rand_fraction,
    rand_point,
)
from liegrowth.freelie import BracketExpr
from liegrowth.polyfields import Frame, Poly, PolyField


def F(a, b=1) -> Fraction:
    return Fraction(a, b)


def leaf(g) -> BracketExpr:
    return BracketExpr.leaf(g)


def pair(a, b) -> BracketExpr:
    return BracketExpr.pair(a, b)


def chain(*gens) -> BracketExpr:
    """Right-nested wrap [X_{g1}, [X_{g2}, [... X_{gl}]]]."""
    expr = leaf(gens[-1])
    for g in reversed(gens[:-1]):
        expr = pair(leaf(g), expr)
    return expr


def constant_frame(n: int, k: int) -> Frame:
    """(d1, ..., dk) on R^n."""
    return Frame(n, tuple(PolyField.basis(n, j) for j in range(1, k + 1)))


def jet_by_derivatives(frame: Frame, point, order: int) -> dict:
    """Reference jet: every partial derivative up to ``order`` by chains of
    ``Poly.derivative`` evaluated at ``point``, keyed by JetVar."""
    from liegrowth.jetalg import JetVar

    values = {}
    for fld, f in enumerate(frame.fields, start=1):
        for comp, poly in enumerate(f.comps, start=1):
            stack = {(): poly}
            for ln in range(order + 1):
                for idx in itertools.combinations_with_replacement(
                    range(1, frame.n + 1), ln
                ):
                    if idx:
                        stack[idx] = stack[idx[:-1]].derivative(idx[-1])
                    values[JetVar(fld, comp, idx)] = stack[idx].eval_at(point)
    return values


def derive_all_reference(p) -> list[dict]:
    """Reference total derivatives of a ``DiffPoly``: term dicts of D_1(p),
    ..., D_n(p), building each derived coordinate and each sorted monomial
    afresh for every (term, variable, direction); cancelled coefficients stay
    as zeros."""
    from liegrowth.jetalg import JetVar

    outs: list[dict] = [{} for _ in range(p.n)]
    for mono, c in p.terms.items():
        for pos, v in enumerate(mono):
            head = mono[:pos]
            tail = mono[pos + 1 :]
            for t, out in enumerate(outs, start=1):
                nv = JetVar(v.field, v.comp, tuple(sorted(v.idx + (t,))))
                new = tuple(sorted(head + (nv,) + tail))
                out[new] = out.get(new, 0) + c
    return outs


def gradient_reference(p) -> list[dict]:
    """Reference partial derivatives of a ``Poly``: term dicts of d/dx_1, ...,
    d/dx_n in one pass over the terms."""
    outs: list[dict] = [{} for _ in range(p.n)]
    for exps, c in p.terms.items():
        for j, e in enumerate(exps):
            if e:
                outs[j][exps[:j] + (e - 1,) + exps[j + 1 :]] = c * e
    return outs


def _product_reference(acc: dict, left: dict, right: dict, sign: int, cap, times) -> None:
    """acc += sign * left * right for term dicts, skipping every product of
    total degree above ``cap`` (exponent-tuple monomials only)."""
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            if cap is not None and sum(m1) + sum(m2) > cap:
                continue
            mono = times(m1, m2)
            acc[mono] = acc.get(mono, 0) + sign * c1 * c2


def bracket_reference(a_comps, b_comps, cap=None) -> list:
    """Reference for ``polyfields._bracket``: [A, B]^i = sum_j (A^j D_j B^i -
    B^j D_j A^i) with every derivative taken as a term dict first (the
    gradient of a ``Poly``, the total derivatives of a ``DiffPoly``) and then
    multiplied term by term, no product of degree above ``cap`` formed."""
    from operator import add

    from liegrowth.polyfields import Poly

    if isinstance(a_comps[0], Poly):
        derive, times = gradient_reference, lambda m1, m2: tuple(map(add, m1, m2))
    else:
        derive, times = derive_all_reference, lambda m1, m2: tuple(sorted(m1 + m2))
    comps = []
    for ai, bi in zip(a_comps, b_comps):
        acc: dict = {}
        for aj, bj, dbj, daj in zip(a_comps, b_comps, derive(bi), derive(ai)):
            _product_reference(acc, aj.terms, dbj, 1, cap, times)
            _product_reference(acc, bj.terms, daj, -1, cap, times)
        comps.append(ai._like(acc))
    return comps


def order_by_walk(p) -> int:
    """Order of a ``DiffPoly`` by walking every coordinate of every term."""
    return max((len(v.idx) for mono in p.terms for v in mono), default=0)


def formal_flag_reference(jet, max_step: int, cross_check: bool = False):
    """Reference for ``flags.formal_flag``: the flag of a jet from the
    jet-space symbols.  Each Hall bracket's symbol is expanded with
    ``jetalg.diffvec_bracket`` (memoised by expression) and evaluated on the
    jet with ``jetalg.evaluate``; the 0-jet must have rank k, and with
    ``cross_check`` every right-nested chain of each length is evaluated too
    and its rank compared.  The ranks stop once they reach n."""
    from liegrowth import jetalg, linalg
    from liegrowth.errors import DegenerateFrame, DomainError, OrderOverflow
    from liegrowth.flags import _report_from_dims
    from liegrowth.freelie import hall_basis

    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    if max_step > jet.order + 1:
        raise OrderOverflow(f"step {max_step} needs jet order {max_step - 1}")
    k, n, r = jet.k, jet.n, jet.order + 1
    zero_jet = [
        [jet[jetalg.JetVar(fld, comp, ())] for comp in range(1, n + 1)]
        for fld in range(1, k + 1)
    ]
    if linalg.rank(zero_jet) < k:
        raise DegenerateFrame("0-jet vectors are dependent")
    symbols: dict = {}

    def symbol(expr):
        got = symbols.get(expr)
        if got is None:
            if expr.is_leaf:
                got = jetalg.bracket((expr.gen,), k, n, r)
            else:
                got = jetalg.diffvec_bracket(symbol(expr.left), symbol(expr.right))
            symbols[expr] = got
        return got

    def rank_of(family) -> int:
        return linalg.rank([jetalg.evaluate(symbol(e), jet) for e in family])

    dims: list[int] = []
    hall: list = []
    for i in range(1, max_step + 1):
        hall += hall_basis(k, i).layers[i - 1]
        rank = rank_of(hall)
        if cross_check:
            chains = [
                chain(*gens)
                for ln in range(1, i + 1)
                for gens in itertools.product(range(1, k + 1), repeat=ln)
            ]
            if rank_of(chains) != rank:
                raise AssertionError(f"Hall span disagrees with the chains at length {i}")
        dims.append(rank)
        if rank == n:
            break
    return _report_from_dims(k, n, jet.base, dims)
