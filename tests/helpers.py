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


def phase1_feasible_reference(columns, rhs):
    """Reference for ``linalg._phase1_feasible``: the same phase-1 simplex
    with Bland's rule on a ``Fraction`` tableau, row by row as printed in a
    textbook.  Nonnegative x with sum_i x_i col_i = rhs, or None."""
    m = len(rhs)
    n = len(columns)
    tab = []
    for i in range(m):
        row = [Fraction(col[i]) for col in columns]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(b)
        tab.append(row)
    width = n + m + 1
    obj = [Fraction(0)] * width
    for row in tab:
        for j in range(width):
            obj[j] -= row[j]
    for j in range(n, n + m):
        obj[j] = Fraction(0)
    basis = list(range(n, n + m))
    while True:
        enter = None
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = obj[enter]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter
    if -obj[width - 1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][width - 1]
    return x


def hull_membership_witness_reference(spec, target, component_sign, budget, seed):
    """Reference for ``ampleness.hull_membership_witness``: the same seeded
    search that builds every drawn matrix from ``Fraction`` entries and takes
    its full ``linalg.det``, with no shortcut for one free column or for
    dependent fixed columns.  Same draws, checkpoints and simplex, so the same
    witness or ``None``."""
    import random

    from liegrowth import linalg
    from liegrowth.ampleness import ConvexWitness, _matrix
    from liegrowth.errors import DomainError

    if spec.rows != spec.cols:
        raise DomainError("hull search is defined for the square case only")
    if component_sign not in (1, -1):
        raise DomainError("component sign must be +1 or -1")
    tgt = _matrix(target)
    l, q, k = spec.rows, spec.cols, spec.fixed_count
    if len(tgt) != l or any(len(r) != q for r in tgt):
        raise DomainError("target shape mismatch")
    for i in range(l):
        for j in range(k):
            if tgt[i][j] != spec.fixed[i][j]:
                raise DomainError("target does not carry the fixed columns")
    dt = linalg.det(tgt)
    if dt != 0 and (dt > 0) == (component_sign > 0):
        witness = ConvexWitness(((Fraction(1), tgt),))
        witness.validate(tgt, det_sign=component_sign)
        return witness
    rng = random.Random(seed)
    free = q - k
    samples = []
    target_vec = [tgt[i][j] for i in range(l) for j in range(k, q)] + [Fraction(1)]

    def try_solve():
        cols = [
            [mat[i][j] for i in range(l) for j in range(k, q)] + [Fraction(1)]
            for mat in samples
        ]
        x = linalg._phase1_feasible(cols, target_vec)
        if x is None:
            return None
        witness = ConvexWitness(
            tuple((w, samples[idx]) for idx, w in enumerate(x) if w > 0)
        )
        witness.validate(tgt, det_sign=component_sign)
        return witness

    checkpoints = set()
    c = 256
    while c < budget:
        checkpoints.add(c)
        c *= 4
    drawn = 0
    while drawn < budget:
        drawn += 1
        entries = [
            Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(l * free)
        ]
        mat = tuple(
            tuple(spec.fixed[i]) + tuple(entries[i * free : (i + 1) * free])
            for i in range(l)
        )
        d = linalg.det(mat)
        if d != 0 and (d > 0) == (component_sign > 0):
            samples.append(mat)
        if len(samples) in checkpoints:
            checkpoints.discard(len(samples))
            found = try_solve()
            if found is not None:
                return found
    if samples:
        return try_solve()
    return None
