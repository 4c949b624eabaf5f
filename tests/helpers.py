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


def jet_vars(k: int, n: int, order: int) -> list:
    """Every jet coordinate of ``k`` fields on R^n up to ``order``, by field,
    component, order and index, enumerated without the code table."""
    from liegrowth.jetalg import JetVar

    return [
        JetVar(fld, comp, idx)
        for fld in range(1, k + 1)
        for comp in range(1, n + 1)
        for ln in range(order + 1)
        for idx in itertools.combinations_with_replacement(range(1, n + 1), ln)
    ]


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


def jetvar_terms(p) -> dict:
    """The terms of a ``DiffPoly`` keyed by ``JetVar`` monomials, decoded by
    ``sorted_terms``, or the terms of a ``Poly`` as they are."""
    from liegrowth.jetalg import DiffPoly

    return dict(p.sorted_terms()) if isinstance(p, DiffPoly) else p.terms


def derive_all_reference(p) -> list[dict]:
    """Reference total derivatives of a ``DiffPoly``: term dicts of D_1(p),
    ..., D_n(p) keyed by ``JetVar`` monomials, building each derived
    coordinate and each sorted monomial afresh for every (term, variable,
    direction); cancelled coefficients stay as zeros."""
    from liegrowth.jetalg import JetVar

    outs: list[dict] = [{} for _ in range(p.n)]
    for mono, c in p.sorted_terms():
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


def _product_reference(acc: dict, left: dict, right: dict, sign: int, times) -> None:
    """acc += sign * left * right for term dicts."""
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = times(m1, m2)
            acc[mono] = acc.get(mono, 0) + sign * c1 * c2


def bracket_terms_reference(a_comps, b_comps) -> list[dict]:
    """Reference for ``polyfields._bracket``: [A, B]^i = sum_j (A^j D_j B^i -
    B^j D_j A^i) with every derivative taken as a term dict first (the
    gradient of a ``Poly``, the total derivatives of a ``DiffPoly``) and then
    multiplied term by term.  The components come back as term dicts without
    zeros, a ``DiffPoly``'s keyed by ``JetVar`` monomials."""
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
            _product_reference(acc, jetvar_terms(aj), dbj, 1, times)
            _product_reference(acc, jetvar_terms(bj), daj, -1, times)
        comps.append({m: c for m, c in acc.items() if c})
    return comps


def bracket_reference(a_comps, b_comps) -> list:
    """``bracket_terms_reference`` as polynomials of the arguments' ring."""
    return [
        type(ai)(*ai._ambient, terms)
        for ai, terms in zip(a_comps, bracket_terms_reference(a_comps, b_comps))
    ]


def taylor_reference(f, point, order: int):
    """Reference for ``PolyField.taylor``: each component of the exact field
    ``f`` expanded in x -> x + point in ``Fraction`` arithmetic, term by term
    with cached binomial factors, keeping the monomials of total degree <=
    ``order``."""
    from math import comb

    shift = [Fraction(x) for x in point]
    assert order >= 0 and len(shift) == f.n
    # (x_i + p_i)^e = sum_k C(e, k) p_i^(e-k) x_i^k: the (k, factor) pairs
    # by (i, e), with factor None standing for 1
    expansions: dict = {}

    def expansion(i: int, e: int):
        got = expansions.get((i, e))
        if got is None:
            p = shift[i]
            got = [(e, None)]
            if e and p:
                got = [(k, comb(e, k) * p ** (e - k)) for k in range(e)] + got
            expansions[(i, e)] = got
        return got

    comps = []
    for comp in f.comps:
        out: dict = {}
        for exps, c in comp.terms.items():
            partial = [((), c, 0)]
            for i, e in enumerate(exps):
                pairs = expansion(i, e)
                partial = [
                    (head + (k,), coef if fk is None else coef * fk, deg + k)
                    for head, coef, deg in partial
                    for k, fk in pairs
                    if deg + k <= order
                ]
            for head, coef, _ in partial:
                out[head] = out.get(head, Fraction(0)) + coef
        comps.append(comp._like(out))
    return PolyField(tuple(comps))


def assert_coeff_normal(field) -> None:
    """Every coefficient of ``field`` is ``linalg._exact``-normal: an int when
    integral, a Fraction otherwise, never zero."""
    for comp in field.comps:
        for c in comp.terms.values():
            assert c != 0
            if isinstance(c, Fraction):
                assert c.denominator != 1
            else:
                assert type(c) is int


def truncate(field: PolyField, degree: int) -> PolyField:
    """``field`` without its terms of total degree above ``degree``."""
    return PolyField(
        tuple(
            Poly(field.n, {e: c for e, c in p.terms.items() if sum(e) <= degree})
            for p in field.comps
        )
    )


def taylor_fields_reference(jet, order: int) -> list:
    """Reference for ``jetalg._taylor_fields``: component i of field a is
    sum_{|alpha| <= order} u^i_{a,alpha} / alpha! * x^alpha, each coefficient
    a ``Fraction`` division of the jet value, normalised by ``Poly``."""
    from math import factorial, prod

    from liegrowth.jetalg import JetVar

    n = jet.n
    table = []
    for ln in range(order + 1):
        for idx in itertools.combinations_with_replacement(range(1, n + 1), ln):
            alpha = tuple(idx.count(j) for j in range(1, n + 1))
            table.append((idx, alpha, prod(map(factorial, alpha))))

    def component(fld: int, comp: int) -> Poly:
        terms = {alpha: jet.values[JetVar(fld, comp, idx)] / scale for idx, alpha, scale in table}
        return Poly(n, terms)

    return [
        PolyField(tuple(component(fld, comp) for comp in range(1, n + 1)))
        for fld in range(1, jet.k + 1)
    ]


def graded_field(leaf, order: int) -> PolyField:
    """The degree-<= ``order`` Taylor polynomial that a graded flag-engine leaf
    (``polyfields._GradedLeaf``) stands for: its parts of degree <= ``order``,
    each monomial decoded and each coefficient divided by the leaf's scale.
    Every coefficient of a part must be a nonzero int."""
    comps: list[dict] = [{} for _ in range(leaf.n)]
    for d in range(order + 1):
        for acc, part in zip(comps, leaf.part(d)):
            for key, c in part.items():
                assert type(c) is int and c, (key, c)
                exps = leaf.decode(key)
                assert sum(exps) == d, (exps, d)
                acc[exps] = Fraction(c, leaf.scale)
    return PolyField(tuple(Poly(leaf.n, acc) for acc in comps))


def order_by_walk(p) -> int:
    """Order of a ``DiffPoly`` by walking every coordinate of every term."""
    return max((len(v.idx) for mono, _ in p.sorted_terms() for v in mono), default=0)


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


def lie_flag_reference(fr, point, max_step: int, cross_check: bool = False):
    """Reference for ``flags.lie_flag`` from whole polynomials: each Hall
    bracket's field is the untruncated ``poly_lie_bracket`` of the frame's
    exact fields, formed afresh for every expression (no Taylor field, no
    memo), and its value is ``value_at(point)``.  The frame values must have
    rank k; with ``cross_check`` every right-nested chain of each length is
    evaluated too and its rank compared.  The ranks stop once they reach n."""
    from liegrowth import linalg
    from liegrowth.errors import DegenerateFrame, DomainError
    from liegrowth.flags import _report_from_dims
    from liegrowth.freelie import hall_basis
    from liegrowth.polyfields import poly_lie_bracket

    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    k, n = fr.k, fr.n

    def field(expr):
        if expr.is_leaf:
            return fr.fields[expr.gen - 1]
        return poly_lie_bracket(field(expr.left), field(expr.right))

    def rank_of(family) -> int:
        return linalg.rank([field(e).value_at(point) for e in family])

    if linalg.rank(fr.values_at(point)) < k:
        raise DegenerateFrame("frame vectors are dependent")
    dims: list[int] = []
    for i in range(1, max_step + 1):
        rank = rank_of([e for layer in hall_basis(k, i).layers for e in layer])
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
    return _report_from_dims(k, n, point, dims)


def triangular_map(rng, n: int, degree: int = 2, terms: int = 2) -> list:
    """A seeded triangular automorphism phi_j(x) = x_j + f_j(x_1, ..., x_{j-1})
    of R^n, as its ``Poly``s f_1 = 0, f_2, ..., f_n: each f_j has 1 to
    ``terms`` monomials of degree 1..``degree`` in x_1..x_{j-1}, with nonzero
    int or half-int coefficients."""
    fs = [Poly.zero(n)]
    for j in range(2, n + 1):
        monos = {}
        for _ in range(rng.randint(1, terms)):
            exps = [0] * n
            for _ in range(rng.randint(1, degree)):
                exps[rng.randrange(j - 1)] += 1
            monos[tuple(exps)] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        fs.append(Poly(n, monos))
    return fs


def push_triangular(fr: Frame, fs: list) -> Frame:
    """The frame phi_* X for the triangular map phi_j = x_j + fs[j-1]
    (``triangular_map``): each field is (D phi . X) o psi, with
    (D phi . X)_i = X_i + sum_{j<i} (d f_i / d x_j) X_j and psi the
    triangular inverse, psi_j(y) = y_j - f_j(psi_1, ..., psi_{j-1}), all by
    ``Poly.derivative`` and ``Poly.compose``."""
    n = fr.n
    ys = [Poly.variable(n, j) for j in range(1, n + 1)]
    psi: list = []
    for j in range(n):  # f_j reads x_1..x_{j-1} only, which psi already has
        psi.append(ys[j] - fs[j].compose(psi + ys[j:]))
    fields = []
    for f in fr.fields:
        moved = [
            sum((fs[i].derivative(j + 1) * f.comps[j] for j in range(i)), f.comps[i])
            for i in range(n)
        ]
        fields.append(PolyField(tuple(c.compose(psi) for c in moved)))
    return Frame(n, tuple(fields))


def apply_triangular(fs: list, point) -> tuple:
    """phi(point) for the triangular map of ``fs``."""
    return tuple(x + f.eval_at(point) for x, f in zip(point, fs))


def bench_workloads():
    """``bench/workloads.py``, whose generators make the benchmark inputs."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def adapted_change_reference(vecs, v):
    """Reference for ``ampleness._adapted_change`` on independent values
    ``vecs`` and an exact nonzero direction ``v``, by the projection formula:
    the orthogonal projection P of v onto the span is formed as a vector;
    column 1 is the Gram solution alpha over <P, v>, and the other columns
    are the nullspace of the row of pairings <X_i, P>.  ``None`` for a
    normal direction."""
    from liegrowth import linalg

    k = len(vecs)
    rhs = [linalg.dot(b, v) for b in vecs]
    if all(x == 0 for x in rhs):
        return None
    gram = [[linalg.dot(a, b) for b in vecs] for a in vecs]
    alpha = linalg.solve(gram, rhs)
    proj = [linalg.dot(alpha, col) for col in zip(*vecs)]
    pairing = linalg.dot(proj, v)
    cols = [[a / pairing for a in alpha]] + linalg.nullspace([[linalg.dot(b, proj) for b in vecs]])
    return [[cols[m][j] for m in range(k)] for j in range(k)]


def frame_to_text_reference(frame) -> str:
    """Reference for ``parsing.frame_to_text``: every term of a field
    collected with its direction, sorted by (direction, degree, exponents),
    and each written from its exponents, ``|c|*x1^e1*...*dj``."""
    from liegrowth.errors import DomainError
    from liegrowth.linalg import _TOO_LONG, MAX_DIGITS

    def term_text(c, exps, direction):
        parts = [str(abs(c))] if abs(c) != 1 else []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        parts.append(f"d{direction}")
        return "*".join(parts)

    lines = [f"dim {frame.n}"]
    for idx, fld in enumerate(frame.fields, start=1):
        terms = []
        for j, poly in enumerate(fld.comps, start=1):
            for exps, c in poly.terms.items():
                if max(abs(c.numerator), c.denominator) >= _TOO_LONG:
                    raise DomainError(
                        f"X{idx} has a d{j} coefficient of more than {MAX_DIGITS} "
                        "digits (parsing.MAX_DIGITS), which a frame file cannot hold"
                    )
                terms.append((j, exps, c))
        terms.sort(key=lambda t: (t[0], sum(t[1]), t[1]))
        if not terms:
            lines.append(f"X{idx} = 0*d1")
            continue
        rendered = []
        for pos, (j, exps, c) in enumerate(terms):
            if pos == 0 and c < 0:
                rendered.append(f"(0 - {str(abs(c))})*" + term_text(1, exps, j))
            elif pos == 0:
                rendered.append(term_text(c, exps, j))
            else:
                rendered.append((" + " if c > 0 else " - ") + term_text(c, exps, j))
        lines.append(f"X{idx} = " + "".join(rendered))
    return "\n".join(lines) + "\n"


def slice_report_reference(fr, point, v, step: int, cross_check: bool = False):
    """Reference for ``ampleness.slice_report``, composed of whole-frame
    steps: the maximal-growth check is ``lie_flag`` at the point; the change
    matrix comes from the exact frame values (``Frame.values_at``); the
    adapted frame is ``frame_change`` of the exact frame, expanded afresh as
    graded leaves (``polyfields._TaylorParts``); and a second ``_span_ranks``
    pass over those leaves, with its own store, gives the slice ranks.
    Errors are raised in the same order and with the same messages."""
    from liegrowth import ampleness as amp
    from liegrowth import linalg
    from liegrowth.errors import DomainError, InconsistentFormalSolution, NotFormalSolution
    from liegrowth.flags import _span_ranks, lie_flag
    from liegrowth.freelie import maximal_growth_vector
    from liegrowth.polyfields import _taylor_leaves, frame_change

    V = amp.Verdict
    n, k = fr.n, fr.k
    v = linalg._exact_vector(v, "direction", n)
    if all(x == 0 for x in v):
        raise DomainError("direction must be nonzero")
    gv = maximal_growth_vector(k, n)
    if step != gv.step:
        raise NotFormalSolution(f"maximal growth on dimension {n} has step {gv.step}, got {step}")
    flag = lie_flag(fr, point, gv.step)
    if flag.dims != gv.entries:
        raise NotFormalSolution(
            f"flag {flag.dims} differs from the maximal growth vector {gv.entries}"
        )
    g = adapted_change_reference(fr.values_at(point), v)
    if g is None:
        return [
            amp.SliceReport(i, gv.entries[i - 1], gv.entries[i - 1], V.TRIVIALLY_AMPLE_FULL, True)
            for i in range(1, step + 1)
        ]
    adapted = frame_change(fr, g)
    leaves = _taylor_leaves(adapted.fields, point, step - 1)
    reports = []
    for i, (_, m_i) in enumerate(_span_ranks(leaves, step, amp._below_top, cross_check), 1):
        n_i = gv.entries[i - 1]
        if i < step:
            if m_i + k - 1 != n_i:
                raise NotFormalSolution(
                    f"level {i}: rank {m_i} + {k - 1} != {n_i}; point is not generic"
                )
            verdict = V.AMPLE_THIN_COMPLEMENT
        elif m_i == n:
            verdict = V.TRIVIALLY_AMPLE_FULL
        elif n < m_i + k - 1:
            verdict = V.AMPLE_THIN_COMPLEMENT
        elif n == m_i + k - 1:
            verdict = V.AMPLE_NON_THIN if k >= 3 else V.NOT_AMPLE_HYPERPLANE
        else:
            raise InconsistentFormalSolution(
                f"top level rank {m_i} leaves {n} > {m_i + k - 1} unreachable"
            )
        reports.append(amp.SliceReport(i, m_i, n_i, verdict, False))
    return reports


def validate_algebra_reference(alg):
    """Reference for ``flags.validate_algebra``: grading, then the Jacobi
    identity on every basis triple i < j < l in order, then generation by
    the first layer; the first failure is returned."""
    from liegrowth import linalg
    from liegrowth.flags import AlgebraValidation

    n, r = alg.dim, alg.step
    for (i, j), row in sorted(alg.table.items()):
        target = alg.layer_of(i) + alg.layer_of(j)
        for m in sorted(row):
            if target > r:
                return AlgebraValidation(
                    False, "grading", f"[e{i}, e{j}] lands in layer {target} > step {r} but is nonzero"
                )
            if alg.layer_of(m) != target:
                return AlgebraValidation(
                    False,
                    "grading",
                    f"[e{i}, e{j}] has component e{m} in layer {alg.layer_of(m)}, "
                    f"expected layer {target}",
                )
    for i, j, l in itertools.combinations(range(1, n + 1), 3):
        defect: dict = {}
        for a, b, c in ((i, j, l), (j, l, i), (l, i, j)):
            for m, x in alg.bracket_basis(a, b).items():
                for t, y in alg.bracket_basis(m, c).items():
                    defect[t] = defect.get(t, 0) + x * y
        if any(defect.values()):
            acc = [Fraction(defect.get(m, 0)) for m in range(1, n + 1)]
            return AlgebraValidation(False, "jacobi", f"Jacobi fails on (e{i}, e{j}, e{l}); defect {acc}")
    for lay in range(1, r):
        target = list(alg.layer_indices(lay + 1))
        rows = [
            [alg.bracket_basis(a, b).get(m, Fraction(0)) for m in target]
            for a in alg.layer_indices(1)
            for b in alg.layer_indices(lay)
        ]
        got = linalg.rank(rows)
        if got != alg.layer_dims[lay]:
            return AlgebraValidation(
                False,
                "generation",
                f"[layer 1, layer {lay}] spans only rank {got} of the "
                f"{alg.layer_dims[lay]}-dimensional layer {lay + 1}",
            )
    return AlgebraValidation(True)
