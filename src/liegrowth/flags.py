"""Lie flags of concrete frames, stratified algebras and nilpotent frames.

Flag dimensions are computed from a Hall-indexed spanning set: the evaluated
brackets of Hall-set expressions of length up to the step.  Chains of every
shape span the same layers (antisymmetry and the Jacobi identity reduce any
bracket to combinations of Hall elements of the same length), which the
optional cross-check verifies by evaluating the full right-nested chain
family.  ``lie_flag``, ``formal_flag`` and ``ampleness.slice_report`` share
one memoised engine, ``_span_ranks``, for both the Hall span and the chain
cross-check.  Per length it yields the rank of all Hall values and, given a
filter, the rank of the values the filter keeps, both read from one memo:
``slice_report`` takes its maximal-growth check and its slice ranks from one
pass.

A step-s flag at p depends only on the (s-1)-jet of the frame at p, so
``lie_flag`` and ``slice_report`` bracket Taylor fields of order s - 1
centred at p (``PolyField.taylor``) instead of the full polynomials, and read
each value off the constant term.  ``formal_flag`` brackets the Taylor
fields its jet fixes (``jetalg._taylor_fields``); it and ``lie_flag`` run one
body, ``_flag``.  The engine generates Hall layers one length at a time and
stops early once a whole layer of brackets is zero.

The engine runs on ints.  ``_span_ranks`` multiplies each leaf once by the
lcm of its coefficient denominators, so every bracket multiplies and adds
ints and every rank is taken of integer rows.  A rank does not change when
each vector is multiplied by its own nonzero constant, and by bilinearity
that is all the scaling does to a bracket's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import jetalg, linalg
from .errors import (
    DegenerateFrame,
    DomainError,
    InvalidAlgebra,
    OrderOverflow,
)
from .freelie import BracketExpr, hall_basis, is_free_type, maximal_growth_vector
from .polyfields import (
    Frame,
    Poly,
    PolyField,
    frame_change,
    poly_lie_bracket,
    pushforward,
)

__all__ = [
    "AlgebraValidation",
    "FlagReport",
    "Frame",
    "PolyField",
    "StratifiedAlgebra",
    "formal_flag",
    "frame_change",
    "left_invariant_extensions",
    "lie_flag",
    "nilpotent_frame",
    "poly_lie_bracket",
    "pushforward",
    "validate_algebra",
]


@dataclass(frozen=True)
class FlagReport:
    """Flag dimensions of a frame at a point.

    ``dims[i]`` is the rank of all brackets of length <= i+1 evaluated at the
    point; computation stops once the ambient dimension is reached.  ``step``
    is the index where the dims first hit the ambient dimension, or the start
    of the final constant stretch otherwise.  ``maximal`` means the dims equal
    the maximal growth vector.  ``irregular`` flags a stall followed by
    growth, which certifies the point is not regular for the frame.
    """

    p: tuple[Fraction, ...]
    dims: tuple[int, ...]
    step: int
    maximal: bool
    free_type: bool
    irregular: bool


def _report_from_dims(k: int, n: int, point, dims: list[int]) -> FlagReport:
    step = len(dims)
    if dims[-1] != n:
        while step > 1 and dims[step - 2] == dims[-1]:
            step -= 1
    irregular = any(
        dims[i] == dims[i - 1] and dims[j] > dims[i]
        for i in range(1, len(dims))
        for j in range(i + 1, len(dims))
    )
    maximal = False
    free = False
    if 2 <= k < n:
        gv = maximal_growth_vector(k, n)
        maximal = tuple(dims) == gv.entries
        free = maximal and is_free_type(gv, k)
    elif k == n:
        maximal = tuple(dims) == (n,)
        free = maximal
    return FlagReport(
        tuple(Fraction(x) for x in point), tuple(dims), step, maximal, free, irregular
    )


def _span_ranks(leaves, max_len, keep=None, cross_check=False):
    """Yield, for i = 1..max_len, the pair (rank of the values of the Hall
    expressions of length <= i, rank of those of them ``keep(expr, i)``
    admits); the second is None when ``keep`` is None.

    Leaf ``X_g`` is the Taylor field ``leaves[g - 1]``; a bracket is
    ``poly_lie_bracket`` and a value is the constant term.  Both ranks read
    one memo of fields and values by expression, so no bracket is formed
    twice.  With ``cross_check`` both ranks are recomputed from the
    right-nested chains [X_c1, [X_c2, ...]], through the same memo, and a
    disagreement raises AssertionError.

    Each leaf is first multiplied by the lcm of its coefficient denominators
    (``_integer_field``), so every bracket multiplies and adds ints and
    ``linalg.rank`` gets integer rows.  This changes no rank: brackets are
    bilinear, so the bracket of an expression over scaled leaves is the
    product of its leaves' scales times the unscaled bracket, a nonzero
    multiple of each value vector.

    Hall layers are generated one length at a time.  When ``keep`` is None
    and every field of a layer of length i > 1 is zero, every longer bracket
    vanishes too (L_{m+1} = [L_1, L_m]), so the ranks at i are yielded for
    all remaining lengths without generating further layers.
    """
    leaves = [_integer_field(f) for f in leaves]
    k = len(leaves)
    fields: dict[BracketExpr, PolyField] = {}
    values: dict[BracketExpr, tuple] = {}

    def field_of(expr: BracketExpr) -> PolyField:
        got = fields.get(expr)
        if got is None:
            if expr.is_leaf:
                got = leaves[expr.gen - 1]
            else:
                got = poly_lie_bracket(field_of(expr.left), field_of(expr.right))
            fields[expr] = got
        return got

    def rank_of(family) -> int:
        vectors = []
        for expr in family:
            got = values.get(expr)
            if got is None:
                got = values[expr] = _constant_term(field_of(expr))
            vectors.append(got)
        return linalg.rank(vectors)

    def ranks(family, i: int) -> tuple:
        kept = None if keep is None else rank_of([e for e in family if keep(e, i)])
        return rank_of(family), kept

    hall: list[BracketExpr] = []
    chains: list[BracketExpr] = []
    for i in range(1, max_len + 1):
        layer = hall_basis(k, i).layers[i - 1]
        if i == 1:
            first = newest = layer
        hall += layer
        got = ranks(hall, i)
        if cross_check:
            if i > 1:
                newest = [BracketExpr.pair(g, e) for g in first for e in newest]
            chains += newest
            if ranks(chains, i) != got:
                raise AssertionError(
                    f"Hall-indexed span disagrees with the full chain span at length {i}"
                )
        yield got
        if keep is None and i > 1 and all(field_of(e).is_zero() for e in layer):
            for _ in range(i + 1, max_len + 1):
                yield got
            return


def _integer_field(f: PolyField) -> PolyField:
    """``f`` times the lcm of all its coefficient denominators: the same
    field up to a positive scalar, with int coefficients only."""
    mult = lcm(*(c.denominator for p in f.comps for c in p.terms.values()))
    return PolyField(
        tuple(
            p._like({e: c.numerator * (mult // c.denominator) for e, c in p.terms.items()})
            for p in f.comps
        ),
        f.order,
    )


def _constant_term(f: PolyField) -> tuple[Fraction, ...]:
    """Value of a Taylor field at its centre: the constant term of each
    component."""
    origin = (0,) * f.n
    return tuple(c.terms.get(origin, 0) for c in f.comps)


def _flag(leaves, point, max_step: int, cross_check: bool) -> FlagReport:
    """Flag of the Taylor fields ``leaves`` of order ``max_step - 1`` about
    ``point``: the Hall span ranks up to ``max_step``, stopped once they reach
    the ambient dimension."""
    k, n = len(leaves), len(point)
    if linalg.rank([_constant_term(f) for f in leaves]) < k:
        raise DegenerateFrame(f"frame vectors dependent at {tuple(point)}")
    dims = []
    for dim, _ in _span_ranks(leaves, max_step, cross_check=cross_check):
        dims.append(dim)
        if dim == n:
            break
    return _report_from_dims(k, n, point, dims)


def lie_flag(fr: Frame, point, max_step: int, cross_check: bool = False) -> FlagReport:
    """Exact flag dimensions of a polynomial frame at a rational point.

    The brackets are taken of the order ``max_step - 1`` Taylor fields of the
    frame about ``point``: a length-l bracket is then exact through degree
    ``max_step - l``, which is all its value at ``point`` needs.
    """
    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    leaves = [f.taylor(point, max_step - 1) for f in fr.fields]
    return _flag(leaves, point, max_step, cross_check)


def formal_flag(
    jet: jetalg.JetPoint, max_step: int, cross_check: bool = False
) -> FlagReport:
    """Flag dimensions computed purely from a jet.

    The (max_step - 1)-jet fixes the order ``max_step - 1`` Taylor fields
    about its base point (``jetalg._taylor_fields``), and those are bracketed
    exactly as ``lie_flag`` brackets the Taylor fields of a frame.
    """
    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    if max_step > jet.order + 1:
        raise OrderOverflow(
            f"step {max_step} needs jet order {max_step - 1}, have {jet.order}"
        )
    leaves = jetalg._taylor_fields(jet, max_step - 1)
    return _flag(leaves, jet.base, max_step, cross_check)


@dataclass(frozen=True)
class StratifiedAlgebra:
    """Graded algebra data: layer dimensions and structure constants.

    ``table[(i, j)]`` with ``i < j`` maps basis indices ``m`` to the rational
    coefficient of e_m in [e_i, e_j]; omitted pairs are zero brackets and the
    antisymmetric completion is implied.
    """

    layer_dims: tuple[int, ...]
    table: dict[tuple[int, int], dict[int, Fraction]]

    def __post_init__(self):
        if not self.layer_dims or any(d < 1 for d in self.layer_dims):
            raise DomainError("layer dimensions must be positive")
        total = self.dim
        norm: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in self.table.items():
            if not (1 <= i < j <= total):
                raise DomainError(f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= {total}")
            entries = {}
            for m, c in row.items():
                if not 1 <= m <= total:
                    raise DomainError(f"target e{m} out of range 1..{total}")
                c = linalg._exact(c, f"structure constant of e{m} in [e{i}, e{j}]")
                if c != 0:
                    entries[m] = Fraction(c)
            if entries:
                norm[(i, j)] = entries
        object.__setattr__(self, "table", norm)

    @property
    def dim(self) -> int:
        return sum(self.layer_dims)

    @property
    def step(self) -> int:
        return len(self.layer_dims)

    def layer_of(self, index: int) -> int:
        acc = 0
        for lay, d in enumerate(self.layer_dims, start=1):
            acc += d
            if index <= acc:
                return lay
        raise DomainError(f"basis index {index} out of range 1..{self.dim}")

    def layer_indices(self, lay: int) -> range:
        start = sum(self.layer_dims[: lay - 1])
        return range(start + 1, start + self.layer_dims[lay - 1] + 1)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coefficient map, any i, j."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {m: -c for m, c in self.table.get((j, i), {}).items()}

    def bracket_vectors(self, u, v) -> list[Fraction]:
        """Bilinear extension of the bracket to exact coordinate vectors of
        length ``dim``."""
        u = linalg._exact_vector(u, "u", self.dim)
        v = linalg._exact_vector(v, "v", self.dim)
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u, start=1):
            if a == 0:
                continue
            for j, b in enumerate(v, start=1):
                if b == 0:
                    continue
                for m, c in self.bracket_basis(i, j).items():
                    out[m - 1] += a * b * c
        return out


@dataclass(frozen=True)
class AlgebraValidation:
    valid: bool
    kind: str | None = None
    detail: str | None = None


def validate_algebra(alg: StratifiedAlgebra) -> AlgebraValidation:
    """Check grading, the Jacobi identity, and generation by the first layer.

    Returns the first violated identity with witnesses instead of raising.
    """
    n = alg.dim
    r = alg.step
    for (i, j), row in sorted(alg.table.items()):
        target = alg.layer_of(i) + alg.layer_of(j)
        for m in sorted(row):
            if target > r:
                return AlgebraValidation(
                    False,
                    "grading",
                    f"[e{i}, e{j}] lands in layer {target} > step {r} but is nonzero",
                )
            if alg.layer_of(m) != target:
                return AlgebraValidation(
                    False,
                    "grading",
                    f"[e{i}, e{j}] has component e{m} in layer {alg.layer_of(m)}, "
                    f"expected layer {target}",
                )
    basis = [
        [Fraction(1) if idx == m else Fraction(0) for idx in range(1, n + 1)]
        for m in range(1, n + 1)
    ]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for l in range(j + 1, n + 1):
                acc = alg.bracket_vectors(alg.bracket_vectors(basis[i - 1], basis[j - 1]), basis[l - 1])
                term = alg.bracket_vectors(alg.bracket_vectors(basis[j - 1], basis[l - 1]), basis[i - 1])
                acc = [a + b for a, b in zip(acc, term)]
                term = alg.bracket_vectors(alg.bracket_vectors(basis[l - 1], basis[i - 1]), basis[j - 1])
                acc = [a + b for a, b in zip(acc, term)]
                if any(c != 0 for c in acc):
                    return AlgebraValidation(
                        False,
                        "jacobi",
                        f"Jacobi fails on (e{i}, e{j}, e{l}); defect {acc}",
                    )
    for lay in range(1, r):
        rows = []
        target = list(alg.layer_indices(lay + 1))
        for a in alg.layer_indices(1):
            for b in alg.layer_indices(lay):
                vec = alg.bracket_basis(a, b)
                rows.append([vec.get(m, Fraction(0)) for m in target])
        if linalg.rank(rows) != alg.layer_dims[lay]:
            return AlgebraValidation(
                False,
                "generation",
                f"[layer 1, layer {lay}] spans only rank {linalg.rank(rows)} of the "
                f"{alg.layer_dims[lay]}-dimensional layer {lay + 1}",
            )
    return AlgebraValidation(True)


# Linear-in-the-new-argument part of the group law in exponential coordinates:
# coefficients of ad_x^m applied to the new direction, m = 0..5.  Derived from
# the truncated tensor-algebra model (re-derived in the test suite) and locked
# here as exact rationals; valid through step 6.
BCH_LINEAR_COEFFS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 12),
    Fraction(0),
    Fraction(-1, 720),
    Fraction(0),
)


def _ad_poly(alg: StratifiedAlgebra, w: list[Poly]) -> list[Poly]:
    """ad_x(w) where x is the coordinate vector of polynomial variables."""
    n = alg.dim
    out = [Poly.zero(n) for _ in range(n)]
    for (i, j), row in alg.table.items():
        xi = Poly.variable(n, i)
        xj = Poly.variable(n, j)
        term = xi * w[j - 1] - xj * w[i - 1]
        if term.is_zero():
            continue
        for m, c in row.items():
            out[m - 1] = out[m - 1] + term * c
    return out


def left_invariant_extensions(alg: StratifiedAlgebra) -> list[PolyField]:
    """Left-invariant fields extending every basis vector, in exponential
    coordinates of the group: X_b(x) = sum_m coeff_m * ad_x^m(e_b).
    """
    report = validate_algebra(alg)
    if not report.valid:
        raise InvalidAlgebra(report)
    if alg.step > len(BCH_LINEAR_COEFFS):
        raise DomainError(
            f"left-invariant extension table covers step <= {len(BCH_LINEAR_COEFFS)}"
        )
    n = alg.dim
    fields = []
    for b in range(1, n + 1):
        cur = [
            Poly.const(n, 1) if m == b else Poly.zero(n) for m in range(1, n + 1)
        ]
        acc = [p * BCH_LINEAR_COEFFS[0] for p in cur]
        for m in range(1, alg.step):
            cur = _ad_poly(alg, cur)
            c = BCH_LINEAR_COEFFS[m]
            if c != 0:
                acc = [a + p * c for a, p in zip(acc, cur)]
        fields.append(PolyField(tuple(acc)))
    _certify_extensions(alg, fields)
    return fields


def _certify_extensions(alg: StratifiedAlgebra, fields: list[PolyField]) -> None:
    n = alg.dim
    origin = (Fraction(0),) * n
    for b, f in enumerate(fields, start=1):
        val = f.value_at(origin)
        expected = tuple(Fraction(1) if m == b else Fraction(0) for m in range(1, n + 1))
        if val != expected:
            raise RuntimeError(f"extension of e{b} does not restrict to e{b} at 0")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            got = poly_lie_bracket(fields[i - 1], fields[j - 1])
            want = PolyField.zero(n)
            for m, c in alg.bracket_basis(i, j).items():
                want = want + fields[m - 1].scale(c)
            if got != want:
                raise RuntimeError(
                    f"structure-constant identity fails for [e{i}, e{j}]"
                )


def nilpotent_frame(alg: StratifiedAlgebra) -> Frame:
    """Frame of the left-invariant extensions of the first layer.

    The returned fields satisfy the exact polynomial identity
    [X_i, X_j] = sum_m c^m_{ij} X_m against the full extension family, and
    restrict to the basis at the origin; both are checked before returning.
    """
    fields = left_invariant_extensions(alg)
    return Frame(alg.dim, tuple(fields[: alg.layer_dims[0]]))
