"""Lie flags of concrete frames, stratified algebras and nilpotent frames.

Flag dimensions are computed from a Hall-indexed spanning set: the evaluated
brackets of Hall-set expressions of length up to the step.  Chains of every
shape span the same layers (antisymmetry and the Jacobi identity reduce any
bracket to combinations of Hall elements of the same length), so no other
family is evaluated; the engine-free references of the tests compare the
Hall span with the right-nested chains.  ``lie_flag``, ``formal_flag`` and
``ampleness.slice_report`` share one engine, ``_span_ranks``.  Per length it
yields the rank of all Hall values and, given a filter, the rank of the
values the filter keeps, both read from one span, an incremental
fraction-free row-echelon form (``linalg._Echelon``) that each value is
reduced into once, against the stored rows only:
``slice_report`` takes its maximal-growth check and its slice ranks from one
pass.

A step-s flag at p depends only on the (s-1)-jet of the frame at p, so the
engine brackets Taylor fields centred at p and reads each value off the
constant term, from the graded store ``polyfields._Graded``: the
``polyfields`` docstring describes the packed monomial, the leaf and the
store once, and this module neither packs nor unpacks a monomial.  The
store forms a part only when it is asked for, so each step asks for one
more degree, and once the ranks reach n no further part is formed: a flag
costs what the step where it saturates costs, whatever ``max_step`` says.
The leaves are of one class, ``polyfields._TaylorParts``, int Taylor parts
about p: ``lie_flag`` and ``slice_report`` expand the frame about p
(``polyfields._taylor_leaves``), one per-point expansion of the frame's
monomials that the leaves share, so each monomial is expanded once per
degree whatever the number of fields and components that hold it, and
``slice_report`` recombines those leaves into the adapted ones
(``polyfields._recombined``); ``formal_flag`` reads the Taylor fields its
jet fixes (``jetalg._taylor_fields``); it and ``lie_flag`` run one body,
``_flag``.
The engine generates Hall layers one length at a time, adds their values
to the span one at a time, forms no value once the span has rank n, and
stops early once a whole layer of brackets vanishes.  Layer 1 is the
leaves' values, so its rank is the independence check of the frame at the
point: ``_flag`` raises ``DegenerateFrame`` when it is below k, before any
bracket is formed.  Every rank is taken of integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import linalg
from .errors import (
    DegenerateFrame,
    DomainError,
    InvalidAlgebra,
    OrderOverflow,
)
from .freelie import hall_basis, is_free_type, maximal_growth_vector
from .linalg import _sizes, _tuple
from .polyfields import (
    Frame,
    Poly,
    PolyField,
    _Graded,
    _taylor_leaves,
    poly_lie_bracket,
)

__all__ = [
    "AlgebraValidation",
    "FlagReport",
    "StratifiedAlgebra",
    "formal_flag",
    "left_invariant_extensions",
    "lie_flag",
    "nilpotent_frame",
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


def _span_ranks(leaves, max_len, keep=None):
    """Yield, for i = 1..max_len, the pair (rank of the values of the Hall
    expressions of length <= i, rank of those of them ``keep(expr, i)``
    admits); the second is None when ``keep`` is None, and then the pairs
    stop after the first whose rank is n.

    ``keep`` is asked only of the expressions of length i, and every shorter
    expression counts: the kept rank at i is that of all values of length
    < i and the admitted ones of length i.  So the Hall values go into one
    span (``linalg._Echelon``) layer by layer, the admitted ones of a layer
    first, the kept rank is read before the rest of the layer, and each
    value is reduced once.  The span is a forward row-echelon form: a value
    is reduced against the stored rows, a stored row never changes, and
    the span's reduced form is never read here.  Once the span has rank n
    no further value is formed.

    The leaves are ``polyfields._TaylorParts``, Taylor fields about one
    centre kept as int parts, each the field times its own nonzero int; a
    value is a degree-0 part of the graded store ``polyfields._Graded``.
    Brackets are bilinear, so the scaled leaves multiply each value vector
    by a nonzero int, and no rank changes.

    Hall layers are generated one length at a time.  When ``keep`` is None
    and every field of a layer of length i > 1 vanishes through degree
    max_len - i, every longer bracket has value zero up to max_len too
    (L_{m+1} = [L_1, L_m]), so the ranks at i are yielded for all remaining
    lengths without generating further layers.
    """
    k = len(leaves)
    span = linalg._Echelon()

    def add(family) -> int:
        for e in family:
            if span.rank == n:
                break
            span.add(store.value(e))
        return span.rank

    for i in range(1, max_len + 1):
        layer = hall_basis(k, i).layers[i - 1]
        if i == 1:  # hall_basis has checked that there are leaves
            store = _Graded(leaves)
            n = store.n
        if keep is None:
            got = add(layer), None
        else:
            kept = add([e for e in layer if keep(e, i)])
            got = add([e for e in layer if not keep(e, i)]), kept
        yield got
        if keep is None and got[0] == n:
            return
        if keep is None and i > 1 and all(store.vanishes(e, max_len - i) for e in layer):
            for _ in range(i + 1, max_len + 1):
                yield got
            return


def _flag(leaves, point, max_step: int) -> FlagReport:
    """Flag of the leaves ``leaves`` about ``point``, made for
    ``max_step``: the Hall span ranks up to ``max_step``, stopped once they
    reach the ambient dimension.  Layer 1 is the leaves' values, so its
    rank is the independence check: below k it raises ``DegenerateFrame``
    before any bracket is formed."""
    k, n = len(leaves), len(point)
    ranks = _span_ranks(leaves, max_step)
    first, _ = next(ranks)
    if first < k:
        raise DegenerateFrame(f"frame vectors dependent at {tuple(point)}")
    dims = [first] + [dim for dim, _ in ranks]
    return _report_from_dims(k, n, point, dims)


def lie_flag(fr: Frame, point, max_step: int) -> FlagReport:
    """Exact flag dimensions of a polynomial frame at a rational point.

    The brackets are taken of the Taylor expansions of the frame about
    ``point``, one homogeneous part at a time: a length-l bracket needs its
    parts of degree <= s - l at step s, and a leaf its parts of degree
    <= s - 1.  Parts are formed only as the steps ask for them, so the flag
    costs what the step where it reaches n costs, whatever ``max_step``.
    """
    _sizes(max_step=max_step)
    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    leaves = _taylor_leaves(fr.fields, point, max_step - 1)
    return _flag(leaves, point, max_step)


def formal_flag(jet, max_step: int) -> FlagReport:
    """Flag dimensions computed purely from a jet (a ``jetalg.JetPoint``).

    The (max_step - 1)-jet fixes the order ``max_step - 1`` Taylor fields
    about its base point (``jetalg._taylor_fields``), and those are bracketed
    exactly as ``lie_flag`` brackets the Taylor expansions of a frame.
    """
    from . import jetalg  # here, so that lie_flag alone never loads it

    _sizes(max_step=max_step)
    if max_step < 1:
        raise DomainError("max_step must be >= 1")
    if max_step > jet.order + 1:
        raise OrderOverflow(
            f"step {max_step} needs jet order {max_step - 1}, have {jet.order}"
        )
    leaves = jetalg._taylor_fields(jet, max_step - 1)
    return _flag(leaves, jet.base, max_step)


@dataclass(frozen=True)
class StratifiedAlgebra:
    """Graded algebra data: layer dimensions and structure constants.

    ``table[(i, j)]`` with ``i < j`` maps basis indices ``m`` to the rational
    coefficient of e_m in [e_i, e_j]; omitted pairs are zero brackets and the
    antisymmetric completion is implied.  A key that is not a pair, or a
    table or row that is not a mapping (``linalg._mapping``), raises
    ``DomainError`` naming it.
    """

    layer_dims: tuple[int, ...]
    table: dict[tuple[int, int], dict[int, Fraction]]

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", _tuple(self.layer_dims, "layer dimensions"))
        for lay, d in enumerate(self.layer_dims, start=1):
            _sizes(**{f"layer dimension {lay} ({d!r})": d})
        if not self.layer_dims or any(d < 1 for d in self.layer_dims):
            raise DomainError("layer dimensions must be positive")
        total = self.dim
        norm: dict[tuple[int, int], dict[int, Fraction]] = {}
        for key, row in linalg._mapping(self.table, "structure table").items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DomainError(f"bracket key {key!r:.60} is not a pair (i, j)")
            i, j = key
            _sizes(**{f"index {x!r} of bracket pair {(i, j)}": x for x in (i, j)})
            if not (1 <= i < j <= total):
                raise DomainError(f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= {total}")
            entries = {}
            for m, c in linalg._mapping(row, f"row of bracket pair {key!r}").items():
                _sizes(**{f"target index {m!r} of [e{i}, e{j}]": m})
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
        return self._bracket(u, v, Fraction(0))

    def _bracket(self, u, v, zero) -> list:
        """[u, v] for coordinate sequences u, v of length ``dim`` over any
        ring whose zero is ``zero``: the sum over the table of
        c^m_ij (u_i v_j - u_j v_i) e_m."""
        out = [zero] * self.dim
        for (i, j), row in self.table.items():
            term = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            for m, c in row.items():
                out[m - 1] = out[m - 1] + term * c
        return out


@dataclass(frozen=True)
class AlgebraValidation:
    valid: bool
    kind: str | None = None
    detail: str | None = None


def validate_algebra(alg: StratifiedAlgebra) -> AlgebraValidation:
    """Check grading, the Jacobi identity, and generation by the first layer.

    Returns the first violated identity with witnesses instead of raising.
    Jacobi is checked on the basis triples i < j < l, in sorted order, that
    contain a pair with a nonzero table row: the defect of any other triple
    is a sum of brackets of zero, so a table of t rows costs about t * dim
    triples, not C(dim, 3).
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
    triples = {
        tuple(sorted((a, b, c)))
        for a, b in alg.table
        for c in range(1, n + 1)
        if c != a and c != b
    }
    for i, j, l in sorted(triples):
        defect: dict[int, Fraction] = {}
        for a, b, c in ((i, j, l), (j, l, i), (l, i, j)):
            for m, x in alg.bracket_basis(a, b).items():
                for t, y in alg.bracket_basis(m, c).items():
                    defect[t] = defect.get(t, 0) + x * y
        if any(defect.values()):
            acc = [Fraction(defect.get(m, 0)) for m in range(1, n + 1)]
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
        got = linalg.rank(rows)
        if got != alg.layer_dims[lay]:
            return AlgebraValidation(
                False,
                "generation",
                f"[layer 1, layer {lay}] spans only rank {got} of the "
                f"{alg.layer_dims[lay]}-dimensional layer {lay + 1}",
            )
    return AlgebraValidation(True)


def _series_coefficients(count: int) -> list[Fraction]:
    """The first ``count`` Taylor coefficients B_m / m! of z / (1 - e^(-z)):
    the Bernoulli numbers with B_1 = +1/2, from the recurrence
    sum_{j <= m} C(m + 1, j) B_j = m + 1."""
    bern: list[Fraction] = []
    for m in range(count):
        rest = sum(comb(m + 1, j) * b for j, b in enumerate(bern))
        bern.append(Fraction(m + 1 - rest, m + 1))
    return [b / factorial(m) for m, b in enumerate(bern)]


def left_invariant_extensions(alg: StratifiedAlgebra) -> list[PolyField]:
    """Left-invariant fields extending every basis vector, in exponential
    coordinates of the group: X_b(x) = sum_m coeff_m * ad_x^m(e_b).

    The linear part in y of log(exp(x) exp(y)) is z / (1 - e^(-z)) applied
    to y, z = ad_x, so coeff_m = B_m / m! with B_1 = +1/2 (B. C. Hall, *Lie
    Groups, Lie Algebras, and Representations*, 2nd ed., 2015, on the
    derivative of the exponential map).  ad_x^m vanishes for m >= step, so
    the coefficients are generated up to the step and every step is
    accepted.  Each family is checked exactly against the structure
    constants before it is returned.
    """
    report = validate_algebra(alg)
    if not report.valid:
        raise InvalidAlgebra(report)
    n = alg.dim
    coeffs = _series_coefficients(alg.step)
    x = [Poly.variable(n, i) for i in range(1, n + 1)]
    zero = Poly.zero(n)
    fields = []
    for b in range(1, n + 1):
        cur = [Poly.const(n, 1) if m == b else zero for m in range(1, n + 1)]
        acc = [p * coeffs[0] for p in cur]
        for c in coeffs[1:]:
            cur = alg._bracket(x, cur, zero)
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
