"""Hall bases of free Lie algebras, Witt dimensions and maximal growth vectors.

Bracket expressions are binary trees over generators ``X_1 .. X_k``.  The
total order used everywhere orders expressions by length first, then
lexicographically by structure: compare left subtrees, tie-break by right
subtrees, leaves compare by generator index.  A layer of a Hall set collects
the admissible expressions of one length in this order, so output is
deterministic.  Within each length the order is one valid choice among many;
layer *sizes* are forced (they must match the Witt dimension, which is
asserted during generation), layer *contents* are not canonical.

Each layer is built once per rank: the layers of a rank are one list in the
standard library's bounded cache (``functools.lru_cache``), which keeps the
``MAX_RANKS`` most recently used ranks and drops an older one, and
``hall_basis`` extends that list by whole layers as far as a call asks; the
layers depend on the rank alone, so a dropped rank rebuilds the same ones.
A ``BracketExpr`` carries its order key and its hash from construction, so
neither a comparison nor a lookup walks the tree.

``BracketExpr`` owns the bracket rules.  Every leaf, however it is built,
reads its generator index by the size rule of ``linalg._sizes`` (an int, not
a bool or a float) and refuses one below 1, and every expression checks its
shape when it is built: its length is a size too, a leaf has no subtrees and
length 1, a pair has two ``BracketExpr`` subtrees and the sum of their
lengths.
``BracketExpr.chain`` builds the right-nested chain
[X_g1, [X_g2, [... [X_g(l-1), X_gl] ...]]], the one spelling of the
convention that ``jetalg.bracket`` and the check suites read.
``witt_dimension`` owns its size bound: a value of more than
``linalg.MAX_DIGITS`` digits is a ``DomainError``.  Each value is computed
once and kept in a bounded cache (``_witt``, the ``MAX_WITT_DIMENSIONS``
most recent), which ``hall_basis`` reads for its cap total and its layer
sizes.  ``hall_basis`` refuses
a basis of more than ``MAX_HALL_ELEMENTS`` elements with ``CapExceeded``
before it builds a layer.  ``maximal_growth_vector`` depends on (k, n)
alone: it reads its sizes first, and a bounded cache (``_growth``) keeps
its ``MAX_GROWTH_VECTORS`` most recent answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .errors import CapExceeded, DomainError
from .linalg import _TOO_LONG, MAX_DIGITS, _sizes, _tuple

__all__ = [
    "BracketExpr",
    "GrowthVector",
    "HallBasis",
    "hall_basis",
    "is_free_type",
    "is_hall_element",
    "maximal_growth_vector",
    "mobius",
    "witt_dimension",
]


def mobius(m: int) -> int:
    """Classical Moebius function of a positive integer."""
    _sizes(m=m)
    if m < 1:
        raise DomainError(f"mobius is defined for m >= 1, got {m}")
    count = 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def witt_dimension(k: int, length: int) -> int:
    """Dimension of the degree-``length`` layer of the free Lie algebra on
    ``k`` generators: (1/length) * sum over d | length of mu(d) * k**(length/d).

    Computed in arbitrary-precision integers, the divisors walked in pairs
    (d, length/d) up to the square root; exact divisibility is asserted.  A
    value of more than ``linalg.MAX_DIGITS`` digits is a ``DomainError``,
    mostly told from bit lengths before anything is computed.  The sizes
    are read first; each value is computed once and kept (``_witt``).
    """
    _sizes(k=k, length=length)
    if k < 1 or length < 1:
        raise DomainError("witt_dimension needs k >= 1 and length >= 1")
    return _witt(k, length)


# The Witt dimensions of the MAX_WITT_DIMENSIONS most recently asked
# (k, length); a dropped one is computed again.
MAX_WITT_DIMENSIONS = 512


@lru_cache(maxsize=MAX_WITT_DIMENSIONS)
def _witt(k: int, length: int) -> int:
    """``witt_dimension`` of sizes already read: ints, both at least 1."""
    # W(k, l) >= (k^l - 2 k^(l/2)) / l >= k^l / (2 l) once k^(l/2) >= 4, so
    # bit lengths alone show most values past 10**MAX_DIGITS
    lower_bits = length * (k.bit_length() - 1) - 1 - length.bit_length()
    total = None
    if k < 2 or lower_bits < _TOO_LONG.bit_length():
        total = 0
        for d in range(1, isqrt(length) + 1):
            if length % d == 0:
                total += mobius(d) * k ** (length // d)
                if d * d != length:
                    total += mobius(length // d) * k**d
        if total % length != 0:
            raise AssertionError(f"Witt sum {total} not divisible by {length} for k={k}")
    if total is None or total // length >= _TOO_LONG:
        raise DomainError(
            f"witt dimension for {k} generators at length {length} has more than "
            f"{MAX_DIGITS} digits (parsing.MAX_DIGITS)"
        )
    return total // length


@dataclass(frozen=True)
class GrowthVector:
    """Strictly increasing flag dimensions; the step is the entry count."""

    entries: tuple[int, ...]

    @property
    def step(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


# The maximal growth vectors of the MAX_GROWTH_VECTORS most recently asked
# (k, n); a dropped one is computed again.
MAX_GROWTH_VECTORS = 128


def maximal_growth_vector(k: int, n: int) -> GrowthVector:
    """Entrywise-maximal growth vector of a rank-``k`` frame on dimension ``n``:
    cumulative Witt sums truncated so the last entry is ``n``.  The sizes
    are read first, so a bool, a float or an unhashable argument is a
    ``DomainError``; each answer is computed once and kept (``_growth``).
    """
    _sizes(k=k, n=n)
    if k < 2 or k >= n:
        raise DomainError(f"maximal growth vector needs 2 <= k < n, got k={k}, n={n}")
    return _growth(k, n)


@lru_cache(maxsize=MAX_GROWTH_VECTORS)
def _growth(k: int, n: int) -> GrowthVector:
    """``maximal_growth_vector`` of sizes already read: ints, 2 <= k < n."""
    entries = []
    total = 0
    length = 0
    while total < n:
        length += 1
        total += witt_dimension(k, length)
        entries.append(min(total, n))
    return GrowthVector(tuple(entries))


def is_free_type(gv: GrowthVector, k: int) -> bool:
    """True when the final entry equals the untruncated cumulative Witt sum,
    i.e. no truncation happened at the last step.
    """
    total = sum(witt_dimension(k, i) for i in range(1, gv.step + 1))
    return gv.entries[-1] == total


@dataclass(frozen=True, eq=False)
class BracketExpr:
    """Element of the free magma: a leaf ``X_g`` or a pair ``[left, right]``.

    Its order key, (1, (g,)) for a leaf and (length, (key of left, key of
    right)) for a pair, and its hash are set at construction from those of
    its subtrees; equal trees have equal keys, so ``==`` compares keys."""

    gen: int | None
    left: BracketExpr | None
    right: BracketExpr | None
    length: int
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        _sizes(**{"bracket length": self.length})
        if self.gen is not None:
            _sizes(**{f"generator index {self.gen!r}": self.gen})
            if self.gen < 1:
                raise DomainError(f"generator index must be positive, got {self.gen}")
            if (self.left, self.right, self.length) != (None, None, 1):
                raise DomainError(f"leaf X{self.gen} must have no subtrees and length 1")
            key = (1, (self.gen,))
        else:
            left, right = self.left, self.right
            if type(left) is not BracketExpr or type(right) is not BracketExpr:
                raise DomainError(f"a pair needs BracketExpr subtrees, got {type(left).__name__} and {type(right).__name__}")
            if self.length != (length := left.length + right.length):
                raise DomainError(f"bracket pair has length {self.length}, not its subtrees' {length}")
            key = (self.length, (left._key, right._key))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.gen, self.left, self.right, self.length)))

    @staticmethod
    def leaf(g: int) -> BracketExpr:
        return BracketExpr(g, None, None, 1)

    @staticmethod
    def pair(a: BracketExpr, b: BracketExpr) -> BracketExpr:
        # the constructor refuses a subtree that is not a BracketExpr
        length = a.length + b.length if type(a) is BracketExpr and type(b) is BracketExpr else 0
        return BracketExpr(None, a, b, length)

    @staticmethod
    def chain(gens) -> BracketExpr:
        """The right-nested chain [X_g1, [X_g2, [... [X_g(l-1), X_gl] ...]]]
        of the generator indices ``gens``: the leftmost is outermost."""
        gens = _tuple(gens, "bracket index")
        if not gens:
            raise DomainError("bracket needs a nonempty multi-index")
        expr = BracketExpr.leaf(gens[-1])
        for g in gens[-2::-1]:
            expr = BracketExpr.pair(BracketExpr.leaf(g), expr)
        return expr

    @property
    def is_leaf(self) -> bool:
        return self.gen is not None

    def leaves(self):
        """Generator indices in left-to-right order (with multiplicity)."""
        if self.is_leaf:
            yield self.gen
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def __str__(self) -> str:
        if self.is_leaf:
            return f"X{self.gen}"
        return f"[{self.left}, {self.right}]"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not BracketExpr:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __lt__(self, other: BracketExpr) -> bool:
        return self._key < other._key

    def __le__(self, other: BracketExpr) -> bool:
        return self._key <= other._key


def _key(e: BracketExpr) -> tuple:
    """The order key of ``e``: length first, then left and right subtrees."""
    return e._key


@dataclass(frozen=True)
class HallBasis:
    """Layers of a Hall set: ``layers[i]`` holds the length-``i+1`` elements,
    each layer sorted by the global order.
    """

    k: int
    layers: tuple[tuple[BracketExpr, ...], ...]

    def layer(self, length: int) -> tuple[BracketExpr, ...]:
        if not 1 <= length <= len(self.layers):
            raise DomainError(f"layer {length} not generated (max {len(self.layers)})")
        return self.layers[length - 1]

    def elements(self):
        return itertools.chain.from_iterable(self.layers)


def _is_admissible_pair(a: BracketExpr, b: BracketExpr) -> bool:
    """Condition on [a, b] given a, b already in the Hall set: a < b and
    b is a leaf or b = [c, d] with c <= a.
    """
    if not a < b:
        return False
    return b.is_leaf or b.left <= a


# The Hall layers of the MAX_RANKS most recently used ranks; a dropped rank
# rebuilds the same layers.  Called positionally, as lru_cache keys on the
# call.
MAX_RANKS = 4


@lru_cache(maxsize=MAX_RANKS)
def _layers(k: int) -> list[tuple[BracketExpr, ...]]:
    """The Hall layers of rank ``k`` built so far, from the leaves on;
    ``hall_basis`` appends whole layers to it."""
    return [tuple(BracketExpr.leaf(g) for g in range(1, k + 1))]


# The most Hall elements one basis may hold; read at each call.
MAX_HALL_ELEMENTS = 100_000


def hall_basis(k: int, max_len: int) -> HallBasis:
    """Generate Hall-set layers up to ``max_len``, checking each layer size
    against the Witt dimension.  A basis of more than ``MAX_HALL_ELEMENTS``
    elements raises ``CapExceeded`` before any layer is built.  Each layer
    is built once per rank (``_layers``).
    """
    _sizes(k=k, max_len=max_len)
    if k < 1 or max_len < 1:
        raise DomainError("hall_basis needs k >= 1 and max_len >= 1")
    # layer sizes are Witt dimensions, so the total is known in advance
    total = k
    for length in range(2, max_len + 1):
        total += _witt(k, length)
        if total > MAX_HALL_ELEMENTS:
            raise CapExceeded(
                f"Hall basis would exceed {MAX_HALL_ELEMENTS} elements "
                f"(freelie.MAX_HALL_ELEMENTS) at length {length}"
            )
    layers = _layers(k)
    for length in range(len(layers) + 1, max_len + 1):
        cands = []
        for la in range(1, length // 2 + 1):
            lb = length - la
            for a in layers[la - 1]:
                for b in layers[lb - 1]:
                    if _is_admissible_pair(a, b):
                        cands.append(BracketExpr.pair(a, b))
        cands.sort(key=_key)
        expected = _witt(k, length)
        if len(cands) != expected:
            raise AssertionError(
                f"layer {length} has {len(cands)} elements, Witt predicts {expected}"
            )
        # appended whole, so that a caller never sees a layer half built
        layers.append(tuple(cands))
    return HallBasis(k, tuple(layers[:max_len]))


def is_hall_element(e: BracketExpr, basis: HallBasis) -> bool:
    """Membership in the Hall set that ``basis`` samples, decided recursively
    from the defining conditions under the fixed total order.  The result does
    not depend on how many layers of ``basis`` were generated.
    """
    for g in e.leaves():
        if g > basis.k:
            raise DomainError(f"generator X{g} out of range 1..{basis.k}")

    def member(x: BracketExpr) -> bool:
        if x.is_leaf:
            return True
        return (
            member(x.left)
            and member(x.right)
            and _is_admissible_pair(x.left, x.right)
        )

    return member(e)
