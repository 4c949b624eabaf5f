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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapExceeded, DomainError
from .linalg import _sizes

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

    Computed in arbitrary-precision integers; exact divisibility is asserted.
    """
    _sizes(k=k, length=length)
    if k < 1 or length < 1:
        raise DomainError("witt_dimension needs k >= 1 and length >= 1")
    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += mobius(d) * k ** (length // d)
    if total % length != 0:
        raise AssertionError(
            f"Witt sum {total} not divisible by {length} for k={k}"
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


def maximal_growth_vector(k: int, n: int) -> GrowthVector:
    """Entrywise-maximal growth vector of a rank-``k`` frame on dimension ``n``:
    cumulative Witt sums truncated so the last entry is ``n``.
    """
    _sizes(k=k, n=n)
    if k < 2 or k >= n:
        raise DomainError(f"maximal growth vector needs 2 <= k < n, got k={k}, n={n}")
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
        if self.gen is not None:
            key = (1, (self.gen,))
        else:
            key = (self.length, (self.left._key, self.right._key))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.gen, self.left, self.right, self.length)))

    @staticmethod
    def leaf(g: int) -> BracketExpr:
        if g < 1:
            raise DomainError(f"generator index must be positive, got {g}")
        return BracketExpr(g, None, None, 1)

    @staticmethod
    def pair(a: BracketExpr, b: BracketExpr) -> BracketExpr:
        return BracketExpr(None, a, b, a.length + b.length)

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


def hall_basis(k: int, max_len: int, cap: int = 100_000) -> HallBasis:
    """Generate Hall-set layers up to ``max_len``, checking each layer size
    against the Witt dimension.  ``cap`` bounds the total element count; a
    basis that would exceed it raises ``CapExceeded`` before any layer is
    built.  Each layer is built once per rank (``_layers``).
    """
    _sizes(k=k, max_len=max_len)
    if k < 1 or max_len < 1:
        raise DomainError("hall_basis needs k >= 1 and max_len >= 1")
    # layer sizes are Witt dimensions, so the total is known in advance
    total = k
    for length in range(2, max_len + 1):
        total += witt_dimension(k, length)
        if total > cap:
            raise CapExceeded(
                f"Hall basis would exceed {cap} elements at length {length}"
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
        expected = witt_dimension(k, length)
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
