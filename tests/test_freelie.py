import time
from functools import lru_cache

import pytest

from liegrowth import freelie as fl
from liegrowth.errors import CapExceeded, DomainError

from helpers import all_expressions, chain, leaf, pair


def _mobius_oracle(m):
    # independent route: full factorization by trial division
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def test_mobius_examples():
    assert fl.mobius(1) == 1
    assert fl.mobius(4) == 0
    assert fl.mobius(6) == _mobius_oracle(6) == 1


def test_mobius_against_oracle():
    for m in range(1, 200):
        assert fl.mobius(m) == _mobius_oracle(m)


def test_mobius_domain():
    with pytest.raises(DomainError):
        fl.mobius(0)
    # m is a size: a float, a bool or a string is refused, not computed
    for m, kind in ((1.5, "float"), (True, "bool"), ("3", "str")):
        with pytest.raises(DomainError, match=f"^m must be an int, got {kind}$"):
            fl.mobius(m)


def test_witt_examples():
    assert fl.witt_dimension(3, 3) == 8
    assert fl.witt_dimension(2, 1) == 2
    assert fl.witt_dimension(4, 3) == 20


def test_witt_divisibility_holds_widely():
    for k in range(1, 6):
        for length in range(1, 13):
            d = fl.witt_dimension(k, length)
            assert d >= 0
            if k >= 2:
                assert d > 0


def test_witt_dimension_owns_its_digit_bound():
    # a value of more than linalg.MAX_DIGITS digits is refused, from bit
    # lengths before it is computed; the divisors are walked to the square
    # root only, so a rank-1 layer, 0 past length 1, is quick at any length
    for k, length in ((2, 10**8), (3, 10**6), (1, 10**8)):
        start = time.perf_counter()
        if k == 1:
            assert fl.witt_dimension(k, length) == 0
        else:
            with pytest.raises(
                DomainError,
                match=f"^witt dimension for {k} generators at length {length} has more "
                r"than 4300 digits \(parsing\.MAX_DIGITS\)$",
            ):
                fl.witt_dimension(k, length)
        assert time.perf_counter() - start < 1, (k, length)
    # W(10, 4303) has 4300 digits and W(10, 4304) 4301, computed and refused
    assert len(str(fl.witt_dimension(10, 4303))) == 4300
    with pytest.raises(DomainError, match="has more than 4300 digits"):
        fl.witt_dimension(10, 4304)
    # the paired walk meets every divisor once, a square root included
    for k in (2, 3):
        for n in range(1, 50):
            every = sum(_mobius_oracle(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
            assert fl.witt_dimension(k, n) == every // n, (k, n)


def test_maximal_growth_vector_examples():
    gv = fl.maximal_growth_vector(3, 14)
    assert gv.entries == (3, 6, 14) and gv.step == 3
    gv = fl.maximal_growth_vector(3, 8)
    assert gv.entries == (3, 6, 8) and gv.step == 3
    gv = fl.maximal_growth_vector(2, 8)
    assert gv.entries == (2, 3, 5, 8) and gv.step == 4


def test_sizes_must_be_ints():
    for call, name in (
        (lambda: fl.witt_dimension(2.0, 3), "k"),
        (lambda: fl.witt_dimension(2, 2.5), "length"),
        (lambda: fl.witt_dimension(2.5, 2), "k"),
        (lambda: fl.maximal_growth_vector(2.0, 5), "k"),
        (lambda: fl.maximal_growth_vector(2, 5.0), "n"),
        (lambda: fl.hall_basis(2.0, 3), "k"),
        (lambda: fl.hall_basis(2, 3.0), "max_len"),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be an int, got float"):
            call()


def test_maximal_growth_vector_is_cached_and_still_reads_its_sizes():
    # one answer per (k, n), keyed on the types too: an equal float or
    # bool is refused after the int was answered
    gv = fl.maximal_growth_vector(2, 5)
    assert gv.entries == (2, 3, 5) and fl.maximal_growth_vector(2, 5) is gv
    with pytest.raises(DomainError, match="^n must be an int, got float"):
        fl.maximal_growth_vector(2, 5.0)
    with pytest.raises(DomainError, match="^k must be an int, got bool"):
        fl.maximal_growth_vector(True, 3)
    with pytest.raises(DomainError, match="^n must be an int, got bool"):
        fl.maximal_growth_vector(2, True)


def test_maximal_growth_vector_domain():
    with pytest.raises(DomainError):
        fl.maximal_growth_vector(1, 5)
    with pytest.raises(DomainError):
        fl.maximal_growth_vector(3, 3)
    with pytest.raises(DomainError):
        fl.maximal_growth_vector(4, 2)


def test_maximal_growth_vector_prefix_property():
    for k in (2, 3, 4):
        for n in range(k + 1, k + 12):
            gv = fl.maximal_growth_vector(k, n)
            assert gv.entries[0] == k
            assert gv.entries[-1] == n
            assert all(a < b for a, b in zip(gv.entries, gv.entries[1:]))
            cum = 0
            for idx, e in enumerate(gv.entries, start=1):
                cum += fl.witt_dimension(k, idx)
                if idx < gv.step:
                    assert e == cum < n
                else:
                    assert cum >= n


def test_free_type_examples():
    assert fl.is_free_type(fl.GrowthVector((2, 3, 5, 8)), 2)
    assert not fl.is_free_type(fl.GrowthVector((3, 6, 8)), 3)
    assert fl.is_free_type(fl.GrowthVector((2, 3, 5)), 2)
    assert fl.is_free_type(fl.GrowthVector((3, 6, 14)), 3)
    assert fl.is_free_type(fl.GrowthVector((4, 10, 30)), 4)
    assert not fl.is_free_type(fl.GrowthVector((4, 10, 11)), 4)


def test_hall_basis_layer2_k3():
    basis = fl.hall_basis(3, 2)
    assert [str(e) for e in basis.layer(2)] == ["[X1, X2]", "[X1, X3]", "[X2, X3]"]


def test_hall_basis_abelian():
    basis = fl.hall_basis(1, 3)
    assert [str(e) for e in basis.layer(1)] == ["X1"]
    assert basis.layer(2) == ()
    assert basis.layer(3) == ()


def _hall_conditions_oracle(e, order_key):
    """Direct re-statement of the defining conditions, used as an
    implementation-independent membership test.
    """
    if e.is_leaf:
        return True
    a, b = e.left, e.right
    if not (_hall_conditions_oracle(a, order_key) and _hall_conditions_oracle(b, order_key)):
        return False
    if not order_key(a) < order_key(b):
        return False
    if b.is_leaf:
        return True
    return order_key(b.left) <= order_key(a)


def test_hall_basis_layer3_k2_against_brute_force():
    basis = fl.hall_basis(2, 3)
    from liegrowth.freelie import _key

    expected = {
        e for e in all_expressions(2, 3)[3] if _hall_conditions_oracle(e, _key)
    }
    assert set(basis.layer(3)) == expected
    assert [str(e) for e in basis.layer(3)] == [
        "[X1, [X1, X2]]",
        "[X2, [X1, X2]]",
    ]


def test_hall_layer3_k3_matches_the_eight_listed():
    basis = fl.hall_basis(3, 3)
    got = [str(e) for e in basis.layer(3)]
    assert got == [
        "[X1, [X1, X2]]",
        "[X1, [X1, X3]]",
        "[X2, [X1, X2]]",
        "[X2, [X1, X3]]",
        "[X2, [X2, X3]]",
        "[X3, [X1, X2]]",
        "[X3, [X1, X3]]",
        "[X3, [X2, X3]]",
    ]


def test_hall_layer_sizes_match_witt():
    for k in (2, 3, 4):
        basis = fl.hall_basis(k, 6)
        for length in range(1, 7):
            assert len(basis.layer(length)) == fl.witt_dimension(k, length)


def test_hall_layers_sorted_and_ordered_by_length():
    basis = fl.hall_basis(3, 4)
    flat = list(basis.elements())
    for a, b in zip(flat, flat[1:]):
        assert a < b


def test_hall_cap(monkeypatch):
    # the cap is read at each call, and the error names it
    monkeypatch.setattr(fl, "MAX_HALL_ELEMENTS", 100)
    with pytest.raises(CapExceeded, match=(
        r"^Hall basis would exceed 100 elements \(freelie\.MAX_HALL_ELEMENTS\) at length 5$"
    )):
        fl.hall_basis(4, 6)
    monkeypatch.undo()
    assert fl.MAX_HALL_ELEMENTS == 100_000
    assert len(list(fl.hall_basis(4, 6).elements())) == 964


def test_hall_cap_is_checked_before_any_layer_is_built(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return True

    monkeypatch.setattr(fl, "_is_admissible_pair", counting)
    with pytest.raises(CapExceeded, match="length 20"):
        fl.hall_basis(2, 40)
    assert calls == []


def test_hall_basis_refuses_a_layer_of_the_wrong_size(monkeypatch):
    # with the admissible pair (X1, [X1, X2]) dropped, layer 3 of rank 2
    # has one element where the Witt dimension says 2; built on a fresh
    # cache, so that the shared one never holds the short layer
    dropped = (leaf(1), pair(leaf(1), leaf(2)))
    admissible = fl._is_admissible_pair
    monkeypatch.setattr(fl, "_is_admissible_pair", lambda a, b: (a, b) != dropped and admissible(a, b))
    monkeypatch.setattr(fl, "_layers", lru_cache(maxsize=fl.MAX_RANKS)(fl._layers.__wrapped__))
    assert len(fl.hall_basis(2, 2).layer(2)) == 1
    with pytest.raises(AssertionError, match="^layer 3 has 1 elements, Witt predicts 2$"):
        fl.hall_basis(2, 3)


def test_every_bracket_expression_checks_its_generators():
    # one generator rule, an int (linalg._sizes) and >= 1, on every path
    # that builds a leaf: the dataclass itself, ``leaf`` and ``chain``
    for build, match in (
        (lambda: fl.BracketExpr.leaf(1.5), "^generator index 1.5 must be an int, got float$"),
        (lambda: fl.BracketExpr.leaf(True), "^generator index True must be an int, got bool$"),
        (lambda: fl.BracketExpr(0, None, None, 1), "^generator index must be positive, got 0$"),
        (lambda: fl.BracketExpr.leaf(-2), "^generator index must be positive, got -2$"),
        (lambda: fl.BracketExpr.chain((1, 2.0)), "^generator index 2.0 must be an int, got float$"),
        (lambda: fl.BracketExpr.chain(()), "^bracket needs a nonempty multi-index$"),
        (lambda: fl.BracketExpr.chain(5), "^bracket index must be a sequence, got int$"),
    ):
        with pytest.raises(DomainError, match=match):
            build()


def test_every_bracket_expression_checks_its_shape():
    # a leaf has no subtrees and length 1; a pair has two BracketExpr
    # subtrees and the sum of their lengths, on every path that builds one
    x1, x2 = leaf(1), leaf(2)
    for build, match in (
        (lambda: fl.BracketExpr.pair(1, 2), "^a pair needs BracketExpr subtrees, got int and int$"),
        (lambda: fl.BracketExpr.pair(x1, None), "^a pair needs BracketExpr subtrees, got BracketExpr and None"),
        (lambda: fl.BracketExpr(None, None, None, 1), "^a pair needs BracketExpr subtrees, got NoneType and"),
        (lambda: fl.BracketExpr(1, None, None, 5), "^leaf X1 must have no subtrees and length 1$"),
        (lambda: fl.BracketExpr(1, x1, x2, 1), "^leaf X1 must have no subtrees and length 1$"),
        (lambda: fl.BracketExpr(None, x1, x2, 3), "^bracket pair has length 3, not its subtrees' 2$"),
        # the length is a size: a bool or an integral float is refused
        (lambda: fl.BracketExpr(1, None, None, True), "^bracket length must be an int, got bool$"),
        (lambda: fl.BracketExpr(None, x1, x2, 2.0), "^bracket length must be an int, got float$"),
    ):
        with pytest.raises(DomainError, match=match):
            build()
    assert fl.BracketExpr(None, x1, x2, 2) == fl.BracketExpr.pair(x1, x2)
    assert fl.BracketExpr(1, None, None, 1) == x1


def test_chain_nests_to_the_right():
    assert fl.BracketExpr.chain((3,)) == leaf(3)
    assert fl.BracketExpr.chain([1, 2, 3]) == pair(leaf(1), pair(leaf(2), leaf(3)))
    assert str(fl.BracketExpr.chain(iter((2, 1, 1, 2)))) == "[X2, [X1, [X1, X2]]]"
    assert fl.BracketExpr.chain((2, 1, 1, 2)).length == 4


def test_is_hall_element_examples():
    basis = fl.hall_basis(3, 3)
    assert fl.is_hall_element(pair(leaf(1), leaf(2)), basis)
    assert not fl.is_hall_element(pair(leaf(2), leaf(1)), basis)
    assert not fl.is_hall_element(pair(leaf(1), pair(leaf(2), leaf(3))), basis)


def test_is_hall_element_out_of_range():
    basis = fl.hall_basis(2, 2)
    with pytest.raises(DomainError):
        fl.is_hall_element(leaf(3), basis)


def test_membership_splits_generated_from_rest():
    for k in (2, 3):
        basis = fl.hall_basis(k, 4)
        members = set(basis.elements())
        for e in members:
            assert fl.is_hall_element(e, basis)
        by_len = all_expressions(k, 4)
        for ln in range(1, 5):
            for e in by_len[ln]:
                assert fl.is_hall_element(e, basis) == (e in members)


def test_ad_chains_are_members():
    for k in (2, 3, 4):
        basis = fl.hall_basis(k, 6)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j:
                    continue
                if j > i:
                    e = pair(leaf(i), leaf(j))
                else:
                    e = pair(leaf(j), leaf(i))
                while e.length <= 6:
                    assert fl.is_hall_element(e, basis), str(e)
                    e = pair(leaf(i), e)


def test_expression_order_is_total_on_small_set():
    exprs = [e for ln, es in all_expressions(2, 4).items() for e in es]
    from liegrowth.freelie import _key

    keys = [_key(e) for e in exprs]
    ranked = sorted(keys)
    for a, b in zip(ranked, ranked[1:]):
        assert a <= b
    # length dominates
    for e in all_expressions(2, 3)[3]:
        assert chain(1, 2) < e


def _hall_layers_oracle(k, max_len):
    """Per length, the brute-force Hall layer: every expression that meets
    the defining conditions, in the order of the recursive key below."""
    by_len = all_expressions(k, max_len)
    return [
        sorted((e for e in by_len[ln] if _hall_conditions_oracle(e, _key_oracle)), key=_key_oracle)
        for ln in range(1, max_len + 1)
    ]


def _key_oracle(e):
    """The order key by its recursive definition, walking the tree."""
    if e.is_leaf:
        return (1, (e.gen,))
    return (e.length, (_key_oracle(e.left), _key_oracle(e.right)))


def test_repeated_growing_and_shrinking_hall_calls_equal_a_fresh_build(monkeypatch):
    fl._layers.cache_clear()
    oracle = {k: _hall_layers_oracle(k, 5) for k in (1, 2, 3)}
    sequence = [(2, 1), (2, 3), (3, 2), (2, 5), (2, 2), (3, 5), (1, 4), (3, 4), (2, 5), (3, 1)]
    for k, length in sequence:
        got = fl.hall_basis(k, length)
        assert got.k == k and len(got.layers) == length
        assert [list(layer) for layer in got.layers] == oracle[k][:length]
        with monkeypatch.context() as m:  # a fresh cache, this one left as it is
            m.setattr(fl, "_layers", lru_cache(maxsize=fl.MAX_RANKS)(fl._layers.__wrapped__))
            assert fl.hall_basis(k, length) == got
    # the cached layers are the ones handed out, built once
    assert fl.hall_basis(2, 4).layers == fl.hall_basis(2, 5).layers[:4]
    assert all(a is b for a, b in zip(fl.hall_basis(3, 3).layers[2], fl.hall_basis(3, 5).layers[2]))


def test_hall_cache_keeps_few_ranks_and_a_dropped_rank_rebuilds_the_same():
    fl._layers.cache_clear()
    first = fl.hall_basis(2, 6)
    ranks = range(3, 3 + fl.MAX_RANKS + 2)
    built = {}
    for k in ranks:
        built[k] = fl.hall_basis(k, 3).layers
        assert fl._layers.cache_info().currsize == min(k - 1, fl.MAX_RANKS)
    # the MAX_RANKS most recent ranks are kept, read in the order they came
    info = fl._layers.cache_info()
    for k in ranks[-fl.MAX_RANKS :]:
        assert all(a is b for a, b in zip(fl.hall_basis(k, 3).layers[2], built[k][2]))
    assert fl._layers.cache_info().misses == info.misses
    # and the least recently used, rank 2, was dropped: it is built again, the same
    again = fl.hall_basis(2, 6)
    assert fl._layers.cache_info().misses == info.misses + 1
    assert again == first and again.layers[5][0] is not first.layers[5][0]
    # that pushed out the oldest kept rank
    oldest = ranks[-fl.MAX_RANKS]
    assert fl.hall_basis(oldest, 3).layers[2][0] is not built[oldest][2][0]


def test_hall_cap_is_checked_before_a_cached_rank_grows(monkeypatch):
    fl._layers.cache_clear()
    fl.hall_basis(2, 6)
    cached = fl._layers(2)
    built = tuple(cached)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return True

    monkeypatch.setattr(fl, "_is_admissible_pair", counting)
    monkeypatch.setattr(fl, "MAX_HALL_ELEMENTS", 60)
    with pytest.raises(CapExceeded, match="length 8"):
        fl.hall_basis(2, 8)
    assert calls == [] and fl._layers(2) is cached
    assert len(cached) == 6 and all(a is b for a, b in zip(cached, built))
    # a basis within the cap reads the cached layers and builds none
    assert fl.hall_basis(2, 6).layers == built
    assert calls == []


def test_independently_built_equal_expressions_agree_in_eq_hash_and_order():
    first = [e for es in all_expressions(2, 5).values() for e in es]
    second = [e for es in all_expressions(2, 5).values() for e in es]
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b)
        assert fl._key(a) == fl._key(b) == _key_oracle(a)
        assert a <= b and b <= a and not a < b
    assert len(set(first) | set(second)) == len(first)
    # the order of the one pair equals that of the other, and of the keys
    for a, b, a2, b2 in zip(first[::7], first[3::11], second[::7], second[3::11]):
        assert (a < b) == (a2 < b2) == (_key_oracle(a) < _key_oracle(b))
        assert (a == b) == (a2 == b2) == (str(a) == str(b))
    # a Hall element equals the expression built apart with the same text
    texts = {str(e): e for e in second}
    for e in fl.hall_basis(2, 5).elements():
        twin = texts[str(e)]
        assert twin == e and hash(twin) == hash(e) and fl._key(twin) == fl._key(e)
