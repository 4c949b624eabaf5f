"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from liegrowth import ampleness as amp
from liegrowth import catalog, flags, freelie, jetalg, linalg
from liegrowth.polyfields import AffineMap, frame_change, poly_lie_bracket, pushforward

from helpers import classical_chain_value, rand_fraction, rand_point, slice_report_reference


def _report(num: int, elapsed: float, limit: float, desc: str) -> None:
    print(f"criterion {num}: PASS in {elapsed:.2f}s (limit {limit:.0f}s) - {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_witt_hall_agreement():
    t0 = time.time()
    for k in (2, 3, 4):
        basis = freelie.hall_basis(k, 6)
        for length in range(1, 7):
            assert len(basis.layer(length)) == freelie.witt_dimension(k, length)
    assert freelie.witt_dimension(3, 3) == 8
    assert len(freelie.hall_basis(3, 3).layer(3)) == 8
    _report(1, time.time() - t0, 5, "hall layer sizes equal Witt dimensions")


def test_criterion_2_growth_vectors():
    t0 = time.time()
    free_cases = {
        (2, 5): (2, 3, 5),
        (2, 8): (2, 3, 5, 8),
        (3, 14): (3, 6, 14),
        (4, 30): (4, 10, 30),
    }
    non_free_cases = {
        (3, 8): (3, 6, 8),
        (4, 11): (4, 10, 11),
    }
    for (k, n), entries in free_cases.items():
        gv = freelie.maximal_growth_vector(k, n)
        assert gv.entries == entries
        assert freelie.is_free_type(gv, k)
    for (k, n), entries in non_free_cases.items():
        gv = freelie.maximal_growth_vector(k, n)
        assert gv.entries == entries
        assert not freelie.is_free_type(gv, k)
    _report(2, time.time() - t0, 1, "free and non-free growth vectors reproduced")


def _bracket_cache(k, n, max_len):
    cache = {}
    for a in range(1, k + 1):
        cache[(a,)] = jetalg.bracket((a,), k, n, max_len)
    for ln in range(2, max_len + 1):
        for index in itertools.product(range(1, k + 1), repeat=ln):
            cache[index] = jetalg.diffvec_bracket(cache[index[:1]], cache[index[1:]])
    return cache


def test_criterion_3_symbolic_identities():
    t0 = time.time()
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            cache = _bracket_cache(k, n, 4)
            for index, vec in cache.items():
                if len(index) >= 2:
                    swapped = index[:-2] + (index[-1], index[-2])
                    assert (vec + cache[swapped]).is_zero(), (k, n, index)
                assert vec.order() <= len(index) - 1, (k, n, index)
            for a, b, c in itertools.product(range(1, k + 1), repeat=3):
                total = cache[(a, b, c)] + cache[(b, c, a)] + cache[(c, a, b)]
                assert total.is_zero(), (k, n, (a, b, c))
    _report(3, time.time() - t0, 60, "antisymmetry, Jacobi and order bounds exact")


def test_criterion_4_perpendicularity():
    t0 = time.time()
    k, n = 3, 3
    cache = _bracket_cache(k, n, 4)
    for t in (1, 3):
        for index, vec in cache.items():
            ln = len(index)
            if ln < 2:
                continue
            for s1 in range(ln):
                for s2 in range(s1 + 1, ln):
                    assignment = {
                        jetalg.JetVar(index[s1], t, ()): 0,
                        jetalg.JetVar(index[s2], t, ()): 0,
                    }
                    sub = jetalg.substitute_vec(vec, assignment)
                    assert not jetalg.pure_t_vars(sub, t, ln - 1), (t, index, s1, s2)
    t_dir = 1
    adapted = {jetalg.JetVar(1, t_dir, ()): 1}
    for m in range(2, k + 1):
        adapted[jetalg.JetVar(m, t_dir, ())] = 0
    for ln in (2, 3, 4):
        for j in range(2, k + 1):
            index = (1,) * (ln - 1) + (j,)
            sub = jetalg.substitute_vec(cache[index], adapted)
            pure_col = jetalg.DiffVec(
                tuple(
                    jetalg.DiffPoly.var(j, i, (t_dir,) * (ln - 1), k, n, 4)
                    for i in range(1, n + 1)
                )
            )
            rest = sub - pure_col
            assert not jetalg.pure_t_vars(rest, t_dir, ln - 1), index
    _report(4, time.time() - t0, 60, "adapted substitutions remove top pure derivatives")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    r = 4
    for name, fr in catalog.catalog_frames().items():
        k, n = fr.k, fr.n
        points = [rand_point(rng, n) for _ in range(10)]
        jets = [jetalg.jet_of_frame(fr, p, r - 1) for p in points]
        classical = {}
        for ln in range(1, r + 1):
            for index in itertools.product(range(1, k + 1), repeat=ln):
                classical[index] = [
                    classical_chain_value(fr, index, p) for p in points
                ]
        sym_cache = {
            (a,): jetalg.bracket((a,), k, n, r) for a in range(1, k + 1)
        }
        for index in sym_cache:
            for i, jet in enumerate(jets):
                assert jetalg.evaluate(sym_cache[index], jet) == classical[index][i]
        for ln in range(2, r + 1):
            keep = ln < r  # top level is evaluated and discarded
            for index in itertools.product(range(1, k + 1), repeat=ln):
                vec = jetalg.diffvec_bracket(sym_cache[index[:1]], sym_cache[index[1:]])
                for i, jet in enumerate(jets):
                    got = jetalg.evaluate(vec, jet)
                    assert got == classical[index][i], (name, index, i)
                if keep:
                    sym_cache[index] = vec
    _report(5, time.time() - t0, 60, "bracket symbols equal classical brackets on 5 frames")


def test_criterion_6_nilpotent_frames():
    t0 = time.time()
    cases = (
        (catalog.heisenberg_algebra(), (2, 3)),
        (catalog.engel_algebra(), (2, 3, 4)),
        (catalog.free_rank2_step3_algebra(), (2, 3, 5)),
    )
    for alg, dims in cases:
        fields = flags.left_invariant_extensions(alg)
        for i in range(1, alg.dim + 1):
            for j in range(i + 1, alg.dim + 1):
                got = poly_lie_bracket(fields[i - 1], fields[j - 1])
                want = fields[0].zero(alg.dim)
                for m, c in alg.bracket_basis(i, j).items():
                    want = want + fields[m - 1].scale(c)
                assert got == want, (alg.layer_dims, i, j)
        frame = flags.nilpotent_frame(alg)
        rep = flags.lie_flag(frame, (0,) * alg.dim, len(dims))
        assert rep.dims == dims
    _report(6, time.time() - t0, 30, "structure constants certified, flags correct")


def test_criterion_7_ampleness_dichotomy():
    t0 = time.time()
    V = amp.Verdict
    heis = catalog.heisenberg_frame()
    for v in ((1, 0, 0), (1, 1, 0), (1, 0, 2), (Fraction(1, 2), 3, -1)):
        reps = amp.slice_report(heis, (0, 0, 0), v, 2)
        assert reps[-1].verdict is V.NOT_AMPLE_HYPERPLANE, v
    engel = catalog.engel_frame()
    reps = amp.slice_report(engel, (0,) * 4, (1, 0, 0, 0), 3)
    assert reps == slice_report_reference(engel, (0,) * 4, (1, 0, 0, 0), 3, chains=True)
    assert reps[-1].verdict is V.NOT_AMPLE_HYPERPLANE
    for v in ((1, 0, 0, 0), (1, 0, 2, 0), (1, 0, 0, -3)):
        reps = amp.slice_report(engel, (0,) * 4, v, 3)
        assert reps[-1].verdict is V.NOT_AMPLE_HYPERPLANE, v
        for rep in reps[:-1]:
            assert rep.verdict is V.AMPLE_THIN_COMPLEMENT
    rng = random.Random(77)
    free3 = catalog.free_rank3_step2_frame()
    directions = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)]
    directions += [tuple(rand_fraction(rng, 3, 2) for _ in range(6)) for _ in range(5)]
    for v in directions:
        if all(x == 0 for x in v):
            continue
        reps = amp.slice_report(free3, (0,) * 6, v, 2)
        for rep in reps:
            assert rep.verdict is not V.NOT_AMPLE_HYPERPLANE, v
            if rep.i < 2 and not rep.normal:
                assert rep.verdict is V.AMPLE_THIN_COMPLEMENT
                assert rep.m_i + free3.k - 1 == rep.n_i
    _report(7, time.time() - t0, 60, "rank-2 hyperplane vs rank-3 ample split reproduced")


def test_criterion_8_constructive_convexity():
    t0 = time.time()
    rng = random.Random(4096)
    for n in (2, 3, 4):
        done = 0
        while done < 50:
            m = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            w = amp.gl_convex_decomposition(m)
            assert w.average() == tuple(tuple(Fraction(x) for x in row) for row in m)
            assert sum(w.weights()) == 1
            d = linalg.det(m)
            for _, member in w.terms:
                dm = linalg.det(member)
                assert dm != 0
                if d != 0:
                    assert (dm > 0) != (d > 0)
            done += 1
    fixed = [[1, 0], [0, 1], [0, 0]]
    coeffs = amp.det_affine_in_free_column(fixed)
    assert any(c != 0 for c in coeffs)
    spec = amp.MatrixSpaceSpec(3, 3, fixed, 3)
    assert amp.classify_matrix_space(spec) is amp.Verdict.NOT_AMPLE_HYPERPLANE
    kernel_target = [[1, 0, 4], [0, 1, -1], [0, 0, 0]]
    assert linalg.dot(coeffs, [row[2] for row in kernel_target]) == 0
    for sign in (1, -1):
        found = amp.hull_membership_witness(
            spec, kernel_target, sign, budget=10_000, seed=13
        )
        assert found is None
    _report(8, time.time() - t0, 120, "decompositions validated, hyperplane unreachable")


def test_criterion_9_invariance():
    t0 = time.time()
    rng = random.Random(515)
    for name, fr in catalog.catalog_frames().items():
        r = len(catalog.expected_dims()[name])
        p = (0,) * fr.n
        base = flags.lie_flag(fr, p, r).dims
        for _ in range(20):
            while True:
                lin = [
                    [rand_fraction(rng, 2, 2) for _ in range(fr.n)]
                    for _ in range(fr.n)
                ]
                if linalg.det(lin) != 0:
                    break
            amap = AffineMap.make(lin, [rand_fraction(rng, 2, 2) for _ in range(fr.n)])
            moved = pushforward(fr, amap)
            assert flags.lie_flag(moved, amap.apply(p), r).dims == base, name
        for _ in range(10):
            while True:
                g = [
                    [rand_fraction(rng, 3, 2) for _ in range(fr.k)]
                    for _ in range(fr.k)
                ]
                if linalg.det(g) != 0:
                    break
            assert flags.lie_flag(frame_change(fr, g), p, r).dims == base, name
    _report(9, time.time() - t0, 60, "flags invariant under pushforwards and frame changes")
