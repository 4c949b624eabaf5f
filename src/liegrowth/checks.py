"""Self-contained invariant suites behind the ``check`` CLI subcommand.

Each suite returns (name, passed, detail) triples; suites are deterministic
given the seed.  They are smaller cousins of the acceptance tests, meant for
quick end-to-end verification from the command line.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import ampleness as amp
from . import catalog, flags, freelie, jetalg, linalg
from .polyfields import AffineMap, poly_lie_bracket, pushforward

__all__ = ["SUITES", "run_suite"]


def rand_fraction(rng, span=6, den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_point(rng, n, span=3, den=3) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, span, den) for _ in range(n))


def all_expressions(k, max_len):
    """All bracket expressions over k generators up to a length."""
    by_len = {1: [freelie.BracketExpr.leaf(g) for g in range(1, k + 1)]}
    for ln in range(2, max_len + 1):
        acc = []
        for la in range(1, ln):
            for a in by_len[la]:
                for b in by_len[ln - la]:
                    acc.append(freelie.BracketExpr.pair(a, b))
        by_len[ln] = acc
    return by_len


def suite_hall(rng) -> list[tuple[str, bool, str]]:
    out = []
    ok = all(
        len(freelie.hall_basis(k, 6).layer(l)) == freelie.witt_dimension(k, l)
        for k in (2, 3, 4)
        for l in range(1, 7)
    )
    out.append(("hall layer sizes match the Witt formula", ok, "k in 2..4, len <= 6"))
    ok = True
    for k in (2, 3):
        basis = freelie.hall_basis(k, 4)
        for e in basis.elements():
            ok = ok and freelie.is_hall_element(e, basis)
        members = set(basis.elements())
        by_len = all_expressions(k, 4)
        for ln in range(2, 5):
            for e in by_len[ln]:
                if e not in members and freelie.is_hall_element(e, basis):
                    ok = False
    out.append(("membership agrees with enumeration", ok, "k <= 3, len <= 4"))
    ok = True
    for k in (2, 3, 4):
        basis = freelie.hall_basis(k, 5)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j:
                    continue
                inner = (
                    freelie.BracketExpr.pair(
                        freelie.BracketExpr.leaf(i), freelie.BracketExpr.leaf(j)
                    )
                    if j > i
                    else freelie.BracketExpr.pair(
                        freelie.BracketExpr.leaf(j), freelie.BracketExpr.leaf(i)
                    )
                )
                e = inner
                while e.length < 5:
                    e = freelie.BracketExpr.pair(freelie.BracketExpr.leaf(i), e)
                    if not freelie.is_hall_element(e, basis):
                        ok = False
    out.append(("iterated wrap chains are Hall elements", ok, "k <= 4, len <= 5"))
    ok = True
    for k in (2, 3, 4):
        for n in range(k + 1, k + 9):
            gv = freelie.maximal_growth_vector(k, n)
            cum = 0
            for idx, e in enumerate(gv.entries, start=1):
                cum += freelie.witt_dimension(k, idx)
                if idx < gv.step and e != cum:
                    ok = False
                if idx == gv.step and e != n:
                    ok = False
            if any(a >= b for a, b in zip(gv.entries, gv.entries[1:])):
                ok = False
    out.append(("growth vectors prefix the cumulative Witt sums", ok, ""))
    return out


def suite_jet(rng) -> list[tuple[str, bool, str]]:
    out = []
    n = 3
    ok = True
    for k in (2, 3):
        for ln in range(2, 4):
            for index in itertools.product(range(1, k + 1), repeat=ln):
                b = jetalg.bracket(index, k, n, ln)
                swapped = index[:-2] + (index[-1], index[-2])
                if not (b + jetalg.bracket(swapped, k, n, ln)).is_zero():
                    ok = False
                if b.order() > ln - 1:
                    ok = False
    out.append(("antisymmetry and order bound", ok, "k <= 3, len <= 3, n = 3"))
    ok = True
    k = 3
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        s = (
            jetalg.bracket((a, b, c), k, n, 3)
            + jetalg.bracket((b, c, a), k, n, 3)
            + jetalg.bracket((c, a, b), k, n, 3)
        )
        if not s.is_zero():
            ok = False
    out.append(("Jacobi identity", ok, "k = 3, n = 3"))
    ok = True
    for a, b in itertools.product(range(1, 3), repeat=2):
        p = jetalg.DiffPoly.var(a, 1, (), 2, 2, 4) * jetalg.DiffPoly.var(b, 2, (), 2, 2, 4)
        d12 = jetalg.derive(jetalg.derive(p, 1), 2)
        d21 = jetalg.derive(jetalg.derive(p, 2), 1)
        if d12 != d21:
            ok = False
    out.append(("derivations commute", ok, ""))
    ok = True
    k, n = 3, 3
    for ln in (2, 3):
        for index in itertools.product(range(1, k + 1), repeat=ln):
            b = jetalg.bracket(index, k, n, ln)
            for s1 in range(ln):
                for s2 in range(s1 + 1, ln):
                    assignment = {
                        jetalg.JetVar(index[s1], 1, ()): 0,
                        jetalg.JetVar(index[s2], 1, ()): 0,
                    }
                    sub = jetalg.substitute_vec(b, assignment)
                    if jetalg.pure_t_vars(sub, 1, ln - 1):
                        ok = False
    out.append(("orthogonal components kill top pure derivatives", ok, "t = 1"))
    return out


def suite_flags(rng) -> list[tuple[str, bool, str]]:
    out = []
    frames = catalog.catalog_frames()
    expected = catalog.expected_dims()
    ok = all(
        flags.lie_flag(fr, (0,) * fr.n, len(expected[name])).dims == expected[name]
        for name, fr in frames.items()
    )
    out.append(("catalog flags at the origin", ok, ", ".join(sorted(frames))))
    ok = True
    for name, fr in frames.items():
        r = len(expected[name])
        jet = jetalg.jet_of_frame(fr, rand_point(rng, fr.n), max(r, 3) - 1)
        for index in itertools.product(range(1, fr.k + 1), repeat=min(r, 3)):
            sym = jetalg.evaluate(jetalg.bracket(index, fr.k, fr.n, jet.order + 1), jet)
            cur = fr.fields[index[-1] - 1]
            for c in reversed(index[:-1]):
                cur = poly_lie_bracket(fr.fields[c - 1], cur)
            if sym != cur.value_at(jet.base):
                ok = False
    out.append(("bracket symbols agree with classical brackets", ok, "one random point each"))
    ok = True
    for name, fr in frames.items():
        r = len(expected[name])
        for _ in range(4):
            while True:
                lin = [[rand_fraction(rng, 2, 2) for _ in range(fr.n)] for _ in range(fr.n)]
                if linalg.det(lin) != 0:
                    break
            amap = AffineMap.make(lin, [rand_fraction(rng, 2, 2) for _ in range(fr.n)])
            p = rand_point(rng, fr.n)
            moved = pushforward(fr, amap)
            if flags.lie_flag(moved, amap.apply(p), r).dims != flags.lie_flag(fr, p, r).dims:
                ok = False
    out.append(("flags invariant under affine pushforward", ok, "4 maps per frame"))
    ok = True
    for alg, dims in (
        (catalog.heisenberg_algebra(), (2, 3)),
        (catalog.engel_algebra(), (2, 3, 4)),
        (catalog.free_rank2_step3_algebra(), (2, 3, 5)),
    ):
        fr = flags.nilpotent_frame(alg)
        for point in [(0,) * fr.n] + [rand_point(rng, fr.n) for _ in range(2)]:
            if flags.lie_flag(fr, point, len(dims)).dims != dims:
                ok = False
    out.append(("nilpotent frames realize their layer dimensions", ok, ""))
    return out


def suite_ampleness(rng) -> list[tuple[str, bool, str]]:
    out = []
    ok = True
    for n in (2, 3):
        for _ in range(8):
            mat = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            w = amp.gl_convex_decomposition(mat)
            if w.average() != tuple(tuple(Fraction(x) for x in row) for row in mat):
                ok = False
    out.append(("convex decompositions re-average exactly", ok, "n in 2..3"))
    ok = True
    fr = catalog.heisenberg_frame()
    reps = amp.slice_report(fr, (0, 0, 0), (1, 0, 0), 2)
    ok = ok and reps[-1].verdict is amp.Verdict.NOT_AMPLE_HYPERPLANE
    reps = amp.slice_report(fr, (0, 0, 0), (0, 0, 1), 2)
    ok = ok and all(r.verdict is amp.Verdict.TRIVIALLY_AMPLE_FULL for r in reps)
    eng = catalog.engel_frame()
    reps = amp.slice_report(eng, (0,) * 4, (1, 0, 0, 0), 3)
    ok = ok and reps[-1].verdict is amp.Verdict.NOT_AMPLE_HYPERPLANE
    f3 = catalog.free_rank3_step2_frame()
    reps = amp.slice_report(f3, (0,) * 6, (1, 0, 0, 0, 0, 0), 2)
    ok = ok and reps[-1].verdict is amp.Verdict.AMPLE_NON_THIN
    ok = ok and all(
        r.verdict is amp.Verdict.AMPLE_THIN_COMPLEMENT and r.m_i + f3.k - 1 == r.n_i
        for r in reps[:-1]
    )
    out.append(("slice dichotomy on catalog frames", ok, "heisenberg, engel, free3"))
    ok = True
    spec = amp.MatrixSpaceSpec(3, 3, [[1, 0], [0, 1], [0, 0]], 3)
    ok = ok and amp.classify_matrix_space(spec) is amp.Verdict.NOT_AMPLE_HYPERPLANE
    coeffs = amp.det_affine_in_free_column([[1, 0], [0, 1], [0, 0]])
    ok = ok and any(c != 0 for c in coeffs)
    kernel_target = [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    found = amp.hull_membership_witness(spec, kernel_target, 1, budget=600, seed=rng.randint(0, 10**6))
    ok = ok and found is None
    out.append(("hyperplane obstruction witnessed", ok, ""))
    return out


SUITES = {
    "hall": suite_hall,
    "jet": suite_jet,
    "flags": suite_flags,
    "ampleness": suite_ampleness,
}


def run_suite(name: str, seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    if name == "all":
        out = []
        for key in ("hall", "jet", "flags", "ampleness"):
            out.extend(
                (f"{key}: {label}", passed, detail)
                for label, passed, detail in SUITES[key](rng)
            )
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](rng)
