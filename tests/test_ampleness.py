import importlib
import itertools
import pkgutil
import random
import time
from fractions import Fraction

import pytest

import liegrowth
from liegrowth import ampleness as amp
from liegrowth import catalog, flags, linalg, polyfields
from liegrowth.errors import (
    DegenerateFrame,
    DomainError,
    NormalDirection,
    NotAmple,
    NotFormalSolution,
    Unclassified,
)

from liegrowth.flags import StratifiedAlgebra, nilpotent_frame
from liegrowth.freelie import hall_basis, maximal_growth_vector
from liegrowth.polyfields import Frame, Poly, PolyField

from helpers import (
    F,
    adapted_change_reference,
    bench_workloads,
    chain,
    rand_fraction,
    rand_point,
    slice_report_reference,
)

V = amp.Verdict


def _mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# --- classify_matrix_space ----------------------------------------------------


def test_classify_square_gl_case():
    spec = amp.MatrixSpaceSpec(3, 3, [[1], [0], [0]], 3)
    assert amp.classify_matrix_space(spec) is V.AMPLE_NON_THIN


def test_classify_square_hyperplane_case():
    spec = amp.MatrixSpaceSpec(3, 3, [[1, 0], [0, 1], [0, 0]], 3)
    assert amp.classify_matrix_space(spec) is V.NOT_AMPLE_HYPERPLANE


def test_classify_wide_full_case():
    spec = amp.MatrixSpaceSpec(2, 4, [[1, 0], [0, 1]], 2)
    assert amp.classify_matrix_space(spec) is V.TRIVIALLY_AMPLE_FULL


def test_classify_wide_thin_case():
    spec = amp.MatrixSpaceSpec(3, 5, [[1, 0], [0, 1], [0, 0]], 3)
    assert amp.classify_matrix_space(spec) is V.AMPLE_THIN_COMPLEMENT


def test_classify_dependent_columns_empty():
    spec = amp.MatrixSpaceSpec(3, 3, [[1, 2], [0, 0], [0, 0]], 3)
    assert amp.classify_matrix_space(spec) is V.EMPTY_TRIVIALLY_AMPLE


def test_classify_unclassified_cases():
    with pytest.raises(Unclassified):
        amp.classify_matrix_space(amp.MatrixSpaceSpec(3, 2, [[1], [0], [0]], 2))
    with pytest.raises(Unclassified):
        amp.classify_matrix_space(
            amp.MatrixSpaceSpec(2, 2, [[1, 0], [0, 1]], 2)
        )
    with pytest.raises(Unclassified):
        amp.classify_matrix_space(amp.MatrixSpaceSpec(3, 3, [[1], [0], [0]], 2))


# --- gl_convex_decomposition ----------------------------------------------------


def test_gl_identity_two_by_two():
    w = amp.gl_convex_decomposition([[1, 0], [0, 1]])
    assert w.weights() == (F(1, 2), F(1, 2))
    assert w.terms[0][1] == _mat([[3, 0], [0, -1]])
    assert w.terms[1][1] == _mat([[-1, 0], [0, 3]])
    assert w.average() == _mat([[1, 0], [0, 1]])
    assert all(linalg.det(m) == -3 for _, m in w.terms)


def test_gl_reaverages_exactly():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(10):
            m = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            try:
                w = amp.gl_convex_decomposition(m)
            except NotAmple:
                raise
            assert w.average() == _mat(m)


def test_gl_opposite_signs_for_nonsingular():
    rng = random.Random(19)
    for n in (2, 3):
        done = 0
        while done < 10:
            m = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            d = linalg.det(m)
            if d == 0:
                continue
            w = amp.gl_convex_decomposition(m)
            for _, member in w.terms:
                dm = linalg.det(member)
                assert dm != 0 and (dm > 0) != (d > 0)
            done += 1


def test_gl_singular_shift_example():
    w = amp.gl_convex_decomposition([[1, 0], [0, 0]])
    assert w.terms[0][1] == _mat([[-2, 0], [0, -4]])  # 2(M - 2I), mu = 2
    assert w.terms[1][1] == _mat([[4, 0], [0, 4]])  # 2 mu I
    assert w.average() == _mat([[1, 0], [0, 0]])
    for _, member in w.terms:
        assert linalg.det(member) != 0


def test_gl_refuses_one_by_one():
    with pytest.raises(NotAmple):
        amp.gl_convex_decomposition([[5]])


# --- det_affine_in_free_column ----------------------------------------------------


def test_det_affine_identity_columns():
    c = amp.det_affine_in_free_column([[1, 0], [0, 1], [0, 0]])
    assert c == (0, 0, 1)


def test_det_affine_dependent_columns_zero():
    c = amp.det_affine_in_free_column([[1, 2], [2, 4], [3, 6]])
    assert c == (0, 0, 0)


def test_det_affine_matches_direct_determinants():
    rng = random.Random(23)
    for _ in range(10):
        fixed = [[rand_fraction(rng) for _ in range(2)] for _ in range(3)]
        c = amp.det_affine_in_free_column(fixed)
        for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, F(1, 2))):
            full = [list(fixed[i]) + [Fraction(w[i])] for i in range(3)]
            assert linalg.det(full) == linalg.dot(c, w)


# --- adapted_frame ----------------------------------------------------------------


def test_adapted_frame_direction_inside_span():
    fr = catalog.heisenberg_frame()
    vals = amp.adapted_frame(fr, (0, 0, 0), (1, 0, 0))
    assert vals == ((1, 0, 0), (0, 1, 0))


def test_adapted_frame_normal_direction_rejected():
    fr = catalog.heisenberg_frame()
    with pytest.raises(NormalDirection):
        amp.adapted_frame(fr, (0, 0, 0), (0, 0, 1))


def test_adapted_frame_zero_direction_rejected():
    fr = catalog.heisenberg_frame()
    with pytest.raises(DomainError):
        amp.adapted_frame(fr, (0, 0, 0), (0, 0, 0))


def test_adapted_frame_projection_and_rescale():
    fr = catalog.heisenberg_frame()
    v = (1, 0, 1)
    vals = amp.adapted_frame(fr, (0, 0, 0), v)
    first, second = vals
    assert first == (1, 0, 0)
    assert linalg.dot(first, v) == 1
    assert linalg.dot(second, v) == 0
    assert linalg.dot(second, first) == 0
    assert second[1] != 0 and second[0] == 0 and second[2] == 0


def test_adapted_frame_general_position():
    rng = random.Random(29)
    fr = catalog.free_rank3_step2_frame()
    for _ in range(5):
        p = rand_point(rng, 6)
        v = tuple(rand_fraction(rng, 4, 2) for _ in range(6))
        vecs = fr.values_at(p)
        if all(linalg.dot(v, b) == 0 for b in vecs):
            continue
        vals = amp.adapted_frame(fr, p, v)
        assert linalg.dot(vals[0], v) == 1
        for w in vals[1:]:
            assert linalg.dot(w, v) == 0
            assert linalg.dot(w, vals[0]) == 0
        assert linalg.rank(vals) == fr.k


def test_adapted_change_matches_the_projection_formula():
    # random independent values, 1 <= k <= n <= 9, with random directions
    # and directions in the orthogonal complement of the span
    rng = random.Random(25)
    normal = cases = 0
    while cases < 2000:
        n = rng.randint(1, 9)
        k = rng.randint(1, n)
        vecs = [rand_point(rng, n) for _ in range(k)]
        if linalg.rank(vecs) < k:
            continue
        if k < n and rng.random() < 0.15:
            basis = linalg.nullspace(vecs)
            coeffs = [rng.randint(-2, 2) for _ in basis]
            v = [sum(a * c for a, c in zip(coeffs, col)) for col in zip(*basis)]
        else:
            v = rand_point(rng, n, 3, 2)
        if not any(v):
            continue
        cases += 1
        want = adapted_change_reference(vecs, tuple(v))
        normal += want is None
        assert amp._adapted_change(vecs, v, (0,) * n) == want, (vecs, v)
    assert normal >= 100


def test_a_degenerate_frame_with_a_zero_direction_keeps_each_precedence():
    # adapted_frame checks independence first, slice_report reads the
    # direction first
    x1 = Poly.variable(3, 1)
    degenerate = Frame(3, (PolyField.basis(3, 1), PolyField((Poly.zero(3), x1, Poly.zero(3)))))
    with pytest.raises(DegenerateFrame, match=r"frame vectors dependent at \(0, 0, 0\)"):
        amp.adapted_frame(degenerate, (0, 0, 0), (0, 0, 0))
    with pytest.raises(DomainError, match="direction must be nonzero"):
        amp.slice_report(degenerate, (0, 0, 0), (0, 0, 0), 2)


# --- slice_report ----------------------------------------------------------------


def test_slice_heisenberg_table():
    reps = amp.slice_report(
        catalog.heisenberg_frame(), (0, 0, 0), (1, 0, 0), 2, cross_check=True
    )
    assert [(r.i, r.m_i, r.n_i, r.verdict) for r in reps] == [
        (1, 1, 2, V.AMPLE_THIN_COMPLEMENT),
        (2, 2, 3, V.NOT_AMPLE_HYPERPLANE),
    ]
    assert not any(r.normal for r in reps)


def test_slice_normal_direction_trivial():
    reps = amp.slice_report(catalog.heisenberg_frame(), (0, 0, 0), (0, 0, 1), 2)
    assert all(r.verdict is V.TRIVIALLY_AMPLE_FULL and r.normal for r in reps)


def test_slice_engel_final_hyperplane():
    reps = amp.slice_report(
        catalog.engel_frame(), (0, 0, 0, 0), (1, 0, 0, 0), 3, cross_check=True
    )
    assert [r.verdict for r in reps] == [
        V.AMPLE_THIN_COMPLEMENT,
        V.AMPLE_THIN_COMPLEMENT,
        V.NOT_AMPLE_HYPERPLANE,
    ]
    for r in reps[:-1]:
        assert r.m_i + 1 == r.n_i


def test_slice_rank3_free_non_thin():
    fr = catalog.free_rank3_step2_frame()
    reps = amp.slice_report(fr, (0,) * 6, (1, 0, 0, 0, 0, 0), 2, cross_check=True)
    assert reps[0].verdict is V.AMPLE_THIN_COMPLEMENT
    assert reps[0].m_i + 2 == reps[0].n_i == 3
    assert reps[1].verdict is V.AMPLE_NON_THIN
    assert reps[1].m_i == 4 and reps[1].n_i == 6 == reps[1].m_i + 2


def test_slice_top_level_thin_branch():
    # rank 3 on dimension 5: the top level has more probing columns than the
    # missing rank, so the complement is thin rather than a GL-type slice
    alg = StratifiedAlgebra(
        (3, 2), {(1, 2): {4: F(1)}, (1, 3): {5: F(1)}}
    )
    fr = nilpotent_frame(alg)
    reps = amp.slice_report(fr, (0,) * 5, (1, 1, 1, 0, 0), 2, cross_check=True)
    top = reps[-1]
    assert top.verdict is V.AMPLE_THIN_COMPLEMENT
    assert top.n_i == 5 < top.m_i + fr.k - 1


def test_slice_engel_trivially_ample_direction():
    # probing along the second field makes the direction-independent brackets
    # span everything: the slice is the whole principal subspace
    reps = amp.slice_report(catalog.engel_frame(), (0,) * 4, (0, 1, 0, 0), 3)
    assert reps[-1].verdict is V.TRIVIALLY_AMPLE_FULL
    assert reps[-1].m_i == 4


def test_slice_rejects_non_maximal_frame():
    with pytest.raises(NotFormalSolution):
        amp.slice_report(catalog.martinet_frame(), (0, 0, 0), (1, 0, 0), 3)
    with pytest.raises(NotFormalSolution):
        amp.slice_report(catalog.heisenberg_frame(), (0, 0, 0), (1, 0, 0), 3)


def _slice_outcome(call):
    """The reports a call returns, or the type and message of what it
    raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def _slice_cases():
    """Every catalog frame at the origin and 3 random points, with a normal
    direction and 5 random ones each; the slices of two ``ampleness``
    benchmark seeds; and inputs refused at each check in turn."""
    rng = random.Random(16)
    frames = dict(catalog.catalog_frames(), rank4=catalog.rank4_step2_frame())
    for fr in frames.values():
        step = maximal_growth_vector(fr.k, fr.n).step
        for p in [(0,) * fr.n] + [rand_point(rng, fr.n) for _ in range(3)]:
            normal = tuple(linalg.nullspace(fr.values_at(p))[0])
            for v in [normal] + [rand_point(rng, fr.n, 3, 2) for _ in range(5)]:
                yield fr, p, v, step
    workloads = bench_workloads()
    for seed in (301, 302):
        for name, p, v, _ in workloads.Ampleness.generate(seed)["slices"]:
            yield frames[name], p, v, len(workloads.CATALOG[name][2])
    x1 = Poly.variable(3, 1)
    degenerate = Frame(3, (PolyField.basis(3, 1), PolyField((Poly.zero(3), x1, Poly.zero(3)))))
    engel, heis = frames["engel"], frames["heisenberg"]
    thin_top = nilpotent_frame(StratifiedAlgebra((3, 2), {(1, 2): {4: F(1)}, (1, 3): {5: F(1)}}))
    yield from [
        (thin_top, (0,) * 5, (1, 1, 1, 0, 0), 2),
        (thin_top, (1, F(-1, 2), 0, 2, 0), (1, 0, F(1, 3), 0, 1), 2),
        (engel, (0,) * 4, (1, 0.5, 0, 0), 3),
        (engel, (0,) * 4, (1, 0, 0), 3),
        (engel, (0,) * 4, (0,) * 4, 3),
        (Frame(2, (PolyField.basis(2, 1), PolyField.basis(2, 2))), (0, 0), (1, 0), 1),
        (heis, (0, 0, 0), (1, 0, 0), 3),
        (engel, (0, 0.5, 0, 0), (1, 0, 0, 0), 3),
        (engel, (0, 0, 0), (1, 0, 0, 0), 3),
        (degenerate, (0, 0, 0), (1, 0, 0), 2),
        (degenerate, (1, 0, 0), (0, 0, 1), 2),
        (frames["martinet"], (0, 0, 0), (1, 0, 0), 2),
        (frames["martinet"], (0, 0, 0), (0, 0, 1), 2),
    ]


@pytest.mark.parametrize("cross_check", [False, True])
def test_slice_report_matches_the_whole_frame_reference(cross_check):
    outcomes = set()
    for fr, p, v, step in _slice_cases():
        got = _slice_outcome(lambda: amp.slice_report(fr, p, v, step, cross_check))
        want = _slice_outcome(lambda: slice_report_reference(fr, p, v, step, cross_check))
        assert got == want, (fr, p, v, step)
        outcomes.add(got[0] if isinstance(got, tuple) else got[-1].verdict)
    assert outcomes >= {
        V.TRIVIALLY_AMPLE_FULL, V.AMPLE_THIN_COMPLEMENT, V.AMPLE_NON_THIN,
        V.NOT_AMPLE_HYPERPLANE, DomainError, NotFormalSolution, DegenerateFrame,
    }


@pytest.mark.parametrize("cross_check", [False, True])
def test_slice_report_expands_each_field_once_and_forms_each_bracket_once(
    cross_check, monkeypatch
):
    cases = [
        (catalog.engel_frame(), (F(1, 2), -1, 0, F(2, 3)), (1, F(-1, 3), 0, 2), 3),
        (catalog.cartan_frame(), (1, 0, F(-1, 2), 0, 2), (F(1, 2), 1, 0, 0, -1), 3),
        (catalog.free_rank3_step2_frame(), (0, 1, 0, 0, 0, F(1, 3)), (1, 1, 0, 0, 2, 0), 2),
        (catalog.heisenberg_frame(), (1, 2, 0), (0, -1, 1), 2),  # a normal direction
    ]
    calls = {"expansion": [], "expand": [], "store": [], "form": [], "taylor": [],
             "poly_lie_bracket": [], "frame_change": [], "lie_flag": [], "eval_at": []}

    def counted(name, fn, record=lambda args: args):
        def wrapper(*args, **kwargs):
            calls[name].append(record(args))  # keeps the arguments alive, so ids stay unique
            return fn(*args, **kwargs)
        return wrapper

    modules = [liegrowth] + [
        importlib.import_module(f"liegrowth.{m.name}")
        for m in pkgutil.iter_modules(liegrowth.__path__)
        if m.name != "__main__"
    ]
    for fn in (polyfields.poly_lie_bracket, polyfields.frame_change, flags.lie_flag):
        wrapper = counted(fn.__name__, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    parts = polyfields._TaylorParts
    monkeypatch.setattr(parts, "__init__", counted("expansion", parts.__init__))
    monkeypatch.setattr(parts, "expand", counted("expand", parts.expand))
    monkeypatch.setattr(flags._Graded, "__init__", counted("store", flags._Graded.__init__))
    monkeypatch.setattr(
        flags._Graded, "_form", counted("form", flags._Graded._form, lambda a: (id(a[0]),) + a[1:])
    )
    monkeypatch.setattr(PolyField, "taylor", counted("taylor", PolyField.taylor))
    monkeypatch.setattr(Poly, "eval_at", counted("eval_at", Poly.eval_at))
    for fr, p, v, step in cases:
        for got in calls.values():
            got.clear()
        reports = amp.slice_report(fr, p, v, step, cross_check)
        assert len(reports) == step and reports[0].normal == (fr.n == 3)
        # each field is expanded once, one degree at a time, each degree once
        assert len(calls["expansion"]) == fr.k
        expands = [(id(a[0]),) + a[1:] for a in calls["expand"]]
        assert len(expands) == len(set(expands))
        assert all(lo == hi < step for _, lo, hi in expands)
        assert calls["taylor"] == calls["frame_change"] == calls["lie_flag"] == []
        assert calls["poly_lie_bracket"] == calls["eval_at"] == []
        # one store, which forms each (expression, degree) part once: of the
        # Hall expressions, and of the chains under cross_check, no part
        # above the degree the step needs
        assert len(calls["store"]) == 1
        assert len(calls["form"]) == len(set(calls["form"]))
        exprs = {e for layer in hall_basis(fr.k, step).layers for e in layer}
        if cross_check:
            exprs |= {
                chain(*gens)
                for length in range(1, step + 1)
                for gens in itertools.product(range(1, fr.k + 1), repeat=length)
            }
        formed = [(expr, d) for _, expr, d in calls["form"]]
        assert any(not expr.is_leaf for expr, _ in formed)
        assert all(expr in exprs and d <= step - expr.length for expr, d in formed)


def test_slice_rank2_never_non_thin_at_top():
    rng = random.Random(37)
    for fr, step in (
        (catalog.heisenberg_frame(), 2),
        (catalog.engel_frame(), 3),
        (catalog.cartan_frame(), 3),
    ):
        for _ in range(6):
            v = tuple(rand_fraction(rng, 3, 2) for _ in range(fr.n))
            if all(x == 0 for x in v):
                continue
            reps = amp.slice_report(fr, (0,) * fr.n, v, step)
            top = reps[-1]
            assert top.verdict in (V.NOT_AMPLE_HYPERPLANE, V.TRIVIALLY_AMPLE_FULL)


def test_slice_rank_ge3_no_hyperplane_verdicts():
    rng = random.Random(41)
    for fr, step in (
        (catalog.free_rank3_step2_frame(), 2),
        (catalog.rank4_step2_frame(), 2),
    ):
        for _ in range(6):
            v = tuple(rand_fraction(rng, 3, 2) for _ in range(fr.n))
            if all(x == 0 for x in v):
                continue
            reps = amp.slice_report(fr, (0,) * fr.n, v, step)
            for r in reps:
                assert r.verdict is not V.NOT_AMPLE_HYPERPLANE


def test_slice_layer_span_of_wrap_chains():
    # the brackets wrapping the adapted first field around each other field
    # span a (k-1)-dimensional complement at every level below the step
    from liegrowth.polyfields import frame_change, poly_lie_bracket

    cases = (
        (catalog.cartan_frame(), (1, 0, 0, 0, 0), 3),
        (catalog.engel_frame(), (1, 0, 0, 0), 3),
        (catalog.free_rank3_step2_frame(), (1, 1, 0, 0, 0, 0), 2),
    )
    for fr, v, step in cases:
        origin = (0,) * fr.n
        g = amp._adapted_change(fr.values_at(origin), v, origin)
        adapted = frame_change(fr, g)
        for level in range(2, step):
            vecs = []
            for m in range(2, fr.k + 1):
                cur = adapted.fields[m - 1]
                for _ in range(level - 1):
                    cur = poly_lie_bracket(adapted.fields[0], cur)
                vecs.append(cur.value_at(origin))
            assert linalg.rank(vecs) == fr.k - 1


def test_generic_slice_table_engel():
    rows = amp.generic_slice_table(2, 4)
    assert [(r.i, r.m_i, r.verdict) for r in rows] == [
        (1, 1, V.AMPLE_THIN_COMPLEMENT),
        (2, 2, V.AMPLE_THIN_COMPLEMENT),
        (3, 3, V.NOT_AMPLE_HYPERPLANE),
        (3, 4, V.TRIVIALLY_AMPLE_FULL),
    ]


def test_generic_slice_table_rank3():
    rows = amp.generic_slice_table(3, 6)
    top = [r for r in rows if r.i == 2]
    assert {(r.m_i, r.verdict) for r in top} == {
        (4, V.AMPLE_NON_THIN),
        (5, V.AMPLE_THIN_COMPLEMENT),
        (6, V.TRIVIALLY_AMPLE_FULL),
    }


# --- hull_membership_witness ---------------------------------------------------


def test_hull_finds_identity_in_negative_component():
    spec = amp.MatrixSpaceSpec(2, 2, [[], []], 2)
    w = amp.hull_membership_witness(spec, [[1, 0], [0, 1]], -1, budget=3000, seed=7)
    assert w is not None
    assert w.average() == _mat([[1, 0], [0, 1]])
    for _, m in w.terms:
        assert linalg.det(m) < 0


def test_hull_singleton_shortcut():
    spec = amp.MatrixSpaceSpec(3, 3, [[1, 0], [0, 1], [0, 0]], 3)
    target = [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
    w = amp.hull_membership_witness(spec, target, 1, budget=10, seed=0)
    assert w is not None and len(w.terms) == 1 and w.terms[0][0] == 1


def test_hull_kernel_target_not_found():
    spec = amp.MatrixSpaceSpec(3, 3, [[1, 0], [0, 1], [0, 0]], 3)
    coeffs = amp.det_affine_in_free_column([[1, 0], [0, 1], [0, 0]])
    target = [[1, 0, 2], [0, 1, -3], [0, 0, 0]]
    assert linalg.dot(coeffs, [row[2] for row in target]) == 0
    for sign in (1, -1):
        w = amp.hull_membership_witness(spec, target, sign, budget=1500, seed=3)
        assert w is None


def test_hull_requires_square_and_matching_fixed_columns():
    spec = amp.MatrixSpaceSpec(2, 3, [[1], [0]], 2)
    with pytest.raises(DomainError):
        amp.hull_membership_witness(spec, [[1, 0, 0], [0, 1, 0]], 1, 10, 0)
    sq = amp.MatrixSpaceSpec(2, 2, [[1], [0]], 2)
    with pytest.raises(DomainError):
        amp.hull_membership_witness(sq, [[2, 0], [0, 1]], 1, 10, 0)


def test_hull_seeded_determinism():
    spec = amp.MatrixSpaceSpec(2, 2, [[], []], 2)
    a = amp.hull_membership_witness(spec, [[0, 1], [1, 0]], 1, budget=2000, seed=11)
    b = amp.hull_membership_witness(spec, [[0, 1], [1, 0]], 1, budget=2000, seed=11)
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b


@pytest.mark.parametrize(
    "fixed, target, sign",
    [
        # one free column, target on the cofactor hyperplane
        ([[1, 0], [0, 1], [0, 0]], [[1, 0, 2], [0, 1, -3], [0, 0, 0]], 1),
        # one free column, target on the wrong side
        ([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 5]], -1),
        # no free column: every completion is the target
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], -1),
        ([[1, 2], [2, 4]], [[1, 2], [2, 4]], 1),
    ],
)
def test_decided_hull_search_ignores_budget(fixed, target, sign):
    spec = amp.MatrixSpaceSpec(len(fixed), len(fixed), fixed, len(fixed))
    start = time.perf_counter()
    assert amp.hull_membership_witness(spec, target, sign, budget=10**9, seed=1) is None
    assert time.perf_counter() - start < 0.05


# --- classification agrees with the constructive evidence ------------------------


def test_non_thin_square_classification_backed_by_decompositions():
    rng = random.Random(43)
    for n in (2, 3, 4):
        spec = amp.MatrixSpaceSpec(
            n + 0, n, [[Fraction(1) if i == 0 else Fraction(0)] for i in range(n)], n
        )
        if n >= 3:
            assert amp.classify_matrix_space(spec) is V.AMPLE_NON_THIN
        for _ in range(10):
            m = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            w = amp.gl_convex_decomposition(m)
            assert w.average() == _mat(m)
