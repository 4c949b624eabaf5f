"""Tests of the benchmark itself: ``python3 -m pytest -q bench``."""

import dataclasses
import json
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import liegrowth  # noqa: E402
import probe  # noqa: E402


def _build(name, tmp_path):
    """Queries of a workload for seed 5, with the CLI run in-process."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.generate(5)
    tmp_path.mkdir()
    for rel, text in wl.files(inputs).items():
        (tmp_path / rel).write_text(text)
    manifest = {
        "modules": list(wl.modules), "catalog": wl.uses_catalog,
        "frames": sorted(str(p) for p in tmp_path.glob("*.frame")),
        "algebras": sorted(str(p) for p in tmp_path.glob("*.alg")),
    }
    import liegrowth.checks  # noqa: F401
    import liegrowth.cli

    ctx = run.Context(
        liegrowth, 5, tmp_path, probe.prepare(manifest),
        lambda argv: workloads.run_cli_inprocess(liegrowth.cli.main, argv),
    )
    return {q.name: q for q in wl.queries(inputs, ctx)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.generate(11), wl.generate(11)
    assert a == b
    assert wl.files(a) == wl.files(b)
    assert wl.generate(12) != a


def test_tracer_wraps_every_binding():
    assert tracing.installed_wrappers(liegrowth) == []
    tracer = tracing.Tracer(liegrowth)
    from liegrowth import ampleness, catalog, checks, flags

    original = flags.lie_flag
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for mod, attr in ((flags, "hall_basis"), (ampleness, "hall_basis"),
                          (flags, "poly_lie_bracket"), (ampleness, "poly_lie_bracket"),
                          (checks, "poly_lie_bracket"), (ampleness, "lie_flag"),
                          (liegrowth, "lie_flag"), (catalog, "nilpotent_frame")):
            assert hasattr(getattr(mod, attr), tracing._MARK), f"{mod.__name__}.{attr}"
        liegrowth.lie_flag(catalog.engel_frame(), (0, 0, 0, 0), 3)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers(liegrowth) == []
    assert flags.lie_flag is original
    names = [s.name for s in tracer.spans]
    assert names.count("flags.lie_flag") == 1
    assert "freelie.hall_basis" in names and "polyfields.poly_lie_bracket" in names
    root = names.index("flags.lie_flag")
    assert tracer.spans[root].parent == -1
    assert all(s.parent >= 0 for i, s in enumerate(tracer.spans) if i != root)
    rank = [s for s in tracer.spans if s.name == "linalg.rank"]
    assert rank and all(s.counters["rows"] >= 2 for s in rank)


def _span(name, parent, start, end):
    return tracing.Span(name, parent, 0, start, end, None)


def test_self_time_on_nested_span_tree():
    spans = [
        _span("flags.lie_flag", -1, 0.0, 10.0),
        _span("freelie.hall_basis", 0, 1.0, 4.0),
        _span("linalg.rank", 1, 2.0, 3.0),
        _span("polyfields.poly_lie_bracket", 0, 5.0, 9.0),
        _span("polyfields.poly_lie_bracket", 0, 8.0, 9.5),  # overlaps its sibling
        _span("linalg.det", 0, 9.5, 11.0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 1.5])
    summary = tracing.layer_summary(spans)
    assert summary["polyfields.poly_lie_bracket"]["calls"] == 2
    assert summary["polyfields.poly_lie_bracket"]["self_s"] == pytest.approx(5.5)
    assert summary["flags.lie_flag"]["self_s"] == pytest.approx(2.0)


def test_det_calls_count_only_inside_hull_searches():
    spans = [
        _span("ampleness.hull_membership_witness", -1, 0.0, 5.0),
        _span("linalg.det", 0, 1.0, 2.0),
        _span("ampleness.gl_convex_decomposition", -1, 6.0, 7.0),
        _span("linalg.det", 2, 6.1, 6.2),
    ]
    assert tracing.layer_summary(spans)["ampleness.hull_membership_witness"]["det_calls"] == 1


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(range(1, 101)) == (90, 90.0)
    assert run.tail(range(10)) == (None, None)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _first(queries, prefix):
    return next(q for name, q in queries.items() if name.startswith(prefix))


def test_oracles_reject_wrong_answers(tmp_path):
    qs = _build("flags_dense", tmp_path / "f")
    q = _first(qs, "frame_change/")
    good = q.call()
    assert q.check(good, {}) is None
    assert q.check(dataclasses.replace(good, dims=good.dims[:-1]), {}) is not None

    qs = _build("symbols", tmp_path / "s")
    for name in ("jet/heisenberg/0", "symbol/heisenberg/1", "symbol/heisenberg/2"):
        assert qs[name].check(qs[name].call(), {}) is None  # the symbol below builds on these
    q = qs["symbol/heisenberg/12"]
    good = q.call()
    assert q.check(good, {}) is None
    assert q.check(tuple(tuple(-x for x in v) for v in good), {}) is not None

    qs = _build("ampleness", tmp_path / "a")
    q = _first(qs, "gl/")
    good = q.call()
    assert q.check(good, {}) is None
    (w0, m0), (w1, m1) = good.terms
    bent = dataclasses.replace(good, terms=((w0, m1), (w1, m1)))
    assert q.check(bent, {}) is not None

    qs = _build("cli", tmp_path / "c")
    q = _first(qs, "hall/")
    good = q.call()
    assert good.returncode == 0 and q.check(good, {}) is None
    payload = json.loads(good.stdout)
    payload["layers"][0].append("X9")
    assert q.check(good._replace(stdout=json.dumps(payload)), {}) is not None
    defect = qs["growth/defect"]
    assert defect.once and defect.known_defect(
        workloads.CliAnswer(1, "", "CapExceeded: Hall basis would exceed 100000 elements"))
