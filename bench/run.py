"""Benchmark harness for liegrowth.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process from the root of a source checkout
(the library is imported from ``src/``).  The query list is generated from
the seed and run in whole passes, one query at a time (a closed loop with a
single client), until ``S`` seconds have passed and at least ``MIN_PASSES``
passes are done.  Every answer is checked afterwards.  ``--trace 0``
reports the end-to-end metrics with no tracing installed; ``--trace 1`` runs
the list untraced for half the time, then the same number of passes with
span tracing, then one query of each kind under tracemalloc, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON summary; the line before it is the full record (host,
sample counts, failures).  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 2  # every query is timed at least twice
# A query faster than REPEAT_S is called again at once, up to MAX_CALLS times
# per pass, so that cheap queries also get enough repeats.
REPEAT_S = 0.02
MAX_CALLS = 5

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics of the traced run: "<layer>.<function>.<figure>".
PER_LAYER = {
    "freelie.hall_basis.calls": "count",
    "freelie.hall_basis.self_s": "s",
    "freelie.hall_basis.elements": "count",
    "polyfields.poly_lie_bracket.calls": "count",
    "polyfields.poly_lie_bracket.self_s": "s",
    "polyfields.poly_lie_bracket.out_terms_max": "count",
    "polyfields.poly_lie_bracket.out_terms_sum": "count",
    "polyfields.pushforward.self_s": "s",
    "polyfields.frame_change.self_s": "s",
    "jetalg.diffvec_bracket.calls": "count",
    "jetalg.diffvec_bracket.self_s": "s",
    "jetalg.diffvec_bracket.out_terms_max": "count",
    "jetalg.evaluate.calls": "count",
    "jetalg.evaluate.self_s": "s",
    "jetalg.evaluate.terms_sum": "count",
    "jetalg.bracket.self_s": "s",
    "jetalg.jet_of_frame.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.rows_max": "count",
    "linalg.rank.bits_max": "bits",
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "flags.lie_flag.calls": "count",
    "flags.lie_flag.self_s": "s",
    "flags.formal_flag.self_s": "s",
    "flags.nilpotent_frame.self_s": "s",
    "ampleness.hull_membership_witness.calls": "count",
    "ampleness.hull_membership_witness.self_s": "s",
    "ampleness.hull_membership_witness.det_calls": "count",
    "ampleness.hull_membership_witness.found_ratio": "ratio",
    "ampleness.slice_report.self_s": "s",
    "ampleness.gl_convex_decomposition.self_s": "s",
    "parsing.parse_frame.self_s": "s",
    "parsing.parse_algebra.self_s": "s",
    "parsing.frame_to_text.self_s": "s",
    "cli.main.self_s": "s",
    "checks.run_suite.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.tracemalloc_peak_mib": "MiB",
    "trace.spans": "count",
    "answers.fail_frac": "ratio",
    "answers.inconclusive_frac": "ratio",
}
# Figures whose span counter is summed rather than read as a maximum.
_SUMMED = {"elements": "elements_sum"}


CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.5
# Seconds the calibration kernel takes on the reference host (Intel Xeon
# Processor, Python 3.11.7) when nothing else competes for the CPU.
REFERENCE_KERNEL_S = 0.002

# Calibration kernel: a sparse product of Fraction-valued dicts, the kind of
# work the library does, in the benchmark's own frozen code.
_CAL = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(4)}


def calibrate() -> float:
    """Seconds for one run of the calibration kernel."""
    start = time.perf_counter()
    out: dict = {}
    for (a, b), x in _CAL.items():
        for (c, d), y in _CAL.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return time.perf_counter() - start


class Clock:
    """Times calls and measures the machine's speed around them.

    Other load on a shared machine slows everything, in stretches of tens of
    seconds.  The calibration kernel runs between calls every
    ``CALIBRATE_EVERY_S``; a call's time is scaled by ``REFERENCE_KERNEL_S``
    over the mean kernel time within ``CALIBRATION_WINDOW_S`` of the call:
    its time on the reference host."""

    def __init__(self):
        self.cal_at: list[float] = []
        self.cal: list[float] = []
        self.samples: list[tuple[float, float]] = []  # (start, end)
        self._last = -1e9

    def _maybe_calibrate(self):
        now = time.perf_counter()
        if now - self._last >= CALIBRATE_EVERY_S:
            self.cal.append(calibrate())
            self.cal_at.append(now)
            self._last = time.perf_counter()

    def time(self, fn):
        """Call ``fn``; returns (result or raised exception, sample index)."""
        self._maybe_calibrate()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # recorded by the caller
            result = exc
        self.samples.append((start, time.perf_counter()))
        self._maybe_calibrate()
        return result, len(self.samples) - 1

    def factor(self, idx: int) -> float:
        start, end = self.samples[idx]
        lo = bisect.bisect_left(self.cal_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.cal_at, end + CALIBRATION_WINDOW_S)
        near = self.cal[lo:hi] or [self.cal[min(lo, len(self.cal) - 1)]]
        return REFERENCE_KERNEL_S / (sum(near) / len(near))

    def raw(self, idx: int) -> float:
        start, end = self.samples[idx]
        return end - start

    def scaled(self, idx: int) -> float:
        return self.raw(idx) * self.factor(idx)


class Context:
    """What a workload's queries need: the library and the prepared inputs."""

    def __init__(self, lg, seed, tmp, prepared, run_cli):
        self.lg = lg
        self.seed = seed
        self.tmp = tmp
        self.catalog, frames, algebras = prepared
        self.frames = {Path(p).name: f for p, f in frames.items()}
        self.algebras = {Path(p).name: a for p, a in algebras.items()}
        self.run_cli = run_cli
        self.checks = sys.modules["liegrowth.checks"]

    def path(self, rel: str) -> str:
        return str(self.tmp / rel)


def tail(values):
    """Value at the highest percentile that still has ten samples beyond it,
    with that percentile; None when there are fewer than eleven samples."""
    xs = sorted(values)
    if len(xs) < 11:
        return None, None
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def probe_setup(manifest: Path, env) -> float:
    """Launch-to-ready time of one fresh interpreter preparing the workload."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(manifest)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def run_passes(queries, seconds=None, passes=None, tracer=None, min_passes=MIN_PASSES):
    """Run the once-queries, then whole passes over the rest until ``seconds``
    have elapsed and at least ``min_passes`` passes are done (or exactly
    ``passes`` passes).  Returns the timing clock, per-query sample indices
    into it and answers, the duration of each pass and the elapsed time."""
    from workloads import Raised

    clock = time.perf_counter
    timer = Clock()
    lat = [[] for _ in queries]
    answers = [[] for _ in queries]
    pass_s = []

    def one(i, q):
        if tracer is not None:
            tracer.query = i
        spent = 0.0
        for _ in range(MAX_CALLS):
            ans, idx = timer.time(q.call)
            if isinstance(ans, Exception):  # a failed query is recorded and checked
                ans = Raised(type(ans).__name__, str(ans)[:500])
            lat[i].append(idx)
            answers[i].append(ans)
            spent += timer.raw(idx)
            if spent >= REPEAT_S or isinstance(ans, Raised):
                break

    start = clock()
    for i, q in enumerate(queries):
        if q.once:
            one(i, q)
    done = 0
    while True:
        pass_start = clock()
        for i, q in enumerate(queries):
            if not q.once:
                one(i, q)
        pass_s.append(clock() - pass_start)
        done += 1
        if passes is not None and done >= passes:
            break
        if passes is None and done >= min_passes and clock() - start >= seconds:
            break
    return timer, lat, answers, pass_s, clock() - start


def memory_pass(queries):
    """Peak Python heap (tracemalloc) over the first query of each kind.

    tracemalloc slows this allocation-heavy code several times over, so it
    runs apart from the span-timing passes, on one query per kind and without
    the once-queries."""
    from workloads import Raised

    answers = [[] for _ in queries]
    seen = set()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        for i, q in enumerate(queries):
            if q.once or q.kind in seen:
                continue
            seen.add(q.kind)
            try:
                answers[i].append(q.call())
            except Exception as exc:  # recorded and checked like any failed query
                answers[i].append(Raised(type(exc).__name__, str(exc)[:500]))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peak, answers, time.perf_counter() - start


def _mean_scaled(timer) -> float:
    return sum(timer.scaled(i) for i in range(len(timer.samples))) / len(timer.samples)


def check_answers(queries, answers):
    """Apply each query's oracle to every answer it gave."""
    from workloads import Raised

    first = {q.name: a[0] for q, a in zip(queries, answers)}
    tally = {"attempted": 0, "wrong": [], "known": 0, "hull": 0, "inconclusive": 0}
    for q, got in zip(queries, answers):
        for ans in got:
            tally["attempted"] += 1
            tally["hull"] += q.hull
            if isinstance(ans, Raised):
                problem = f"raised {ans.type_name}: {ans.message}"
            else:
                try:
                    problem = q.check(ans, first)
                except Exception as exc:  # the oracle itself failed on this answer
                    problem = f"oracle failed: {type(exc).__name__}: {exc}"
            if problem is None:
                tally["inconclusive"] += q.hull and ans is None
            elif q.known_defect and not isinstance(ans, Raised) and q.known_defect(ans):
                tally["known"] += 1
            else:
                tally["wrong"].append(f"{q.name}: {problem}")
    return tally


def latency_stats(queries, timer, lat):
    """Per-input latency is the median of its repeats, each scaled to the
    reference host's speed (see ``Clock``).  p50, tail and throughput are
    taken over inputs, so they do not depend on the pass count."""
    per_input = [statistics.median(timer.scaled(i) for i in x) for x in lat]
    raw = [statistics.median(timer.raw(i) for i in x) for x in lat]
    value, pct = tail(per_input)
    kinds: dict = {}
    for q, x in zip(queries, per_input):
        kinds.setdefault(q.kind, []).append(x)
    return {
        "inputs": len(per_input),
        "samples": sum(len(x) for x in lat),
        "p50_s": statistics.median(per_input),
        "tail_s": value,
        "tail_percentile": pct,
        "queries_per_s": len(per_input) / sum(per_input),
        "unscaled": {"p50_s": statistics.median(raw), "tail_s": tail(raw)[0],
                     "queries_per_s": len(raw) / sum(raw)},
        "calibration_s": {"median": statistics.median(timer.cal), "count": len(timer.cal)},
        "by_kind_median_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
    }


def layer_metrics(summary, spans, overhead, peak_mib, tally):
    out = {}
    for name, unit in PER_LAYER.items():
        layer, figure = name.rsplit(".", 1)
        if layer == "trace":
            value = {"overhead_ratio": overhead, "tracemalloc_peak_mib": peak_mib,
                     "spans": len(spans)}[figure]
        elif layer == "answers":
            value = {
                "fail_frac": (len(tally["wrong"]) + tally["known"]) / tally["attempted"],
                "inconclusive_frac": tally["inconclusive"] / tally["hull"] if tally["hull"] else 0.0,
            }[figure]
        elif figure == "found_ratio":
            row = summary[layer]
            value = row.get("found_sum", 0) / row["calls"] if row["calls"] else 0.0
        else:
            value = summary[layer].get(_SUMMED.get(figure, figure), 0)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(path: Path, spans) -> None:
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.parent, s.query, s.start - t0, s.end - t0,
                                 s.counters]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liegrowth" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}/liegrowth", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import probe
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        return _run(args, wl, inputs, tmp, probe, workloads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, wl, inputs, tmp, probe, workloads) -> int:
    for rel, text in wl.files(inputs).items():
        (tmp / rel).write_text(text, encoding="utf-8")
    manifest = {
        "modules": list(wl.modules),
        "catalog": wl.uses_catalog,
        "frames": sorted(str(p) for p in tmp.glob("*.frame")),
        "algebras": sorted(str(p) for p in tmp.glob("*.alg")),
    }
    manifest_path = tmp / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    setups = []
    if not args.trace:
        probes = Clock()
        for _ in range(SETUP_PROBES):
            ready, idx = probes.time(lambda: probe_setup(manifest_path, env))
            if isinstance(ready, Exception):
                raise ready
            setups.append((ready, idx))
        setups = [(ready, ready * probes.factor(idx)) for ready, idx in setups]

    import liegrowth
    import liegrowth.checks  # noqa: F401  (the check suite oracle of the cli workload)

    if Path(liegrowth.__file__).resolve().parent != SRC / "liegrowth":
        print(f"error: imported liegrowth from {liegrowth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    prepared = probe.prepare(manifest)
    in_process = bool(args.trace)
    if wl.name == "cli" and not in_process:
        run_cli = lambda argv: workloads.run_cli_subprocess(argv, env, ROOT)  # noqa: E731
    else:
        import liegrowth.cli

        run_cli = lambda argv: workloads.run_cli_inprocess(liegrowth.cli.main, argv)  # noqa: E731
    ctx = Context(liegrowth, args.seed, tmp, prepared, run_cli)
    queries = wl.queries(inputs, ctx)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "queries_per_pass": sum(not q.once for q in queries),
        "once_queries": sum(q.once for q in queries), "host": host_record(),
    }
    if args.trace:
        timer, lat, answers, pass_s, elapsed = run_passes(queries, seconds=args.seconds / 2, min_passes=1)
        passes = len(pass_s)
        tracer = tracing.Tracer(liegrowth)
        tracer.install()
        try:
            unwrapped = tracer.unwrapped_bindings()
            if unwrapped:
                raise RuntimeError(f"tracing left bindings unwrapped: {unwrapped}")
            t_timer, t_lat, t_answers, _, t_elapsed = run_passes(queries, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        peak_mib, m_answers, m_elapsed = memory_pass(queries)
        spans = tracer.spans
        overhead = _mean_scaled(t_timer) / _mean_scaled(timer) - 1
        tally = check_answers(queries, [a + b + c for a, b, c in zip(answers, t_answers, m_answers)])
        write_spans(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl", spans)
        metrics = layer_metrics(tracing.layer_summary(spans), spans, overhead, peak_mib, tally)
        record.update(passes=passes, untraced_s=elapsed, traced_s=t_elapsed,
                      memory_pass_s=m_elapsed, latency=latency_stats(queries, t_timer, t_lat))
    else:
        wrapped = tracing.installed_wrappers(liegrowth)
        if wrapped:
            raise RuntimeError(f"tracing wrappers installed in the end-to-end run: {wrapped}")
        timer, lat, answers, pass_s, elapsed = run_passes(queries, seconds=args.seconds)
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        peak_mib = resource.getrusage(who).ru_maxrss / 1024
        tally = check_answers(queries, answers)
        stats = latency_stats(queries, timer, lat)
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "queries_per_s": stats["queries_per_s"],
            "query_p50_s": stats["p50_s"],
            "query_tail_s": stats["tail_s"],
            "peak_rss_mib": peak_mib,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        record.update(passes=len(pass_s), pass_s=pass_s, elapsed_s=elapsed, completed_per_s=tally["attempted"] / elapsed,
                      setup_s_unscaled=[r for r, _ in setups], latency=stats)

    failed = len(tally["wrong"]) + tally["known"]
    record.update(
        attempted=tally["attempted"], wrong=len(tally["wrong"]), known_defect_failures=tally["known"],
        fail_frac=failed / tally["attempted"],
        hull_searches=tally["hull"],
        inconclusive_frac=tally["inconclusive"] / tally["hull"] if tally["hull"] else None,
        wrong_examples=tally["wrong"][:10],
    )
    for line in tally["wrong"][:10]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not tally["wrong"], "attempted": tally["attempted"],
        "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
