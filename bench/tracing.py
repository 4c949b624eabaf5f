"""Span tracing for the traced benchmark run.

The tracer wraps the public function of each layer at every module binding
of it inside the ``liegrowth`` package: functions copied into other modules
by ``from .x import f`` are wrapped there too, so a call through any name is
seen.  Each wrapped call records one span (name, parent span, query id,
start, end, counters) in memory.  Per-layer figures are computed from the
spans after the run:

* a span's self time is its duration minus the part of its interval that its
  child spans cover;
* a layer's ``self_s`` is the sum of the self times of its spans.

Nothing here is installed in the end-to-end run; ``installed_wrappers`` lets
the harness assert that.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from typing import NamedTuple

# Public functions traced, as "<module>.<function>" inside the liegrowth package.
TRACED = (
    "freelie.hall_basis",
    "polyfields.poly_lie_bracket",
    "polyfields.pushforward",
    "polyfields.frame_change",
    "jetalg.diffvec_bracket",
    "jetalg.evaluate",
    "jetalg.bracket",
    "jetalg.jet_of_frame",
    "linalg.rank",
    "linalg.det",
    "flags.lie_flag",
    "flags.formal_flag",
    "flags.nilpotent_frame",
    "ampleness.hull_membership_witness",
    "ampleness.slice_report",
    "ampleness.gl_convex_decomposition",
    "parsing.parse_frame",
    "parsing.parse_algebra",
    "parsing.frame_to_text",
    "cli.main",
    "checks.run_suite",
)

_MARK = "__bench_span__"


class Span(NamedTuple):
    name: str
    parent: int  # index of the enclosing span, -1 for a root span
    query: int  # index of the query that caused it, -1 outside queries
    start: float
    end: float
    counters: dict | None


def _terms(vec) -> int:
    return sum(len(c.terms) for c in vec.comps)


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            num = getattr(x, "numerator", x)
            den = getattr(x, "denominator", 1)
            best = max(best, num.bit_length(), den.bit_length())
    return best


# Counters recorded per span, from the call's arguments and result.
_COUNTERS = {
    "freelie.hall_basis": lambda a, r: {"elements": sum(len(l) for l in r.layers)},
    "polyfields.poly_lie_bracket": lambda a, r: {"out_terms": _terms(r)},
    "jetalg.diffvec_bracket": lambda a, r: {"out_terms": _terms(r)},
    "jetalg.evaluate": lambda a, r: {"terms": _terms(a[0])},
    "linalg.rank": lambda a, r: {"rows": len(a[0]), "bits": _bits(a[0])},
    "ampleness.hull_membership_witness": lambda a, r: {"found": r is not None},
}


def package_modules(package):
    """The package and every submodule except ``__main__`` (which runs the CLI)."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = package_modules(package)
        self.spans: list[Span | None] = []
        self.query = -1
        self._stack: list[int] = []
        self._originals = {}
        for dotted in TRACED:
            mod, func = dotted.split(".")
            self._originals[dotted] = getattr(
                importlib.import_module(f"{package.__name__}.{mod}"), func
            )
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counters = _COUNTERS.get(name)
        materialize = name == "linalg.rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize:
                # rank accepts any iterable of rows; a list lets the counters
                # read the rows after the call without changing the result.
                args = (list(args[0]),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, parent, self.query, start, end, None)
                raise
            end = clock()
            stack.pop()
            spans[idx] = Span(
                name, parent, self.query, start, end,
                counters(args, result) if counters else None,
            )
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        by_id = {id(fn): name for name, fn in self._originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in self._originals.items()}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None and value is self._originals[name]:
                    setattr(mod, attr, wrappers[name])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that still hold a traced function unwrapped."""
        out = []
        for mod in self.modules:
            for attr, value in vars(mod).items():
                for name, fn in self._originals.items():
                    if value is fn:
                        out.append(f"{mod.__name__}.{attr} ({name})")
        return out


def installed_wrappers(package) -> list[str]:
    """Module bindings of the package that currently hold a tracing wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in package_modules(package)
        for attr, value in vars(mod).items()
        if hasattr(value, _MARK) and callable(value)
    ]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    its interval covered by its direct children."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[idx], key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_summary(spans) -> dict[str, dict]:
    """Per traced name: calls, summed self time and aggregated counters."""
    selfs = self_times(spans)
    out: dict[str, dict] = {
        name: {"calls": 0, "self_s": 0.0} for name in TRACED
    }
    for span, own in zip(spans, selfs):
        row = out[span.name]
        row["calls"] += 1
        row["self_s"] += own
        for key, value in (span.counters or {}).items():
            row[f"{key}_sum"] = row.get(f"{key}_sum", 0) + value
            row[f"{key}_max"] = max(row.get(f"{key}_max", 0), value)
    hull = "ampleness.hull_membership_witness"
    out[hull]["det_calls"] = sum(
        1 for span in spans if span.name == "linalg.det" and _has_ancestor(spans, span, hull)
    )
    return out


def _has_ancestor(spans, span, name) -> bool:
    idx = span.parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False
