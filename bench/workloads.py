"""The four benchmark workloads: seeded inputs, queries and answer oracles.

Inputs come from ``generate(seed)`` and use only the standard library, so the
library sees nothing but generated frames, points, matrices and files.  A
workload lists its queries once; the harness runs that list in whole passes.
Every answer is checked after the timed phase by an oracle that does not
share the code path it checks (see README.md for each oracle).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple


class Raised(NamedTuple):
    """An exception a query raised instead of answering."""

    type_name: str
    message: str


@dataclass
class Query:
    name: str  # unique within the workload
    kind: str  # class of similar-cost queries, for the record
    call: Callable[[], object]
    # None when the answer is right, else why it is wrong.  Gets the answer
    # and the first answer of every query by name (for cross-checks).
    check: Callable[[object, dict], str | None]
    hull: bool = False  # a hull search: a None answer is inconclusive
    once: bool = False  # run once per run, ahead of the passes
    # Predicate on a failed answer: True when it is the documented defect.
    known_defect: Callable[[object], bool] | None = None


# Catalog frames: rank, ambient dimension and flag at a generic point.
CATALOG = {
    "heisenberg": (2, 3, (2, 3)),
    "martinet": (2, 3, (2, 3)),
    "engel": (2, 4, (2, 3, 4)),
    "cartan": (2, 5, (2, 3, 5)),
    "free3": (3, 6, (3, 6)),
}
# Steps used for lie_flag on catalog frames (the flag length at the origin).
CATALOG_STEP = {"heisenberg": 2, "martinet": 3, "engel": 3, "cartan": 3, "free3": 2}
SLICE_FRAMES = ("heisenberg", "engel", "cartan", "free3")  # maximal everywhere


# --- exact helpers shared by generators and oracles --------------------------


def _rat(rng, span: int, den: int, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-span, span)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, den))


def _mobius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(k: int, length: int) -> int:
    total = sum(_mobius(d) * k ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length


def max_growth(k: int, n: int) -> tuple[int, ...]:
    out, total, length = [], 0, 0
    while total < n:
        length += 1
        total += witt(k, length)
        out.append(min(total, n))
    return tuple(out)


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n, out = len(mat), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            out = -out
        out *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return out


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _invertible(rng, n: int, span: int = 2, den: int = 2):
    while True:
        m = tuple(tuple(_rat(rng, span, den) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            return m


def _quadratic_monomials(n: int):
    out = []
    for a in range(n):
        for b in range(a, n):
            e = [0] * n
            e[a] += 1
            e[b] += 1
            out.append(tuple(e))
    return out


def _dense_frame(rng, k: int, n: int):
    """X_i = d_i + sum_{j>k} q_ij d_j with every q_ij a dense quadratic form.
    Returns per field a dict component -> {exponents: coefficient}."""
    monos = _quadratic_monomials(n)
    return tuple(
        {j: {m: _rat(rng, 4, 3, nonzero=True) for m in monos} for j in range(k + 1, n + 1)}
        for _ in range(k)
    )


def _mono_text(exps) -> str:
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
    )


def frame_text(n: int, fields) -> str:
    """Frame file for fields X_i = d_i + (given polynomial components)."""
    lines = [f"dim {n}"]
    for i, comps in enumerate(fields, start=1):
        parts = [f"d{i}"]
        for j in sorted(comps):
            for exps, c in sorted(comps[j].items()):
                body = "*".join(
                    p for p in (str(abs(c)) if abs(c) != 1 else "", _mono_text(exps), f"d{j}") if p
                )
                parts.append(("+ " if c > 0 else "- ") + body)
        lines.append(f"X{i} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _frame_matches(frame, n: int, fields) -> bool:
    """Parsed frame equals the generated coefficients exactly."""
    if frame.n != n or frame.k != len(fields):
        return False
    for i, comps in enumerate(fields, start=1):
        for j in range(1, n + 1):
            want = {(0,) * n: Fraction(1)} if j == i else comps.get(j, {})
            if frame.fields[i - 1].comps[j - 1].terms != want:
                return False
    return True


def _point(rng, n: int):
    return tuple(_rat(rng, 3, 3) for _ in range(n))


def _csv(vec) -> str:
    return ",".join(str(Fraction(x)) for x in vec)


def _dims_sane(dims, k: int, n: int, step: int) -> str | None:
    if not dims or dims[0] != k or len(dims) > step or dims[-1] > n:
        return f"implausible flag dims {dims} for rank {k} on R^{n}"
    if any(a > b for a, b in zip(dims, dims[1:])):
        return f"flag dims {dims} decrease"
    return None


def _same_dims(answer, other, what: str) -> str | None:
    if isinstance(other, Raised):
        return f"{what} raised {other.type_name}, cannot confirm dims {answer.dims}"
    if tuple(answer.dims) != tuple(other.dims):
        return f"dims {answer.dims} differ from {what} dims {other.dims}"
    return None


# --- flags_dense --------------------------------------------------------------

# (rank, dimension, frames per pass)
DENSE_CLASSES = ((2, 5, 8), (3, 6, 5), (2, 6, 1), (3, 7, 1), (3, 8, 1))
MOVES_PER_FRAME = 2  # random pushforwards and frame changes per catalog frame


class FlagsDense:
    """lie_flag and formal_flag on dense quadratic frames, plus flags of
    catalog frames after a random pushforward or frame change."""

    name = "flags_dense"
    modules = ("liegrowth",)
    uses_catalog = True

    @staticmethod
    def generate(seed: int):
        rng = random.Random(f"flags_dense/{seed}")
        dense = []
        for k, n, count in DENSE_CLASSES:
            for _ in range(count):
                dense.append((k, n, _dense_frame(rng, k, n), _point(rng, n)))
        moves = []
        for name, (k, n, _) in CATALOG.items():
            for _ in range(MOVES_PER_FRAME):
                lin = _invertible(rng, n)
                shift = tuple(_rat(rng, 2, 2) for _ in range(n))
                moves.append((name, _point(rng, n), lin, shift, _invertible(rng, k, 2, 1)))
        return {"dense": tuple(dense), "moves": tuple(moves)}

    @staticmethod
    def files(inputs):
        return {
            f"dense{i}.frame": frame_text(n, fields)
            for i, (k, n, fields, _) in enumerate(inputs["dense"])
        }

    @staticmethod
    def queries(inputs, ctx):
        lg = ctx.lg
        out = []
        for i, (k, n, fields, p) in enumerate(inputs["dense"]):
            frame = ctx.frames[f"dense{i}.frame"]
            step = len(max_growth(k, n))
            lie, formal = f"lie_flag/{i}", f"formal_flag/{i}"

            def check_lie(ans, first, k=k, n=n, step=step, frame=frame, fields=fields, formal=formal):
                if not _frame_matches(frame, n, fields):
                    return "parsed frame differs from the generated coefficients"
                return _dims_sane(ans.dims, k, n, step) or _same_dims(ans, first[formal], "formal_flag")

            def check_formal(ans, first, k=k, n=n, step=step, lie=lie):
                return _dims_sane(ans.dims, k, n, step) or _same_dims(ans, first[lie], "lie_flag")

            out.append(Query(
                lie, f"lie_flag {k}x{n}",
                lambda frame=frame, p=p, step=step: lg.lie_flag(frame, p, step),
                check_lie,
            ))
            out.append(Query(
                formal, f"formal_flag {k}x{n}",
                lambda frame=frame, p=p, step=step: lg.formal_flag(
                    lg.jet_of_frame(frame, p, step - 1), step
                ),
                check_formal,
            ))
        base_dims: dict = {}

        def base(name, p):
            key = (name, p)
            if key not in base_dims:
                base_dims[key] = tuple(
                    lg.lie_flag(ctx.catalog[name], p, CATALOG_STEP[name]).dims
                )
            return base_dims[key]

        for i, (name, p, lin, shift, g) in enumerate(inputs["moves"]):
            frame, step = ctx.catalog[name], CATALOG_STEP[name]
            amap = lg.AffineMap.make(lin, shift)
            image = tuple(
                sum((a * x for a, x in zip(row, p)), Fraction(0)) + s
                for row, s in zip(lin, shift)
            )

            def check_move(ans, first, name=name, p=p):
                want = base(name, p)
                return None if tuple(ans.dims) == want else f"dims {ans.dims} != base dims {want}"

            out.append(Query(
                f"pushforward/{i}/{name}", "pushforward + lie_flag",
                lambda frame=frame, amap=amap, image=image, step=step: lg.lie_flag(
                    lg.pushforward(frame, amap), image, step
                ),
                check_move,
            ))
            out.append(Query(
                f"frame_change/{i}/{name}", "frame_change + lie_flag",
                lambda frame=frame, g=g, p=p, step=step: lg.lie_flag(
                    lg.frame_change(frame, g), p, step
                ),
                check_move,
            ))
        random.Random(f"flags_dense/order/{ctx.seed}").shuffle(out)
        return out


# --- symbols ------------------------------------------------------------------

SYMBOL_LENGTH = 4  # chain indices up to this length, jets of order 3
JETS_PER_FRAME = 1


class Symbols:
    """The acceptance criterion-5 pattern: every chain-index bracket symbol
    up to length 4 of each catalog frame, evaluated at seeded jets.  Length-1
    symbols come from ``bracket``; a longer one is ``diffvec_bracket`` of its
    first field and the symbol of the rest, built earlier in the pass."""

    name = "symbols"
    modules = ("liegrowth",)
    uses_catalog = True

    @staticmethod
    def generate(seed: int):
        rng = random.Random(f"symbols/{seed}")
        points = {
            name: tuple(_point(rng, n) for _ in range(JETS_PER_FRAME))
            for name, (k, n, _) in CATALOG.items()
        }
        chains = []
        for ln in range(1, SYMBOL_LENGTH + 1):  # shorter symbols first: longer ones reuse them
            layer = [
                (name, index)
                for name, (k, n, _) in CATALOG.items()
                for index in itertools.product(range(1, k + 1), repeat=ln)
            ]
            rng.shuffle(layer)
            chains.extend(layer)
        return {"points": points, "chains": tuple(chains)}

    @staticmethod
    def files(inputs):
        return {}

    @staticmethod
    def queries(inputs, ctx):
        lg = ctx.lg
        r = SYMBOL_LENGTH
        jets: dict = {name: [None] * JETS_PER_FRAME for name in CATALOG}
        symbols: dict = {name: {} for name in CATALOG}  # index -> symbol, shorter than r
        classical: dict = {}

        def chain_field(name, index):
            if index not in classical.setdefault(name, {}):
                frame = ctx.catalog[name]
                if len(index) == 1:
                    value = frame.fields[index[0] - 1]
                else:
                    value = lg.poly_lie_bracket(
                        frame.fields[index[0] - 1], chain_field(name, index[1:])
                    )
                classical[name][index] = value
            return classical[name][index]

        out = []
        for name, pts in inputs["points"].items():
            frame = ctx.catalog[name]
            for j, p in enumerate(pts):

                def call(name=name, j=j, frame=frame, p=p):
                    jets[name][j] = lg.jet_of_frame(frame, p, r - 1)
                    return jets[name][j]

                def check_jet(jet, first, frame=frame, p=p):
                    if jet.base != p or jet.order != r - 1:
                        return "jet has the wrong base point or order"
                    for f, field in enumerate(frame.fields, start=1):
                        for c, value in enumerate(field.value_at(p), start=1):
                            if jet[lg.JetVar(f, c, ())] != value:
                                return f"0-jet u^{c}_{f} differs from the field value"
                    return None

                out.append(Query(f"jet/{name}/{j}", "jet_of_frame", call, check_jet))
        for name, index in inputs["chains"]:
            k, n, _ = CATALOG[name]

            def call(name=name, index=index, k=k, n=n):
                known = symbols[name]
                if len(index) == 1:
                    vec = lg.bracket(index, k, n, r)
                else:
                    vec = lg.diffvec_bracket(known[index[:1]], known[index[1:]])
                if len(index) < r:
                    known[index] = vec
                return tuple(lg.evaluate(vec, jet) for jet in jets[name])

            def check_symbol(values, first, name=name, index=index):
                field = chain_field(name, index)
                want = tuple(field.value_at(p) for p in inputs["points"][name])
                return None if values == want else "symbol value differs from the classical bracket"

            out.append(Query(
                f"symbol/{name}/{''.join(map(str, index))}",
                f"symbol {name} len {len(index)}", call, check_symbol,
            ))
        return out


# --- ampleness ----------------------------------------------------------------

WITNESS_CLASSES = ((2, 0, 6), (3, 1, 6))  # (size, fixed columns, targets per pass)
WITNESS_BUDGET = 4000
HYPERPLANE_TARGETS = 12  # 3x3, two fixed columns, each searched for both signs
HYPERPLANE_BUDGET = 600
SLICES_PER_FRAME = 7  # 5 random points, the origin, a normal direction
GL_SIZES = ((2, 8), (3, 8), (4, 8))  # (size, matrices per pass)


def _cofactors(fixed):
    """c with det(fixed | w) = c . w for an n x (n-1) block."""
    n = len(fixed)
    return tuple(
        (-1) ** (i + n - 1) * det([fixed[r] for r in range(n) if r != i]) for i in range(n)
    )


def _check_witness(w, target, fixed_cols: int, sign: int | None) -> str | None:
    """Re-average a convex witness against its target, exactly."""
    weights = [t[0] for t in w.terms]
    if not weights or any(x <= 0 for x in weights) or sum(weights) != 1:
        return "witness weights are not a convex combination"
    n = len(target)
    for _, m in w.terms:
        if any(m[i][j] != target[i][j] for i in range(n) for j in range(fixed_cols)):
            return "witness member changes a fixed column"
        d = det(m)
        if d == 0:
            return "witness member is singular"
        if sign is not None and _sign(d) != sign:
            return "witness member lies in the wrong sign component"
    avg = [
        [sum((wt * m[i][j] for wt, m in w.terms), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    if avg != [[Fraction(x) for x in row] for row in target]:
        return "witness does not average to the target"
    return None


def _expected_top(k: int, n: int, m: int) -> str:
    if m == n:
        return "TriviallyAmpleFull"
    if n == m + k - 1:
        return "AmpleNonThin" if k >= 3 else "NotAmpleHyperplane"
    return "AmpleThinComplement"


class Ampleness:
    """slice_report, gl_convex_decomposition and hull_membership_witness."""

    name = "ampleness"
    modules = ("liegrowth",)
    uses_catalog = True

    @staticmethod
    def generate(seed: int):
        rng = random.Random(f"ampleness/{seed}")
        witness = []
        for n, k, count in WITNESS_CLASSES:
            for _ in range(count):
                while True:
                    fixed = tuple(tuple(_rat(rng, 4, 3) for _ in range(k)) for _ in range(n))
                    if k == 0 or any(any(row) for row in fixed):
                        break
                target = tuple(
                    fixed[i] + tuple(_rat(rng, 2, 2) for _ in range(n - k)) for i in range(n)
                )
                d = det(target)
                sign = -_sign(d) if d else rng.choice((1, -1))
                witness.append((n, k, fixed, target, sign, rng.randrange(10**6)))
        hyper = []
        for _ in range(HYPERPLANE_TARGETS):
            while True:
                fixed = tuple(tuple(_rat(rng, 4, 3) for _ in range(2)) for _ in range(3))
                c = _cofactors(fixed)
                if c[2] != 0:
                    break
            w0, w1 = _rat(rng, 3, 2), _rat(rng, 3, 2)
            w = (w0, w1, -(c[0] * w0 + c[1] * w1) / c[2])
            target = tuple(fixed[i] + (w[i],) for i in range(3))
            hyper.append((fixed, target, rng.randrange(10**6), rng.randrange(10**6)))
        slices = []
        for name in SLICE_FRAMES:
            k, n, _ = CATALOG[name]
            for s in range(SLICES_PER_FRAME):
                if s == SLICES_PER_FRAME - 1:
                    tail = [_rat(rng, 3, 2) for _ in range(n - k)]
                    tail[0] = tail[0] or Fraction(1)
                    slices.append((name, (0,) * n, tuple([0] * k + tail), True))
                    continue
                p = (0,) * n if s == SLICES_PER_FRAME - 2 else _point(rng, n)
                v = tuple(_rat(rng, 3, 2) for _ in range(n - 1)) + (_rat(rng, 3, 2, True),)
                slices.append((name, p, v, False))
        gl = []
        for n, count in GL_SIZES:
            for c in range(count):
                m = [[_rat(rng, 6, 3) for _ in range(n)] for _ in range(n)]
                if c == 0:  # one singular matrix per size: the shifted branch
                    m[-1] = [2 * x for x in m[0]]
                gl.append(tuple(tuple(row) for row in m))
        return {"witness": tuple(witness), "hyper": tuple(hyper),
                "slices": tuple(slices), "gl": tuple(gl)}

    @staticmethod
    def files(inputs):
        return {}

    @staticmethod
    def queries(inputs, ctx):
        lg = ctx.lg
        out = []
        for i, (n, k, fixed, target, sign, seed) in enumerate(inputs["witness"]):
            spec = lg.MatrixSpaceSpec(n, n, fixed, n)
            out.append(Query(
                f"hull_witness/{i}", f"hull witness {n}x{n} fixed {k}",
                lambda spec=spec, target=target, sign=sign, seed=seed:
                    lg.hull_membership_witness(spec, target, sign, WITNESS_BUDGET, seed),
                lambda w, first, target=target, k=k, sign=sign:
                    None if w is None else _check_witness(w, target, k, sign),
                hull=True,
            ))
        for i, (fixed, target, seed_pos, seed_neg) in enumerate(inputs["hyper"]):
            spec = lg.MatrixSpaceSpec(3, 3, fixed, 3)
            for sign, seed in ((1, seed_pos), (-1, seed_neg)):
                out.append(Query(
                    f"hull_hyperplane/{i}/{sign:+d}", "hull hyperplane 3x3",
                    lambda spec=spec, target=target, sign=sign, seed=seed:
                        lg.hull_membership_witness(spec, target, sign, HYPERPLANE_BUDGET, seed),
                    lambda w, first, target=target, sign=sign:
                        None if w is None else _check_witness(w, target, 2, sign),
                    hull=True,
                ))
        for i, (name, p, v, _) in enumerate(inputs["slices"]):
            k, n, dims = CATALOG[name]

            def check_slice(reps, first, name=name, p=p, v=v, k=k, n=n, dims=dims):
                normal = all(
                    sum((a * b for a, b in zip(v, value)), Fraction(0)) == 0
                    for value in ctx.catalog[name].values_at(p)
                )
                if [r.i for r in reps] != list(range(1, len(dims) + 1)):
                    return "slice levels are not 1..step"
                for r in reps:
                    verdict = r.verdict.value
                    if r.n_i != dims[r.i - 1] or r.normal != normal:
                        return f"level {r.i}: wrong n_i or normal flag"
                    if normal:
                        want = "TriviallyAmpleFull"
                        if r.m_i != r.n_i:
                            return f"level {r.i}: normal direction with m_i != n_i"
                    elif r.i < len(dims):
                        want = "AmpleThinComplement"
                        if r.m_i + k - 1 != r.n_i:
                            return f"level {r.i}: m_i + k - 1 != n_i"
                    else:
                        want = _expected_top(k, n, r.m_i)
                    if verdict != want:
                        return f"level {r.i}: verdict {verdict}, expected {want}"
                    if (k == 2 and verdict == "AmpleNonThin") or (
                        k >= 3 and verdict == "NotAmpleHyperplane"
                    ):
                        return f"level {r.i}: {verdict} breaks the rank-{k} dichotomy"
                return None

            out.append(Query(
                f"slice/{i}", f"slice_report {name}",
                lambda name=name, p=p, v=v, step=len(dims):
                    lg.slice_report(ctx.catalog[name], p, v, step),
                check_slice,
            ))
        for i, m in enumerate(inputs["gl"]):

            def check_gl(w, first, m=m):
                d = det(m)
                return _check_witness(w, m, 0, -_sign(d) if d else None)

            out.append(Query(
                f"gl/{i}", f"gl_convex_decomposition {len(m)}x{len(m)}",
                lambda m=m: lg.gl_convex_decomposition(m), check_gl,
            ))
        random.Random(f"ampleness/order/{ctx.seed}").shuffle(out)
        return out


# --- cli ----------------------------------------------------------------------

STALLED_DIMS = (10, 11)  # stalled frames run at the default --max-step
DEFECT_DIM = 22  # raises CapExceeded at the default --max-step (known defect)
CLI_DENSE = ((2, 5, 4), (3, 6, 2))  # dense frames for growth
CLI_SLICES = ((2, 5, 4), (3, 6, 2))  # dense frames for slice
CLI_ALGEBRAS = {
    "heisenberg": ((2, 1), {(1, 2): {3: 1}}),
    "engel": ((2, 1, 1), {(1, 2): {3: 1}, (1, 3): {4: 1}}),
    "free23": ((2, 1, 2), {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}}),
    "free32": ((3, 3), {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}}),
    "rank4": ((4, 2), {(1, 2): {5: 1}, (3, 4): {6: 1}, (1, 3): {6: 1}, (2, 4): {5: 1}}),
}
CLI_HALL = ((2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
CLI_PICKS = {"algebras": 5, "hall": 4, "ampleness": 4}

STALLED_TEXT = "dim {n}\nX1 = d1\nX2 = d2 + x1*d3\n"


def _algebra_text(layers, table, scale) -> str:
    """Algebra file of the basis rescaled by ``scale``: an isomorphic algebra
    with structure constants c * s_i * s_j / s_m."""
    lines = ["layers " + " ".join(map(str, layers))]
    for (i, j), row in sorted(table.items()):
        terms = []
        for m, c in sorted(row.items()):
            coeff = Fraction(c) * scale[i - 1] * scale[j - 1] / scale[m - 1]
            terms.append(f"e{m}" if coeff == 1 else f"{coeff}*e{m}")
        lines.append(f"bracket e{i} e{j} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def jsonable(obj):
    """Report serialisation documented for ``--format json``: dataclass field
    names, rationals as p/q strings, enums by value."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


class CliAnswer(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


class Cli:
    """CLI subcommands run one at a time as subprocesses on generated files."""

    name = "cli"
    modules = ("liegrowth", "liegrowth.cli")
    uses_catalog = False

    @staticmethod
    def generate(seed: int):
        rng = random.Random(f"cli/{seed}")
        growth = [("stalled", n, STALLED_TEXT.format(n=n), _point(rng, n)) for n in STALLED_DIMS]
        for k, n, count in CLI_DENSE:
            for _ in range(count):
                growth.append(("dense", n, frame_text(n, _dense_frame(rng, k, n)), _point(rng, n)))
        slices = []
        for k, n, count in CLI_SLICES:
            for _ in range(count):
                v = tuple(_rat(rng, 3, 2) for _ in range(n - 1)) + (_rat(rng, 3, 2, True),)
                slices.append((n, frame_text(n, _dense_frame(rng, k, n)), _point(rng, n), v,
                               len(max_growth(k, n))))
        algebras = []
        for name in rng.sample(sorted(CLI_ALGEBRAS), CLI_PICKS["algebras"]):
            layers, table = CLI_ALGEBRAS[name]
            scale = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(sum(layers))]
            algebras.append(_algebra_text(layers, table, scale))
        hall = tuple(rng.sample(CLI_HALL, CLI_PICKS["hall"]))
        ample = []
        for _ in range(CLI_PICKS["ampleness"]):
            k = rng.choice((2, 3))
            ample.append((k, rng.randint(k + 1, k + 6)))
        return {
            "growth": tuple(growth),
            "defect": (STALLED_TEXT.format(n=DEFECT_DIM), _point(rng, DEFECT_DIM)),
            "slices": tuple(slices), "algebras": tuple(algebras), "hall": hall,
            "ampleness": tuple(ample), "check_seed": rng.randrange(10**6),
        }

    @staticmethod
    def files(inputs):
        out = {f"growth{i}.frame": g[2] for i, g in enumerate(inputs["growth"])}
        out["defect.frame"] = inputs["defect"][0]
        out.update({f"slice{i}.frame": s[1] for i, s in enumerate(inputs["slices"])})
        out.update({f"alg{i}.alg": text for i, text in enumerate(inputs["algebras"])})
        return out

    @staticmethod
    def queries(inputs, ctx):
        lg = ctx.lg
        run = ctx.run_cli
        out = []

        def api(fn):
            """Expected CLI answer from the in-process API: the JSON payload,
            or the error line of a library error."""
            try:
                return CliAnswer(0, fn(), "")
            except lg.LieGrowthError as exc:
                return CliAnswer(1, None, f"{type(exc).__name__}: {exc}")

        def agrees(ans: CliAnswer, want: CliAnswer) -> str | None:
            if ans.returncode != want.returncode:
                return f"exit code {ans.returncode}, API gives {want.returncode}: {ans.stderr.strip()[:200]}"
            if want.returncode:
                return None if ans.stderr.strip() == want.stderr else "error text differs from the API"
            try:
                got = json.loads(ans.stdout)
            except json.JSONDecodeError:
                return "output is not JSON"
            return None if got == want.stdout else "JSON output differs from the API result"

        def cli_query(name, kind, argv, expected, **extra):
            cache = []

            def check(ans, first):
                if not cache:
                    cache.append(api(expected))
                return agrees(ans, cache[0])

            out.append(Query(name, kind, lambda: run(argv + ["--format", "json"]), check, **extra))

        def growth_payload(rel, p):
            frame = ctx.frames[rel]
            return jsonable(lg.lie_flag(frame, p, max(frame.n - frame.k + 2, 2)))

        _, p = inputs["defect"]
        path = ctx.path("defect.frame")
        stalled = {
            "p": [str(Fraction(x)) for x in p], "dims": [2] + [3] * (DEFECT_DIM - 1),
            "step": 2, "maximal": False, "free_type": False, "irregular": False,
        }
        out.append(Query(
            "growth/defect", f"growth stalled R^{DEFECT_DIM}",
            lambda argv=["growth", "--frame", path, f"--point={_csv(p)}", "--format", "json"]:
                run(argv),
            lambda ans, first, want=CliAnswer(0, stalled, ""): agrees(ans, want),
            once=True,
            known_defect=lambda ans: ans.returncode == 1 and ans.stderr.startswith("CapExceeded:"),
        ))
        for i, (kind, n, text, p) in enumerate(inputs["growth"]):
            rel = f"growth{i}.frame"
            cli_query(
                f"growth/{i}", f"growth {kind} R^{n}",
                ["growth", "--frame", ctx.path(rel), f"--point={_csv(p)}"],
                lambda rel=rel, p=p: growth_payload(rel, p),
            )
        for i, (n, text, p, v, step) in enumerate(inputs["slices"]):
            rel = f"slice{i}.frame"
            cli_query(
                f"slice/{i}", f"slice R^{n}",
                ["slice", "--frame", ctx.path(rel), f"--point={_csv(p)}",
                 f"--direction={_csv(v)}", "--step", str(step)],
                lambda rel=rel, p=p, v=v, step=step:
                    jsonable(lg.slice_report(ctx.frames[rel], p, v, step)),
            )
        for i, text in enumerate(inputs["algebras"]):
            rel = f"alg{i}.alg"
            cli_query(
                f"nilpotentize/{i}", "nilpotentize", ["nilpotentize", "--algebra", ctx.path(rel)],
                lambda rel=rel: {"frame": lg.frame_to_text(lg.nilpotent_frame(ctx.algebras[rel]))},
            )
        for k, length in inputs["hall"]:
            cli_query(
                f"hall/{k}/{length}", "hall",
                ["hall", "--generators", str(k), "--max-length", str(length)],
                lambda k=k, length=length: {
                    "k": k, "layers": [[str(e) for e in layer]
                                       for layer in lg.hall_basis(k, length).layers],
                },
            )
        for k, n in inputs["ampleness"]:
            cli_query(
                f"ampleness/{k}/{n}", "ampleness",
                ["ampleness", "--rank", str(k), "--dim", str(n)],
                lambda k=k, n=n: {"rank": k, "dim": n,
                                  "rows": jsonable(lg.generic_slice_table(k, n))},
            )
        seed = inputs["check_seed"]

        def suite():
            results = ctx.checks.run_suite("all", seed=seed)
            if not all(passed for _, passed, _ in results):
                raise AssertionError("the in-process suite reports a failed check")
            return {"suite": "all", "results": [
                {"name": n, "passed": p, "detail": d} for n, p, d in results]}

        cli_query("check/all", "check all", ["check", "--suite", "all", "--seed", str(seed)], suite)
        return out


def run_cli_subprocess(argv, env, cwd, timeout=150) -> CliAnswer:
    proc = subprocess.run(
        [sys.executable, "-m", "liegrowth", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )
    return CliAnswer(proc.returncode, proc.stdout, proc.stderr)


def run_cli_inprocess(main, argv) -> CliAnswer:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 1
    return CliAnswer(code, out.getvalue(), err.getvalue())


WORKLOADS = {w.name: w for w in (FlagsDense, Symbols, Ampleness, Cli)}
