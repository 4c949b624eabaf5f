"""Mutation gate: every named mutant of the engine must fail the tier-1 tests.

Run from anywhere as

    python tests/mutants.py [NAME ...]

With no names every mutant runs, as the CI step runs them; with names only
those mutants run, so a change to one kernel can show its own mutants
killed in minutes.

Each mutant is one textual replacement in one module of ``src/liegrowth``.
Every pattern, named or not, must occur exactly once in its module, or the
gate stops before it runs anything.  The repository tree (without ``.git``
and caches) is copied to a temporary directory once per mutant, the mutant
is applied to the copy, and the tier-1 tests run there with ``-x``.  The
unmutated copy runs first and must pass, so that no mutant counts as killed
by a broken tree.  One JSON object per run is printed as it ends (the
mutant's name, ``killed`` or ``survived``, and the seconds it took), then a
summary of the mutants run.  The exit status is 0 when every mutant run is
killed, 1 when one survives, and 2 when a name is unknown, a pattern does
not match once or the unmutated tree fails.

A mutant whose tests run past ``TIMEOUT_S`` counts as killed: a hang is a
failure the tests show.  pytest does not collect this file (it is not a
``test_*.py`` module).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks"
)

# (name, module under src/liegrowth, pattern, replacement)
MUTANTS = [
    (
        "graded-derivs-drop-exponent",
        "polyfields.py",
        "append((m - ones[j], c * e))",
        "append((m - ones[j], c))",
    ),
    (
        "graded-form-sign-flip",
        "polyfields.py",
        "products.append((-1, b_part.comps, self._derivs(a_part)))",
        "products.append((1, b_part.comps, self._derivs(a_part)))",
    ),
    (
        "expansion-no-binomial",
        "polyfields.py",
        "(j, comb(e, j) * p ** (e - j) * den**j, j << at)",
        "(j, p ** (e - j) * den**j, j << at)",
    ),
    (
        "packed-index-off-by-one",
        "polyfields.py",
        "return sum(1 << (width * t) for t in idx)",
        "return sum(1 << (width * (t + 1)) for t in idx)",
    ),
    (
        "recombined-wrong-weight",
        "polyfields.py",
        "acc[i] = acc.get(i, 0) + weight * num",
        "acc[i] = acc.get(i, 0) + (weight + 1) * num",
    ),
    (
        "taylor-fields-no-factorial-ratio",
        "jetalg.py",
        "terms[key] = u * (fact // afact)",
        "terms[key] = u * fact",
    ),
    (
        "echelon-add-sign",
        "linalg.py",
        "rem = [a - f * b for a, b in zip(rem, pivot_row)]",
        "rem = [a + f * b for a, b in zip(rem, pivot_row)]",
    ),
    (
        "bracket-sign",
        "polyfields.py",
        "ai._act(acc, gb, -1)",
        "ai._act(acc, gb, 1)",
    ),
    (
        # column 1 over last * e is e alpha, not alpha / (alpha . r)
        "adapted-change-unscaled",
        "ampleness.py",
        "cols = [([y * den * e for y in ys], sum(map(mul, ys, pairings)))]",
        "cols = [([y * den * e for y in ys], ech.last * e)]",
    ),
    (
        # column 1 without the values' one denominator D
        "adapted-change-no-row-multiplier",
        "ampleness.py",
        "cols = [([y * den * e for y in ys],",
        "cols = [([y * e for y in ys],",
    ),
    (
        "shape-verdict-hyperplane",
        "ampleness.py",
        "if cols - fixed >= 2:",
        "if cols - fixed >= 1:",
    ),
    (
        "hull-verdict-pivots",
        "ampleness.py",
        "if len(pivots) < k:",
        "if len(pivots) <= k:",
    ),
    (
        "witness-weight-sign-unchecked",
        "ampleness.py",
        'raise AssertionError("witness has a nonpositive weight")',
        "pass",
    ),
    (
        "witness-weight-sum-unchecked",
        "ampleness.py",
        'raise AssertionError("witness weights do not sum to 1")',
        "pass",
    ),
    (
        "witness-average-unchecked",
        "ampleness.py",
        'raise AssertionError("witness does not average to the target")',
        "pass",
    ),
    (
        # sum(a_i A_i) compared with B, not W B: right only for weight 1
        "witness-average-unscaled",
        "ampleness.py",
        "!= [[scale * x for x in row] for row in b]:",
        "!= b:",
    ),
    (
        "witness-singular-member-unchecked",
        "ampleness.py",
        'raise AssertionError("witness member is singular")',
        "pass",
    ),
    (
        "witness-det-sign-unchecked",
        "ampleness.py",
        'raise AssertionError("witness member has the wrong determinant sign")',
        "pass",
    ),
    (
        "certify-extensions-unchecked",
        "flags.py",
        "if got != want:",
        "if False:",
    ),
    (
        "hall-layer-size-unchecked",
        "freelie.py",
        "if len(cands) != expected:",
        "if False:",
    ),
    (
        "generator-index-unchecked",
        "freelie.py",
        '_sizes(**{f"generator index {self.gen!r}": self.gen})',
        "pass",
    ),
    (
        "matrix-row-count-unchecked",
        "linalg.py",
        "if nrows is not None and len(rows) != nrows:",
        "if False:",
    ),
    (
        "mapping-unchecked",
        "linalg.py",
        "if not isinstance(x, Mapping):",
        "if False:",
    ),
    (
        "bracket-shape-unchecked",
        "freelie.py",
        "if (self.left, self.right, self.length) != (None, None, 1):",
        "if False:",
    ),
    (
        "eval-poly-degree-weight-dropped",
        "jetalg.py",
        "acc += prod * powers[maxdeg - len(mono)]",
        "acc += prod",
    ),
    (
        "eval-poly-coefficient-denominator-dropped",
        "jetalg.py",
        "return Fraction(acc, cden * powers[maxdeg]) if acc else _ZERO",
        "return Fraction(acc, powers[maxdeg]) if acc else _ZERO",
    ),
    ("diffpoly-act-sign-dropped", "jetalg.py", "sc = sign * c", "sc = c"),
    ("codes-successors-reversed", "jetalg.py", "for t in dirs)", "for t in reversed(dirs))"),
    ("poly-act-drops-exponent", "polyfields.py", "sc = sign * c * e", "sc = sign * c"),
    (
        "hall-admissibility-strict",
        "freelie.py",
        "return b.is_leaf or b.left <= a",
        "return b.is_leaf or b.left < a",
    ),
    (
        "bernoulli-recurrence-denominator",
        "flags.py",
        "bern.append(Fraction(m + 1 - rest, m + 1))",
        "bern.append(Fraction(m + 1 - rest, m + 2))",
    ),
    ("jacobi-unchecked", "flags.py", "if any(defect.values()):", "if False:"),
    ("generation-unchecked", "flags.py", "if got != alg.layer_dims[lay]:", "if False:"),
    ("below-top-count", "ampleness.py", "count(1) != level - 1", "count(1) != level"),
    (
        "cofactor-sign",
        "ampleness.py",
        "sign = -1 if (i + n + 1) % 2 else 1",
        "sign = -1 if (i + n) % 2 else 1",
    ),
    (
        "int-det-parity-flipped",
        "linalg.py",
        "return -ech.last if inversions % 2 else ech.last",
        "return ech.last if inversions % 2 else -ech.last",
    ),
    (
        # the nullspace columns of the adapted change
        "nullspace-sign",
        "ampleness.py",
        "col[f], col[c] = pairings[c], -pairings[f]",
        "col[f], col[c] = pairings[c], pairings[f]",
    ),
    (
        # the forward linear part L / lden, with the inverse's shift, over
        # the one denominator den * lden
        "pushforward-forward-linear",
        "polyfields.py",
        "return _moved(fr, rows, den, cols, lden)",
        "return _moved(fr, [[*(x * den for x in lrow), row[n] * lden]"
        " for lrow, row in zip(linear, rows)], den * lden, cols, lden)",
    ),
    (
        "frame-change-transposed",
        "polyfields.py",
        "[(m * n + i, rows[j][m]) for m in range(k) if rows[j][m]]",
        "[(m * n + i, rows[m][j]) for m in range(k) if rows[m][j]]",
    ),
    (
        "lifted-terms-no-lift",
        "polyfields.py",
        "up = lift[deg] = mult * den ** (top - deg)",
        "up = lift[deg] = mult",
    ),
    (
        "graded-vanishes-short",
        "polyfields.py",
        "for d in range(min(through, self.top(expr)) + 1)",
        "for d in range(min(through, self.top(expr)))",
    ),
    (
        "free-type-short-sum",
        "freelie.py",
        "total = sum(witt_dimension(k, i) for i in range(1, gv.step + 1))",
        "total = sum(witt_dimension(k, i) for i in range(1, gv.step))",
    ),
    ("jet-of-frame-no-factorial", "jetalg.py", "nums[code] = u * fact * mult", "nums[code] = u * mult"),
]


def pattern_count(module: str, pattern: str) -> int:
    """How often ``pattern`` occurs in the module ``src/liegrowth/<module>``."""
    return (ROOT / "src" / "liegrowth" / module).read_text().count(pattern)


def _run_tests(tree: Path) -> tuple[str, float]:
    """Run tier-1 with ``-x`` in ``tree``: "passed", "failed" or "timeout",
    and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
        outcome = "passed" if done.returncode == 0 else "failed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    return outcome, round(time.perf_counter() - start, 1)


def _run(name: str, module: str | None = None, old: str = "", new: str = "") -> dict:
    """Copy the tree, apply one mutant (none for the baseline), run tier-1."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if module is not None:
            path = tree / "src" / "liegrowth" / module
            path.write_text(path.read_text().replace(old, new, 1))
        outcome, seconds = _run_tests(tree)
    return {"mutant": name, "outcome": outcome, "seconds": seconds}


def main(names: list[str]) -> int:
    """Run the mutants named in ``names``, or all of them when none is."""
    unknown = sorted(set(names) - {m[0] for m in MUTANTS})
    if unknown:
        print(json.dumps({"error": f"no mutant named {', '.join(unknown)}"}))
        return 2
    for name, module, old, new in MUTANTS:
        count = pattern_count(module, old)
        if count != 1:
            error = f"pattern occurs {count} times in {module}"
            print(json.dumps({"mutant": name, "error": error}))
            return 2
    baseline = _run("none")
    print(json.dumps(baseline), flush=True)
    if baseline["outcome"] != "passed":
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    survived = []
    for name, module, old, new in chosen:
        got = _run(name, module, old, new)
        got["outcome"] = "survived" if got["outcome"] == "passed" else "killed"
        print(json.dumps(got), flush=True)
        if got["outcome"] == "survived":
            survived.append(name)
    killed = len(chosen) - len(survived)
    print(json.dumps({"mutants": len(chosen), "killed": killed, "survived": survived}))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
