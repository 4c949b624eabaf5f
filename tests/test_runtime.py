"""The runtime contract: importing liegrowth loads only the standard library,
each module is loaded on first use, and the package exports a fixed surface."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liegrowth

SRC = Path(__file__).resolve().parents[1] / "src"

# Snapshot sys.modules after interpreter start-up, so that site hooks loaded
# before any liegrowth import (e.g. _distutils_hack, certifi) do not count.
# __main__ is skipped because importing it runs the CLI; it only imports cli.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import liegrowth
for info in pkgutil.iter_modules(liegrowth.__path__):
    if info.name != "__main__":
        importlib.import_module("liegrowth." + info.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def test_every_submodule_imports_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    loaded = json.loads(out.stdout)
    assert "liegrowth.flags" in loaded and "liegrowth.cli" in loaded
    foreign = sorted(
        {name.split(".")[0] for name in loaded}
        - set(sys.stdlib_module_names)
        - {"liegrowth"}
    )
    assert foreign == []


def test_only_the_check_suites_import_random():
    """Library answers involve no randomness: only ``checks.py``, whose
    suites draw seeded inputs, imports ``random``."""
    importers = set()
    for path in (SRC / "liegrowth").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                importers.add(path.name)
    assert importers == {"checks.py"}


def test_importing_the_package_builds_no_code_table():
    """The jet-coordinate code tables are built on first use, so importing
    liegrowth and every submodule builds none."""
    probe = PROBE + (
        "\nfrom liegrowth import jetalg\n"
        "print(json.dumps(jetalg._codes.cache_info().currsize))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == 0


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module imports is used in it or listed in its
    ``__all__``, unless the import is marked ``# noqa: F401``.  The package
    ``__init__.py`` only re-exports and is not checked."""
    dead = []
    for path in sorted((SRC / "liegrowth").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = used | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in kept:
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []


# The public names of the package, by defining module.
EXPORTED = {
    "ampleness": (
        "ConvexWitness", "MatrixSpaceSpec", "Refutation", "SliceReport", "Verdict",
        "adapted_frame", "classify_matrix_space", "det_affine_in_free_column",
        "generic_slice_table", "gl_convex_decomposition", "hull_membership_witness",
        "hull_verdict", "slice_report",
    ),
    "errors": (
        "CapExceeded", "DegenerateFrame", "DomainError", "IncompleteJet",
        "InconsistentFormalSolution", "InvalidAlgebra", "LieGrowthError",
        "NormalDirection", "NotAmple", "NotFormalSolution", "OrderOverflow",
        "ParseError", "Unclassified",
    ),
    "flags": (
        "AlgebraValidation", "FlagReport", "StratifiedAlgebra", "formal_flag",
        "left_invariant_extensions", "lie_flag", "nilpotent_frame", "validate_algebra",
    ),
    "freelie": (
        "BracketExpr", "GrowthVector", "HallBasis", "hall_basis", "is_free_type",
        "is_hall_element", "maximal_growth_vector", "mobius", "witt_dimension",
    ),
    "jetalg": (
        "DiffPoly", "DiffVec", "JetPoint", "JetVar", "bracket", "bracket_of_expr",
        "derive", "diffvec_bracket", "evaluate", "jet_of_frame",
        "pure_derivative_extract", "pure_t_vars", "substitute",
    ),
    "parsing": ("frame_to_text", "parse_algebra", "parse_frame"),
    "polyfields": (
        "AffineMap", "Frame", "Poly", "PolyField", "frame_change", "poly_lie_bracket",
        "pushforward",
    ),
}


def test_the_package_exports_each_name_of_its_defining_module():
    names = sorted(n for group in EXPORTED.values() for n in group)
    assert len(names) == 66
    assert sorted(liegrowth.__all__) == names
    for mod, group in EXPORTED.items():
        home = importlib.import_module(f"liegrowth.{mod}")
        for name in group:
            assert getattr(liegrowth, name) is getattr(home, name), name
    star: dict = {}
    exec("from liegrowth import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    assert set(names) <= set(dir(liegrowth))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        liegrowth.no_such_name  # noqa: B018


def test_every_public_dataclass_is_frozen():
    # a record handed to a caller cannot be changed under the answers
    # computed from it
    records = [
        name for name in liegrowth.__all__
        if isinstance(getattr(liegrowth, name), type)
        and dataclasses.is_dataclass(getattr(liegrowth, name))
    ]
    assert "JetPoint" in records and "Frame" in records
    thawed = [name for name in records if not getattr(liegrowth, name).__dataclass_params__.frozen]
    assert thawed == []


def test_a_module_lists_only_its_own_names_in_its_all():
    # the package reads each name from its defining module, so no module
    # re-exports another's in its ``__all__``
    for mod, group in EXPORTED.items():
        home = importlib.import_module(f"liegrowth.{mod}")
        assert sorted(getattr(home, "__all__", group)) == sorted(group), mod


def test_a_package_name_follows_its_defining_module(monkeypatch):
    # the package binds no re-exported name, so a rebinding in the defining
    # module is what the package name reads
    from liegrowth import flags

    assert "lie_flag" not in vars(liegrowth)
    marker = object()
    monkeypatch.setattr(flags, "lie_flag", marker)
    assert liegrowth.lie_flag is marker


# Runs the CLI with the given arguments as ``python -m liegrowth`` does and
# prints, last, the liegrowth modules loaded, and ``json`` if it was loaded
# before this script imports it to print them; with no arguments it only
# imports the package.
COLD = """
import runpy, sys
argv = sys.argv[1:]
if argv:
    sys.argv = ["liegrowth"] + argv
    try:
        runpy.run_module("liegrowth", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import liegrowth
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("liegrowth", "json"))
import json
print(json.dumps(loaded))
"""

HEISENBERG = "dim 3\nX1 = d1 - 1/2*x2*d3\nX2 = d2 + 1/2*x1*d3\n"
FREE23 = "layers 2 1\nbracket e1 e2 = e3\n"
BASE = {"liegrowth", "liegrowth.cli", "liegrowth.errors", "liegrowth.freelie", "liegrowth.linalg"}
POINT = ["--point", "0,0,0"]


@pytest.mark.parametrize(
    "argv, allowed, refused",
    [
        ([], {"liegrowth"}, set()),
        (["witt", "--generators", "3", "--length", "3"], BASE, set()),
        (["hall", "--generators", "2", "--max-length", "3"], BASE, set()),
        (["mgv", "--rank", "3", "--dim", "14"], BASE, set()),
        (["growth", "--frame", "heis.frame", *POINT], None, {"jetalg", "checks", "catalog"}),
        (["nilpotentize", "--algebra", "h.alg"], None, {"jetalg", "checks", "catalog"}),
        (
            ["slice", "--frame", "heis.frame", *POINT, "--direction", "1,0,0", "--step", "2"],
            None, {"jetalg", "checks", "catalog"},
        ),
        (["ampleness", "--rank", "2", "--dim", "4"], None, {"jetalg", "checks", "catalog"}),
    ],
    ids=["import", "witt", "hall", "mgv", "growth", "nilpotentize", "slice", "ampleness"],
)
def test_a_cold_start_loads_only_the_modules_it_runs(tmp_path, argv, allowed, refused):
    (tmp_path / "heis.frame").write_text(HEISENBERG)
    (tmp_path / "h.alg").write_text(FREE23)
    out = subprocess.run(
        [sys.executable, "-c", COLD, *argv], env=_env(), cwd=tmp_path,
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    # every run writes text, so none needs json
    assert "json" not in loaded
    if allowed is not None:
        assert loaded <= allowed
    assert not {f"liegrowth.{mod}" for mod in refused} & loaded
