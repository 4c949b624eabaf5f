"""The runtime contract: importing liegrowth loads only the standard library."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_submodule_imports_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
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
    liegrowth and every submodule (what a CLI start pays) builds none."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    probe = PROBE + "\nfrom liegrowth import jetalg\nprint(json.dumps(len(jetalg._TABLES)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
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
