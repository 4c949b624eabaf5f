"""The runtime contract: importing liegrowth loads only the standard library."""

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
