"""Library-side preparation of a workload, and the set-up probe that times it.

Run as a script (``python3 bench/probe.py MANIFEST``) it is the set-up probe:
a fresh interpreter that imports the library, performs the preparation the
manifest names and prints ``ready``.  The harness times launch to ``ready``
as ``setup_s``.  The manifest is JSON with keys ``modules`` (to import),
``catalog`` (build the catalog frames), ``frames`` and ``algebras`` (input
files to parse).  The source directory must be on ``PYTHONPATH``.
"""

import importlib
import json
import sys


def prepare(manifest):
    """Import, build the catalog and parse the input files; returns
    ``(catalog_frames or None, frames, algebras)`` with parsed inputs keyed by
    path."""
    for name in manifest["modules"]:
        importlib.import_module(name)
    from liegrowth import catalog, parsing

    frames_by_name = catalog.catalog_frames() if manifest["catalog"] else None
    frames = {}
    for path in manifest["frames"]:
        with open(path, encoding="utf-8") as fh:
            frames[path] = parsing.parse_frame(fh.read())
    algebras = {}
    for path in manifest["algebras"]:
        with open(path, encoding="utf-8") as fh:
            algebras[path] = parsing.parse_algebra(fh.read())
    return frames_by_name, frames, algebras


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        prepare(json.load(fh))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
