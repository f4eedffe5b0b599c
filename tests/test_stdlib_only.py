"""The package has no runtime dependencies: every module under ``mesp``
imports only the standard library and ``mesp`` itself."""

import ast
import sys
from pathlib import Path

import mesp


def _imported_top_levels(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports; a relative import
    counts as ``mesp``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("mesp" if node.level else node.module.split(".")[0])
    return names


def test_imports_are_stdlib_or_mesp():
    # the scan sees a third-party import, dotted or not, and a relative one
    sample = "import numpy.linalg\nfrom .graph import Graph\n"
    assert _imported_top_levels(sample) == {"numpy", "mesp"}
    files = sorted(Path(mesp.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    for f in files:
        outside = _imported_top_levels(f.read_text(encoding="utf-8"))
        outside -= set(sys.stdlib_module_names) | {"mesp"}
        assert not outside, (f.name, sorted(outside))
