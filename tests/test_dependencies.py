"""The runtime dependencies stay at numpy plus the standard library."""

import ast
import sys
from pathlib import Path

import flowrec

ALLOWED = {"numpy", *sys.stdlib_module_names}


def test_every_absolute_import_is_numpy_or_the_standard_library():
    sources = sorted(Path(flowrec.__file__).parent.glob("*.py"))
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert sources
    assert outside == []
