"""The runtime code imports only the standard library and wittlat itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittlat"


def test_runtime_imports_are_stdlib_or_wittlat():
    # every import statement, at module level or inside a function; a relative
    # import (level > 0) stays inside the package
    allowed = set(sys.stdlib_module_names) | {"wittlat"}
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [(path.name, node.lineno, name) for name in names
                    if name.split(".")[0] not in allowed]
    assert not bad
