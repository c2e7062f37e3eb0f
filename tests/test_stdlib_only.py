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


def test_generated_source_is_compiled_only_in_field_compiled():
    # field._compiled is the one compile site: it registers each source with
    # linecache, so a compile or exec anywhere else would lose its lines
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for f in tree.body if path.name == "field.py"
                  and isinstance(f, ast.FunctionDef) and f.name == "_compiled"
                  for node in ast.walk(f)}
        calls += [(path.name, node.lineno, node.func.id, id(node) in inside)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id in ("compile", "exec")]
    assert sorted(name for *_, name, ok in calls if ok) == ["compile", "exec"]
    assert [call for call in calls if not call[-1]] == []
