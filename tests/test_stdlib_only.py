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


def test_stratification_contract_is_stated_in_one_function_each():
    # valid heights, indices and cover-ring lengths are decided by strata's
    # three helpers alone; a second site would be a second, drifting copy.
    # "must be nr + 1" was a second spelling of the ring-length message.
    messages = {"need n >= 2 and r >= 1": "strata._height",
                "i must lie in": "strata._index",
                "requires N=": "strata._cover_height", "must be nr + 1": None}
    sites = {text: set() for text in messages}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                for text in messages:
                    if isinstance(node, ast.Constant) and text in str(node.value):
                        sites[text].add(f"{path.stem}.{func.name}")
    assert sites == {text: {site} if site else set() for text, site in messages.items()}


def test_corner_minor_is_taken_only_in_corner_valuations():
    # strata reads the corner minor through the memo of _corner_valuations
    # alone; a second _minor call would be a second, unshared determinant
    tree = ast.parse((SRC / "strata.py").read_text())
    callers = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_minor"]
    assert callers == ["_corner_valuations"]


def _stores(node, attr, scope=()):
    """The enclosing scope, as dotted class and function names, of every store
    to `.attr` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _stores(child, attr, scope + (child.name,))
            continue
        if (isinstance(child, ast.Attribute) and child.attr == attr
                and isinstance(child.ctx, (ast.Store, ast.Del))):
            yield ".".join(scope)
        yield from _stores(child, attr, scope)


def test_divisor_memo_is_filled_only_where_the_type_is_known():
    # the constructors clear the memo, divisor_type fills it by elimination and
    # sample_orbit by construction; a stamp anywhere else (a product, a copy, a
    # deformation) would let a cross-check compare a value with itself
    sites = sorted(f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
                   for scope in _stores(ast.parse(path.read_text(), str(path)), "_divisors"))
    assert sites == ["matrix.WittMat.__init__", "matrix.WittMat._from_raw",
                     "snf.divisor_type", "strata.sample_orbit"]
