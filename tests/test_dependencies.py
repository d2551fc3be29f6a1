"""Static checks on the package source: its declared runtime dependencies are
the ones its code imports, every import is used, and its searches do not
recurse and return no value."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliquelab"


def _third_party_imports() -> set[str]:
    """Top-level modules imported under the package, less the stdlib and
    the package's own relative imports."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_match_the_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]
    }
    assert _third_party_imports() == declared


def test_importing_the_cli_loads_no_mpmath():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cliquelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_search_function_calls_itself():
    # every search runs on oracles._search, so no search depth meets the
    # interpreter's recursion limit; a function calling itself by name would
    # bring per-level recursion back
    for module in ("oracles.py", "rgp.py"):
        tree = ast.parse((PACKAGE / module).read_text(), module)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {
                    call.func.id
                    for call in ast.walk(fn)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
                assert fn.name not in called, f"{module}: {fn.name} calls itself"


def test_search_nodes_return_no_value():
    # oracles._search reads no node's return value, so one would be dropped
    # silently; a node ends the search by yielding STOP instead
    for module in ("oracles.py", "rgp.py"):
        tree = ast.parse((PACKAGE / module).read_text(), module)
        nodes = [
            inner
            for outer in ast.walk(tree)
            if isinstance(outer, ast.FunctionDef)
            for inner in ast.walk(outer)
            if isinstance(inner, ast.FunctionDef) and inner is not outer
            and inner.name == "node"
        ]
        assert nodes, f"{module}: no search node found"
        for fn in nodes:
            for ret in ast.walk(fn):
                if isinstance(ret, ast.Return):
                    assert ret.value is None, f"{module}:{ret.lineno}: a node returns a value"


def test_every_import_is_used():
    # __init__.py imports to re-export, so only the other modules are scanned
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
