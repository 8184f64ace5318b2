"""The package's runtime claims that no other test reads."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plates_olives"


def _module_level_imports(tree: ast.Module):
    # everything the module runs on import; a function body may import an
    # optional dependency on the one path that needs it
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            todo.extend(ast.iter_child_nodes(node))


def test_runtime_imports_only_the_standard_library():
    # the README promises a pure standard library runtime, and
    # pyproject.toml declares no dependencies
    sources = sorted(PACKAGE.glob("*.py"))
    assert "references.py" in {source.name for source in sources}
    outside = {}
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in _module_level_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if node.level == 0 else []
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.setdefault(source.name, []).append(name)
    assert outside == {}
