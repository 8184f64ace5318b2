"""The package's runtime claims that no other test reads."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from plates_olives import analysis, partitions, references
from plates_olives.errors import InvalidArgument

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


OUT_OF_RANGE = [
    (analysis.nth_root_ratio, (2, 0), "n must be at least 1"),
    (partitions.w_cap, (-1,), "weight must be nonnegative"),
    (partitions.partitions_of_weight, (-1,), "weight must be nonnegative"),
    (references.double_factorial, (-2,), "double factorial needs m >= -1"),
    (references.catalan, (-1,), "catalan needs n >= 0"),
    (references.dyck_paths, (-1,), "semilength must be nonnegative"),
    (references.weighted_dyck_sum_by_enumeration, (-1,), "semilength must be nonnegative"),
    (references.weighted_dyck_sum_by_dp_through, (-1,), "semilength must be nonnegative"),
    (references.updown_numbers, (-1,), "limit must be nonnegative"),
    (references.tangent_numbers, (-1,), "n must be nonnegative"),
    (references.count_zigzag_permutations, (3,), "size must be even and at least 2"),
]


@pytest.mark.parametrize(
    "function, args, message",
    OUT_OF_RANGE,
    ids=[function.__name__ for function, _, _ in OUT_OF_RANGE],
)
def test_out_of_range_arguments_raise_invalid_argument(function, args, message):
    # the README: out-of-range arguments raise InvalidArgument, which the CLI
    # reports as a user error and library callers may catch as a ValueError
    with pytest.raises(InvalidArgument) as raised:
        function(*args)
    assert str(raised.value) == message
