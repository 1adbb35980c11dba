"""Static checks on the library source."""

from __future__ import annotations

import ast
from pathlib import Path

import tpscaffold


def test_no_assert_statements():
    # `python -O` strips assert statements, so runtime invariants must raise.
    found = []
    for path in sorted(Path(tpscaffold.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_parses_as_python_3_10():
    # pyproject.toml promises Python >= 3.10
    for path in sorted(Path(tpscaffold.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
