"""Rules on the package source itself."""

import ast
import pathlib

import polysat


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise.
    found = []
    for path in sorted(pathlib.Path(polysat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
