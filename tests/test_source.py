"""Rules on the package source itself."""

import ast
from pathlib import Path

import orbita


def test_no_assert_statements():
    # asserts vanish under python -O; soundness checks must raise explicitly
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
