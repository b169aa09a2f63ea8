import ast
from pathlib import Path

import sketchbench

SOURCES = sorted(Path(sketchbench.__file__).parent.glob("*.py"))


def test_no_assert_in_library():
    # `python -O` strips assert statements, so a check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1 and not found, found
