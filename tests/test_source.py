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


def test_package_root_is_docstring_only():
    # Callers import the submodules; a re-export list at the root would be a
    # second registry of every public name to keep in step with each rename.
    tree = ast.parse(Path(sketchbench.__file__).read_text(encoding="utf-8"))
    statements = [type(node).__name__ for node in tree.body]
    assert statements == ["Expr"] and ast.get_docstring(tree) is not None, statements
