import ast
from pathlib import Path

import pytest

import sketchbench
from sketchbench.model import NodeView

SOURCES = sorted(Path(sketchbench.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
# The layer-record scripts are held to the library's assert and import rules.
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
SCRIPT_TREES = {f"scripts/{path.stem}": ast.parse(path.read_text(encoding="utf-8")) for path in SCRIPTS}

LOADED = {
    node.id
    for tree in TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
}


def test_no_assert_in_library():
    # `python -O` strips assert statements, so a check written as one vanishes.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in {**TREES, **SCRIPT_TREES}.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert len(TREES) > 1 and len(SCRIPT_TREES) > 1 and not found, found


def test_package_root_is_docstring_only():
    # Callers import the submodules; a re-export list at the root would be a
    # second registry of every public name to keep in step with each rename.
    tree = ast.parse(Path(sketchbench.__file__).read_text(encoding="utf-8"))
    statements = [type(node).__name__ for node in tree.body]
    assert statements == ["Expr"] and ast.get_docstring(tree) is not None, statements


def _module_level_private_names():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            yield from (f"{module}.{name}" for name in names if name[0] == "_" and name[:2] != "__")


@pytest.mark.parametrize("qualified", sorted(_module_level_private_names()))
def test_private_helpers_are_referenced(qualified):
    # A private helper that nothing in the package reads is dead code a
    # refactor left behind.
    assert qualified.split(".")[1] in LOADED, f"{qualified} is defined but never read"


def test_imports_are_read():
    # A module-level import that its module never reads is a dependency
    # left behind by a deletion.
    unread = []
    for module, tree in {**TREES, **SCRIPT_TREES}.items():
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unread.append(f"{module}.{name}")
    assert len(TREES) > 1 and len(SCRIPT_TREES) > 1 and not unread, unread


def test_node_view_builders_pass_every_field():
    # ``tuple.__new__(NodeView, (...))`` skips the NamedTuple's arity check, so
    # each such call must pass a tuple display of one element per field.
    calls = [
        (f"{module}:{node.lineno}", node.args[1])
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "tuple.__new__"
        and ast.unparse(node.args[0]) == "NodeView"
    ]
    wrong = [
        site
        for site, fields in calls
        if not isinstance(fields, ast.Tuple)
        or len(fields.elts) != len(NodeView._fields)
        or any(isinstance(element, ast.Starred) for element in fields.elts)
    ]
    assert len(calls) >= 5 and not wrong, (len(calls), wrong)
