"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "imsetkit"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an exact check written as one
    # would silently stop running; the library raises instead
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# bench/test_bench.py asserts that the tracer patched ci.lp_feasible, so ci
# keeps that import without using it
UNUSED_IMPORTS_ALLOWED = {"ci.py:lp_feasible"}


def test_library_has_no_unused_imports():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.add(name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(elt.value for elt in node.value.elts)
        found += [
            f"{path.name}:{name}"
            for name in sorted(imported)
            if name not in used and f"{path.name}:{name}" not in UNUSED_IMPORTS_ALLOWED
        ]
    assert found == []


def test_every_private_helper_has_a_caller():
    # a reference from inside the helper's own body (recursion) does not
    # count; cli.main dispatches the _cmd_* handlers by name
    defined, called = [], set()

    def visit(node, inside, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                defined.append((name, f"{path.name}:{node.lineno}"))
            inside = inside | {name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            called.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            called.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, path)

    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), frozenset(), path)
    found = [where for name, where in defined if name not in called and not name.startswith("_cmd_")]
    assert found == []
