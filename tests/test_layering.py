"""The import structure of `src/gradedk`, read with `ast`: every module
imports at load time, reads no other module's private names, and the
modules form layers, with no cycle among their relative imports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gradedk"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(SRC.glob("*.py"))}


def relative_imports(tree):
    """(imported module, names) for each relative import, wherever it
    stands; `from . import x` imports the module x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            if node.module is None:
                for name in names:
                    yield name, []
            else:
                yield node.module, names


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    found = [(node.name, inner.lineno)
             for node in ast.walk(MODULES[name])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_relative_import_of_a_private_name(name):
    private = [(module, n) for module, names in relative_imports(MODULES[name])
               for n in names if n.startswith("_")]
    assert not private, private


def test_relative_imports_are_acyclic():
    graph = {name: {module for module, _ in relative_imports(tree)}
             for name, tree in MODULES.items()}
    assert all(target in MODULES for targets in graph.values() for target in targets)
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: %s" % " -> ".join(path + [name])
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_the_wedderburn_layer_sits_below_the_graded_predicates():
    imported = {module for module, _ in relative_imports(MODULES["wedderburn"])}
    assert imported <= {"algebra", "linalg"}, imported
