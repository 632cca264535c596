import ast
import importlib
import inspect
import pkgutil

import gradedk
from gradedk import verdict
from gradedk.verdict import CONSTRUCTIVE, EXHAUSTIVE, combine


def test_combine_takes_the_weakest_strategy():
    assert combine() == CONSTRUCTIVE
    assert combine(CONSTRUCTIVE, CONSTRUCTIVE) == CONSTRUCTIVE
    assert combine(CONSTRUCTIVE, EXHAUSTIVE) == EXHAUSTIVE


def _functions(module):
    """Every function and method defined in a gradedk module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(attr):
                    yield attr


def test_no_sampling_left():
    # every verdict is a theorem about its input: no seeds, no samples
    assert not hasattr(verdict, "SAMPLED")
    for info in pkgutil.iter_modules(gradedk.__path__):
        module = importlib.import_module("gradedk." + info.name)
        for fn in _functions(module):
            params = set(inspect.signature(fn).parameters)
            assert not params & {"rng", "samples"}, fn.__qualname__
        tree = ast.parse(inspect.getsource(module))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "random" not in imported, module.__name__


def test_no_enumeration_or_budget_exit_left():
    # the shift and crossed-product predicates decide through the covering
    # algebra: no scan of field elements and no budget exit. The tracer-only
    # GradedAlgebra.component_elements is the one definition allowed to use
    # the line scan
    scans = {"ENUMERATION_BUDGET", "line_representatives", "component_elements"}
    for name in ("graded", "matrixring"):
        tree = ast.parse(inspect.getsource(importlib.import_module("gradedk." + name)))
        kept = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and node.name == "component_elements"]
        skip = {id(n) for fn in kept for n in ast.walk(fn)}
        used = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip}
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        assert not used & scans, (name, used & scans)
    for info in pkgutil.iter_modules(gradedk.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module("gradedk." + info.name)))
        reasons = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not reasons & {"budget", "no-structured-witness"}, info.name
