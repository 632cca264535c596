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
