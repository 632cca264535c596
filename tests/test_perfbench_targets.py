"""The benchmark tracer wraps gradedk functions by module and attribute path;
every path it names must resolve, or a traced run would crash on start."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()


@pytest.mark.parametrize("name,mod,path",
                         _T.SPANS + _T.COUNTED_CALLS + _T.COUNTED_YIELDS)
def test_tracer_target_resolves(name, mod, path):
    owner = importlib.import_module("gradedk." + mod)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
