"""The layer trace of the benchmark wraps library functions by name; every
name it lists must exist, or a traced run fails before it starts."""

import ast
import importlib
import pathlib

LAYERTRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _constant(name):
    # read the assignment from the source: importing the script from the
    # tests would write its bytecode next to it
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERTRACE.name}")


def test_layertrace_functions_exist():
    functions = _constant("FUNCTIONS")
    assert functions
    for _, modname, attr in functions:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_layertrace_samplers_exist():
    from oseledets.cocycle import DrivingSystem

    samplers = _constant("SAMPLERS")
    assert "sample_windows" in samplers
    for attr in samplers:
        assert callable(getattr(DrivingSystem, attr)), attr
