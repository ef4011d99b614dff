"""The benchmark's span tracer (``bench/spans.py``) patches package functions
and methods by name.  Every name it lists must still resolve, or a traced
benchmark run crashes.  The tracer's source is only read here, never
imported as a module, so nothing under ``bench/`` is written.
"""
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer_names():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["FUNCTIONS"], namespace["METHODS"]


def test_traced_names_resolve():
    functions, methods = _tracer_names()
    assert functions and methods
    for module_name, attr, span in functions:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), span
    for module_name, cls_name, attr, span in methods:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None and attr in vars(cls), span
