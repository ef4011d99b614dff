"""The benchmark's span tracer (``bench/spans.py``) patches package functions
and methods by name, and reads fields of their arguments and results.  Every
name it lists must still resolve and every field it reads must still exist,
or a traced benchmark run crashes.  The tracer's source is only read and
executed here, never imported as a module, and its ``write`` is never
called, so nothing under ``bench/`` is written.
"""
import importlib
from pathlib import Path

import monideal
from monideal import PrimeField, SimplicialComplex, cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# CLI calls that reach every VALUE, KEY and PREPARE hook of the tracer:
# covers, the oracle, the Cohen-Macaulay test and polarization
TRACED_CALLS = (
    ["verify", "x1*x2, x2*x3, x3*x4, x1*x4", "--oracle", "--json"],
    ["primes", "x1*x2, x2*x3, x3*x4"],
    ["dim", "x1*x2, x2*x3, x3*x4"],
    ["is-cm", "x1*x2, x2*x3, x3*x4, x1*x4"],
    ["big-height", "x^2, x*y, y^3"],
)


def _tracer():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_traced_names_resolve():
    spans = _tracer()
    functions, methods = spans["FUNCTIONS"], spans["METHODS"]
    assert functions and methods
    for module_name, attr, span in functions:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), span
    for module_name, cls_name, attr, span in methods:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None and attr in vars(cls), span


def test_traced_run_reports_every_layer_metric(capsys):
    """Run CLI calls under the installed tracer: each gives the untraced
    stdout, and the per-layer totals name every metric the tracer declares
    (the ``trace.*`` ones are added by the harness, not the tracer)."""
    spans = _tracer()
    tracer = spans["Tracer"]()
    for argv in TRACED_CALLS:
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        with tracer.installed():
            assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == plain, argv
    # no CLI command lists all faces; this reaches faces_by_dim's hooks
    with tracer.installed():
        hollow = SimplicialComplex(3, [0b011, 0b101, 0b110])
        monideal.reduced_betti_numbers(hollow, PrimeField(3))
    metrics = tracer.layer_metrics()
    declared = {
        name for name, _, _ in spans["LAYER_METRICS"]
        if not name.startswith("trace.")
    }
    assert declared <= set(metrics)
    for name in ("covers.minimal_transversals", "polarization.polarize",
                 "betti.hochster_betti_table", "complexes.faces_by_dim",
                 "homology.is_cohen_macaulay", "cli.main"):
        assert metrics[f"{name}.calls"] > 0, name
