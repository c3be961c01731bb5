"""The contract between the package and perfbench's layer trace.

perfbench (``perfbench/tracing.py``) wraps the functions that ``TRACED``
names and reads its ``dynamics.*`` layer metrics from the spans of the
census's Bautin run on the first acceptance base.  A traced attribute
that no longer exists stops a traced run; a traced function that run no
longer calls leaves its metrics empty, and the run's last line is then
malformed.  These tests catch both before a benchmark run does.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import lotkacenter

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

#: the layer metrics that the census's Bautin run alone supplies
_BAUTIN_METRICS = (
    "dynamics.return_ms.r8",
    "dynamics.return_ms.r10",
    "dynamics.return_maps_per_bautin",
    "dynamics.scans_per_bautin",
    "dynamics.maps_per_cycle",
    "dynamics.root_solver_ms",
    "dynamics.root_solver_evals",
)


def test_every_traced_function_resolves():
    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_the_census_bautin_run_feeds_every_metric_it_supplies():
    tracer = tracing.Tracer()
    with tracer.installed():
        # called through the attribute, which the tracer rebinds
        result = lotkacenter.bautin_scenario(-2.0, -3.0, 0.02)
    summary = tracer.summary()
    assert summary.calls["brentq"] >= 1
    found = len(result.stage1_report.cycles) + len(result.stage2_report.cycles)
    metrics = tracing.layer_metrics(summary, {"bautin_cycles": found}, 1)
    for name in _BAUTIN_METRICS:
        assert metrics[name] is not None and math.isfinite(metrics[name]), (name, metrics[name])
