"""The benchmark's reported per-layer metrics still name functions that exist.

perfbench's tracer wraps isopar's public functions by name and reports a
metric whose functions are all gone as absent (None).  This test installs
the tracer in process and fails, naming the metric, as soon as a rename or
deletion in ``src/`` leaves a reported metric with nothing to trace.
"""

from __future__ import annotations

import sys
from pathlib import Path

import isopar

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def test_every_reported_layer_metric_traces_an_existing_name():
    layer = {name for name, *_ in tracing.LAYER_METRICS}
    reported = [name for name in run.REPORTED_LAYERS if name in layer]
    assert reported
    tracer = tracing.Tracer()
    try:
        tracer.install(isopar)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert [name for name in reported if metrics[name] is None] == []
