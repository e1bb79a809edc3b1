"""The benchmark tracer's bindings into qplab.

bench/tracing.py wraps qplab functions by qualified name and derives counts
from their bound arguments, so renaming or deleting a traced function, or one
of the arguments its counter reads, silently empties a per-layer metric. These
checks keep that contract in the main suite.
"""
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import qplab.cli  # noqa: E402,F401  (loads every module the tracer patches)
import tracing  # noqa: E402
from qplab import dimension  # noqa: E402


def test_every_target_resolves_to_a_callable():
    for qualname in tracing.TARGETS:
        module_name, attr = qualname.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module_name), attr, None)), qualname


def test_segment_cover_counts_the_sample_size(golden):
    sample = dimension.orbit_segment_sample(golden, -8.0, 8.0, 0.4)
    with tracing.Tracer() as tracer:
        balls = dimension._points_greedy_cover(sample, 0.4)
    assert not tracer.missing
    [span] = [s for s in tracer.spans if s.name == tracing.SEGMENT_COVER]
    assert span.counts == {"points": sample.size, "balls": balls}


def test_grid_cover_and_packing_count_the_grid_size(golden):
    sample = dimension.TorusGridSample.hull_grid(golden, 0.25)
    for name, radius in ((tracing.GRID_COVER, 0.25), (tracing.GRID_PACKING, 0.5)):
        with tracing.Tracer() as tracer:
            # looked up inside the block, where the tracer has patched the module
            balls = getattr(dimension, name.rsplit(".", 1)[1])(sample, radius)
        assert not tracer.missing
        [span] = [s for s in tracer.spans if s.name == name]
        assert span.counts == {"cells": sample.size, "balls": balls}
