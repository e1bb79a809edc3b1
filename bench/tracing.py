"""Per-layer tracing of qplab from outside the program.

``Tracer`` wraps functions of the ``qplab`` modules (the layers) and records a
span for every call: name, start, end, parent span and the call's counts. It
patches every binding of each wrapped function object in the loaded
``qplab.*`` modules (a function imported by name into ``qplab.cli`` or
``qplab.verify`` is bound there too) and restores all of them on exit.
Spans stay in memory; ``layer_metrics`` turns the spans of one pass into the
per-layer metrics of ``METRICS``.

Counts that the program does not expose (grid points of a scan, q values of a
Diophantine loop) are computed from the call's arguments and result with the
program's own formulas, so they are exact but derived, not counted.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

D = "qplab.signal.translation_distance_many"
PARSE = "qplab.signal.parse_signal"
RELATION = "qplab.signal.suspected_rational_relation"
SCAN = "qplab.almost_periods.sublevel_scan"
CURVE = "qplab.almost_periods.length_curve"
GRID_COVER = "qplab.dimension._grid_greedy_cover"
GRID_PACKING = "qplab.dimension._grid_greedy_packing"
SEGMENT_COVER = "qplab.dimension._points_greedy_cover"
SEGMENT_SAMPLE = "qplab.dimension.orbit_segment_sample"
EQUIVALENCE = "qplab.dimension.equivalence_constants"
BADNESS = "qplab.diophantine.badness_score"
SIMDENOM = "qplab.diophantine.best_simultaneous_denominator"
KRONECKER = "qplab.diophantine.kronecker_solve"
CF = "qplab.diophantine.cf_expand"
SUITE = "qplab.verify.run_suite"
MAIN = "qplab.cli.main"
RENDER_JSON = "qplab.reports.render_json"
WRITE = "qplab.reports.write_text"
# every public function of qplab.precision; they call one another, so the
# layer's time is that of its outermost calls
PRECISION = tuple(
    f"qplab.precision.{name}"
    for name in ("configured_precision_bits", "set_working_precision", "golden_ratio", "sqrt2",
                 "sqrt3", "two_pi", "as_mpf", "mpf_to_fraction", "ulp_uncertainty",
                 "to_fixed_point", "fold_angle")
)


def _scan_counts(a: dict, result) -> dict:
    lo, hi = a["window"]
    return {"grid_points": math.ceil((hi - lo) / a["step"]) + 1, "eps": a["eps"]}


def _kronecker_counts(a: dict, result) -> dict:
    """Grid points up to and including the solution, or the whole grid without one.

    The solver evaluates whole blocks of points, so it computes more than
    this; the count is the work any solver must cover, and points per second
    on it is an effective rate that a solver skipping points raises.
    """
    step = a["eps"] / (2.0 * max(abs(float(lam)) for lam in a["lambdas"]))
    npts = math.floor(a["tmax"] / step) + 1
    return {"points": npts if result is None else round(result / step) + 1}


# wrapped function -> counts of one call, from its bound arguments and result
TARGETS: dict[str, Callable[[dict, object], dict] | None] = {
    D: lambda a, r: {"points": int(a["taus"].size)},
    PARSE: None,
    RELATION: None,
    SCAN: _scan_counts,
    CURVE: lambda a, r: {"unresolved": sum(not s.resolved for s in r.samples)},
    GRID_COVER: lambda a, r: {"cells": a["sample"].size, "balls": r},
    GRID_PACKING: lambda a, r: {"cells": a["sample"].size, "balls": r},
    SEGMENT_COVER: lambda a, r: {"points": a["sample"].size, "balls": r},
    SEGMENT_SAMPLE: None,
    EQUIVALENCE: None,
    BADNESS: lambda a, r: {"n": len(a["alpha"]), "q": a["Q"]},
    SIMDENOM: lambda a, r: {"q": a["qmax"] if r is None else r},
    KRONECKER: _kronecker_counts,
    CF: None,
    SUITE: None,
    MAIN: None,
    RENDER_JSON: None,
    WRITE: lambda a, r: {"bytes": len(a["text"].encode("utf-8"))},
    **dict.fromkeys(PRECISION),
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps ``TARGETS`` while active and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qplab" or name.startswith("qplab."))
        ]
        for qualname, counter in TARGETS.items():
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.missing[qualname] = f"{qualname} does not exist"
                continue
            wrapper = self._wrap(qualname, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, qualname: str, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = Span(qualname, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def records(self) -> list[list]:
        """Spans as JSON-ready rows: name, start, end, parent, error, counts."""
        return [[s.name, s.start, s.end, s.parent, s.error, s.counts] for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # wrapped functions the value is derived from
    moves: str  # the end-to-end metric and workloads a change here should move
    value: Callable[["_Pass"], float]


class _Pass:
    """Sums over the spans of one traced pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        self.self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def of(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def busy(self, *names: str) -> float:
        return sum(s.duration for s in self.of(*names))

    def self_s(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s.name == name)

    def outermost(self, *names: str) -> list[Span]:
        """Spans of these functions not called from inside another of them."""
        return [s for s in self.of(*names) if s.parent < 0 or self.spans[s.parent].name not in names]

    def count(self, key: str, *names: str, where=lambda s: True) -> int:
        return sum(s.counts.get(key, 0) for s in self.of(*names) if where(s))

    def scan_points(self) -> int:
        return self.count("grid_points", SCAN, where=lambda s: not s.error)

    def points_in_scans(self) -> int:
        return self.count("points", D, where=lambda s: s.parent >= 0 and self.spans[s.parent].name == SCAN)

    def badness(self, single: bool) -> list[Span]:
        """Completed badness calls with n = 1 (single) or n >= 2."""
        return [s for s in self.of(BADNESS) if not s.error and (s.counts["n"] == 1) == single]

    def superseded_points(self) -> int:
        """Grid points of completed scans whose window a later scan at the same eps doubled."""
        last: dict[tuple[int, float], Span] = {}
        total = 0
        for s in self.of(SCAN):
            if s.error or s.parent < 0:
                continue
            key = (s.parent, s.counts["eps"])
            if key in last:
                total += last[key].counts["grid_points"]
            last[key] = s
        return total


def _q(spans: list[Span]) -> int:
    return sum(s.counts["q"] for s in spans)


def _busy(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


_WALL_AP = "wall_s on sqrt23-curves, and on golden-hull-diophantine through the golden suite's length curve"
_WALL_HULL = "wall_s on golden-hull-diophantine through its dimension commands; none on sqrt23-curves"
_WALL_SEG = "wall_s on golden-hull-diophantine through the golden suite's segment checks; none on sqrt23-curves"
_WALL_DIO = "wall_s on golden-hull-diophantine through its Diophantine commands; none on sqrt23-curves"
_WALL_NK = "wall_s on golden-hull-diophantine; not moved by an n=1 shortcut"
_MINOR = "wall_s, slightly, on every workload"

METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("signal.d_points", "count", "lower", (D,), _WALL_AP,
                lambda p: p.count("points", D)),
    LayerMetric("signal.d_busy_s", "s", "lower", (D,), _WALL_AP, lambda p: p.busy(D)),
    LayerMetric("signal.d_mpts_per_s", "Mpts/s", "higher", (D,), _WALL_AP,
                lambda p: _ratio(p.count("points", D), p.busy(D), 1e-6)),
    LayerMetric("almost_periods.scan_calls", "count", "lower", (SCAN,), _WALL_AP,
                lambda p: len(p.of(SCAN))),
    LayerMetric("almost_periods.grid_points", "count", "lower", (SCAN,), _WALL_AP,
                lambda p: p.scan_points()),
    LayerMetric("almost_periods.evaluated_frac", "ratio", "lower", (SCAN, D),
                "wall_s (maybe peak_rss_mib) on sqrt23-curves and golden-hull-diophantine",
                lambda p: _ratio(p.points_in_scans(), p.scan_points())),
    LayerMetric("almost_periods.superseded_points_frac", "ratio", "lower", (SCAN, CURVE),
                "wall_s on sqrt23-curves", lambda p: _ratio(p.superseded_points(), p.scan_points())),
    LayerMetric("almost_periods.scan_busy_s", "s", "lower", (SCAN,), _WALL_AP, lambda p: p.busy(SCAN)),
    LayerMetric("almost_periods.scan_self_s", "s", "lower", (SCAN, D), _WALL_AP,
                lambda p: p.self_s(SCAN)),
    LayerMetric("almost_periods.curve_busy_s", "s", "lower", (CURVE,), _WALL_AP,
                lambda p: p.busy(CURVE)),
    LayerMetric("almost_periods.unresolved_samples", "count", "lower", (CURVE,), _WALL_AP,
                lambda p: p.count("unresolved", CURVE)),
    LayerMetric("dimension.grid_cells", "count", "lower", (GRID_COVER, GRID_PACKING), _WALL_HULL,
                lambda p: p.count("cells", GRID_COVER, GRID_PACKING)),
    LayerMetric("dimension.grid_balls", "count", "lower", (GRID_COVER, GRID_PACKING), _WALL_HULL,
                lambda p: p.count("balls", GRID_COVER, GRID_PACKING)),
    LayerMetric("dimension.grid_busy_s", "s", "lower", (GRID_COVER, GRID_PACKING), _WALL_HULL,
                lambda p: p.busy(GRID_COVER, GRID_PACKING)),
    LayerMetric("dimension.grid_us_per_ball", "us/ball", "lower", (GRID_COVER, GRID_PACKING), _WALL_HULL,
                lambda p: _ratio(p.busy(GRID_COVER, GRID_PACKING),
                                 p.count("balls", GRID_COVER, GRID_PACKING), 1e6)),
    LayerMetric("dimension.segment_points", "count", "lower", (SEGMENT_COVER,), _WALL_SEG,
                lambda p: p.count("points", SEGMENT_COVER)),
    LayerMetric("dimension.segment_balls", "count", "lower", (SEGMENT_COVER,), _WALL_SEG,
                lambda p: p.count("balls", SEGMENT_COVER)),
    LayerMetric("dimension.segment_rows_computed", "rows", "lower", (SEGMENT_COVER,), _WALL_SEG,
                lambda p: sum(s.counts.get("balls", 0) * s.counts.get("points", 0)
                              for s in p.of(SEGMENT_COVER))),
    LayerMetric("dimension.segment_sample_s", "s", "lower", (SEGMENT_SAMPLE,), _WALL_SEG,
                lambda p: p.busy(SEGMENT_SAMPLE)),
    LayerMetric("dimension.segment_busy_s", "s", "lower", (SEGMENT_COVER,), _WALL_SEG,
                lambda p: p.busy(SEGMENT_COVER)),
    LayerMetric("dimension.equivalence_busy_s", "s", "lower", (EQUIVALENCE,),
                "wall_s on golden-hull-diophantine", lambda p: p.busy(EQUIVALENCE)),
    LayerMetric("diophantine.badness_n1_q", "count", "lower", (BADNESS,), _WALL_DIO,
                lambda p: _q(p.badness(single=True))),
    LayerMetric("diophantine.badness_n1_busy_s", "s", "lower", (BADNESS,), _WALL_DIO,
                lambda p: _busy(p.badness(single=True))),
    LayerMetric("diophantine.badness_n1_q_per_s", "q/s", "higher", (BADNESS,), _WALL_DIO,
                lambda p: _ratio(_q(p.badness(single=True)), _busy(p.badness(single=True)))),
    LayerMetric("diophantine.badness_nk_q", "count", "lower", (BADNESS,), _WALL_NK,
                lambda p: _q(p.badness(single=False))),
    LayerMetric("diophantine.badness_nk_busy_s", "s", "lower", (BADNESS,), _WALL_NK,
                lambda p: _busy(p.badness(single=False))),
    LayerMetric("diophantine.badness_nk_q_per_s", "q/s", "higher", (BADNESS,), _WALL_NK,
                lambda p: _ratio(_q(p.badness(single=False)), _busy(p.badness(single=False)))),
    LayerMetric("diophantine.simdenom_q", "count", "lower", (SIMDENOM,), _WALL_DIO,
                lambda p: p.count("q", SIMDENOM)),
    LayerMetric("diophantine.simdenom_busy_s", "s", "lower", (SIMDENOM,), _WALL_DIO,
                lambda p: p.busy(SIMDENOM)),
    LayerMetric("diophantine.kronecker_points", "count", "lower", (KRONECKER,), _WALL_DIO,
                lambda p: p.count("points", KRONECKER)),
    LayerMetric("diophantine.kronecker_mpts_per_s", "Mpts/s", "higher", (KRONECKER,), _WALL_DIO,
                lambda p: _ratio(p.count("points", KRONECKER), p.busy(KRONECKER), 1e-6)),
    LayerMetric("diophantine.cf_busy_s", "s", "lower", (CF,), _WALL_DIO, lambda p: p.busy(CF)),
    LayerMetric("verify.suite_busy_s", "s", "lower", (SUITE,), _MINOR, lambda p: p.busy(SUITE)),
    LayerMetric("verify.self_s", "s", "lower", (SUITE,), _MINOR, lambda p: p.self_s(SUITE)),
    LayerMetric("cli.parse_busy_s", "s", "lower", (PARSE, RELATION), "setup_s on every workload",
                lambda p: p.busy(PARSE, RELATION)),
    LayerMetric("cli.self_s", "s", "lower", (MAIN,), _MINOR, lambda p: p.self_s(MAIN)),
    LayerMetric("reports.render_busy_s", "s", "lower", (RENDER_JSON, WRITE), _MINOR,
                lambda p: p.busy(RENDER_JSON, WRITE)),
    LayerMetric("reports.bytes", "bytes", "lower", (WRITE,), _MINOR, lambda p: p.count("bytes", WRITE)),
    LayerMetric("precision.calls", "count", "lower", PRECISION, _MINOR,
                lambda p: len(p.outermost(*PRECISION))),
    LayerMetric("precision.busy_s", "s", "lower", PRECISION, _MINOR,
                lambda p: _busy(p.outermost(*PRECISION))),
)
# traced pass time over untraced pass time, minus 1; measured by the worker
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def layer_metrics(spans: list[Span], missing: dict[str, str]) -> dict[str, dict]:
    """Every metric of ``METRICS`` for one pass; a metric whose function is gone reads missing."""
    p = _Pass(spans)
    out = {}
    for m in METRICS:
        gone = [missing[n] for n in m.needs if n in missing]
        if gone:
            out[m.name] = {"value": None, "unit": m.unit, "missing": "; ".join(gone)}
        else:
            out[m.name] = {"value": m.value(p), "unit": m.unit}
    return out
