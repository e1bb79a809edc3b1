"""Peak working memory of the hull cover, the Kronecker solver and the sublevel scan.

The peak is tracemalloc's, which sees every numpy buffer, plus the length of
every anonymous mapping made with mmap.mmap meanwhile, which tracemalloc does
not see. The grid greedy holds its flags for a band of lines and the last
planes, not the grid, kronecker_solve evaluates blocks of _BLOCK points, and
sublevel_scan builds zero blocks for pieces of at most _PERIODS zeros per term,
so every peak stays far below the size of the grid it walks.
"""
import math
import mmap
import tracemalloc

from qplab import diophantine
from qplab.almost_periods import sublevel_scan
from qplab.dimension import TorusGridSample, covering_number
from qplab.diophantine import kronecker_solve
from qplab.signal import lipschitz_constant


def peak_bytes(monkeypatch, call):
    mapped = []
    real_mmap = mmap.mmap

    def recording_mmap(*args, **kwargs):
        mapping = real_mmap(*args, **kwargs)
        mapped.append(len(mapping))
        return mapping

    monkeypatch.setattr(mmap, "mmap", recording_mmap)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak + sum(mapped)


def test_golden_hull_cover_peak_is_an_eighth_of_its_cells(monkeypatch, golden):
    grid = TorusGridSample.hull_grid(golden, 2**-6)
    assert grid.size > 10_000_000
    assert peak_bytes(monkeypatch, lambda: covering_number(grid, 2**-6)) < grid.size / 8


def test_early_kronecker_hit_peak_is_below_2_mib(monkeypatch, sqrt23):
    lams = [float(l) for l in sqrt23.exponents_float]
    eps, tmax = 0.1, 100000.0
    step = eps / (2.0 * max(lams))
    # phases aligned near grid index 10000, on a grid of about 2.2e7 points
    kaps = [math.fmod(l * 10000.5 * step, 2.0 * math.pi) for l in lams]
    found = []
    peak = peak_bytes(monkeypatch, lambda: found.append(kronecker_solve(lams, kaps, eps, tmax)))
    assert found[0] is not None and found[0] / step < diophantine._BLOCK
    assert peak < 2 * 2**20


def test_scan_of_a_grid_over_1e10_points_peak_is_below_2_mib(monkeypatch, sqrt23):
    # sqrt23 at eps = 0.8 * 2**-7 on a window of 655,360: 1.1e10 grid points and
    # 1.1e6 zeros of the densest term, whose blocks alone would take 17 MiB at once
    eps, window = 0.8 * 2.0**-7, (0.0, 655360.0)
    step = eps / (4.0 * lipschitz_constant(sqrt23))
    assert window[1] / step > 1e10
    scans = []
    peak = peak_bytes(monkeypatch, lambda: scans.append(sublevel_scan(sqrt23, eps, window, step, 2**40)))
    assert scans[0].outer
    assert peak < 2 * 2**20
