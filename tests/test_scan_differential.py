"""Differential gate: sublevel_scan against a dense reference scan.

sublevel_scan evaluates D only where every term is near one of its zeros, in
pieces of the grid sized by its zero blocks. The reference below evaluates D at
every grid point of the window, in chunks, builds the runs with a chunk-stitching
run collector and turns them into intervals with its own loop. Both must return
equal IntervalSets, bit for bit.
"""
import math

import numpy as np
import pytest

import qplab.almost_periods as ap
from qplab.almost_periods import IntervalSet, sublevel_scan
from qplab.signal import QuasiperiodicSignal, lipschitz_constant, preset, translation_distance_many
from qplab.verify import GOLDEN_EPS_LADDER, SQRT23_EPS_LADDER

CHUNK = 2**21


def _collect_runs(mask, offset, open_start, runs):
    """Append finished True-runs of a chunked mask; return the still-open start."""
    if mask.size == 0:
        return open_start
    state = open_start >= 0
    start = open_start
    ext = np.empty(mask.size + 1, dtype=bool)
    ext[0] = state
    ext[1:] = mask
    for i in np.flatnonzero(ext[1:] != ext[:-1]):
        gi = offset + int(i)
        if state:
            runs.append((start, gi - 1))
            state = False
        else:
            start = gi
            state = True
    return start if state else -1


def runs_to_intervals(runs, lo, hi, h, halfwidth):
    """Index runs -> clipped merged intervals, one run at a time."""
    intervals = []
    for i0, i1 in runs:
        a = max(lo, lo + i0 * h - halfwidth)
        b = min(hi, lo + i1 * h + halfwidth)
        if intervals and a <= intervals[-1][1] + 1e-12 * max(1.0, abs(hi)):
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], b))
        else:
            intervals.append((a, b))
    return tuple(intervals)


def dense_sublevel_scan(f, eps, window, step):
    """Reference scan: D at every grid point, same grid and cuts as sublevel_scan."""
    lo, hi = window
    C = lipschitz_constant(f)
    m = int(math.ceil((hi - lo) / step))
    h = (hi - lo) / m
    inner_cut = eps - C * h
    outer_cut = eps + C * h

    inner_runs = []
    outer_runs = []
    open_inner = -1
    open_outer = -1
    for start in range(0, m + 1, CHUNK):
        stop = min(start + CHUNK, m + 1)
        idx = np.arange(start, stop, dtype=np.float64)
        d = translation_distance_many(f, lo + idx * h)
        open_inner = _collect_runs(d < inner_cut, start, open_inner, inner_runs)
        open_outer = _collect_runs(d < outer_cut, start, open_outer, outer_runs)
    if open_inner >= 0:
        inner_runs.append((open_inner, m))
    if open_outer >= 0:
        outer_runs.append((open_outer, m))

    inner = runs_to_intervals(inner_runs, lo, hi, h, halfwidth=h)
    outer = runs_to_intervals(outer_runs, lo, hi, h, halfwidth=0.5 * h)
    return IntervalSet(window=(lo, hi), inner=inner, outer=outer, step=h, eps=eps)


def assert_matches_dense(f, eps, window):
    step = eps / (4.0 * lipschitz_constant(f))
    fast = sublevel_scan(f, eps, window, step)
    assert fast == dense_sublevel_scan(f, eps, window, step)
    return fast


def draw_signal(rng, n):
    """n terms, unequal amplitude moduli, exponents of both signs."""
    moduli = rng.uniform(0.2, 1.5, n)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    lams = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 8.0, n)
    terms = [(complex(r * math.cos(p), r * math.sin(p)), float(l)) for r, p, l in zip(moduli, phases, lams)]
    return QuasiperiodicSignal(terms)


def random_signal(seed):
    """n = 1-4 terms."""
    rng = np.random.default_rng(seed)
    return draw_signal(rng, int(rng.integers(1, 5))), rng


LADDER_CASES = [("golden", e) for e in GOLDEN_EPS_LADDER] + [("sqrt23", e) for e in SQRT23_EPS_LADDER]


@pytest.mark.parametrize("name,eps", LADDER_CASES)
def test_ladder_windows_match_dense(name, eps):
    # the first two windows length_curve scans at this eps
    f = preset(name)
    for width in (4.0 / eps, 8.0 / eps):
        assert_matches_dense(f, eps, (0.0, width))


@pytest.mark.parametrize(
    "name,eps,window",
    [
        ("golden", 0.1, (-60.0, 60.0)),
        ("golden", 0.05, (-200.0, -150.0)),
        ("golden", 0.1, (-100030.0, -100000.0)),
        ("golden", 0.1, (100000.0, 100030.0)),
        ("sqrt23", 0.2, (-0.3, 0.2)),
        ("sqrt23", 0.1, (-250.0, 40.0)),
    ],
)
def test_negative_and_straddling_windows_match_dense(name, eps, window):
    assert_matches_dense(preset(name), eps, window)


def test_runs_split_across_gathers_match_dense(monkeypatch):
    # far from 0 on a window ending near 0, tau rounds by more than the
    # interval-merge tolerance (scaled by |hi|), so a run cut at a gather
    # boundary must be rejoined as indices, not as intervals
    monkeypatch.setattr(ap, "_CHUNK", 97)
    f = QuasiperiodicSignal([(1.0, 0.05), (0.3, 0.05 * 2.0**0.5)])
    assert_matches_dense(f, 0.1, (-99999.7, 0.3))


@pytest.mark.parametrize("seed", range(32))
def test_random_signals_match_dense(seed):
    f, rng = random_signal(seed)
    top = 2.0 * float(np.max(f.amplitude_moduli))
    # even seeds cut below the dominant term's peak 2 max|A_j|, odd seeds above it
    frac = rng.uniform(0.05, 0.95) if seed % 2 == 0 else rng.uniform(1.0, 2.0)
    lo = float(rng.uniform(-200.0, 100.0))
    assert_matches_dense(f, frac * top, (lo, lo + float(rng.uniform(5.0, 150.0))))


@pytest.mark.parametrize("frac", [0.999, 1.0, 1.5])
def test_eps_near_and_above_dominant_peak_matches_dense(frac):
    # near and above 2 max|A_j| the dominant term excludes nothing, so the
    # window is scanned as one block
    f = QuasiperiodicSignal([(1.0, 1.0), (0.5, -2.0 ** 0.5)])
    scan = assert_matches_dense(f, frac * 2.0, (-20.0, 30.0))
    assert scan.outer


def every_term_signal(seed):
    """n = 2-4 terms, and a cut below 2 min|A_j| at which every term filters."""
    rng = np.random.default_rng(10_000 + seed)
    f = draw_signal(rng, 2 + seed % 3)
    eps = float(rng.uniform(0.05, 0.8)) * 2.0 * float(np.min(f.amplitude_moduli))
    return f, eps, rng


def filter_periods(monkeypatch):
    """Record the period of every term family whose zero blocks the scan builds."""
    periods = set()
    blocks = ap._zero_blocks

    def recording(first, last, lo, h, period, reach):
        periods.add(period)
        return blocks(first, last, lo, h, period, reach)

    monkeypatch.setattr(ap, "_zero_blocks", recording)
    return periods


@pytest.mark.parametrize("seed", range(24))
def test_every_term_filtering_matches_dense(seed, monkeypatch):
    f, eps, rng = every_term_signal(seed)
    periods = filter_periods(monkeypatch)
    # even seeds start near 0, odd seeds out to |lo| = 2e5, where tau rounds more coarsely
    lo = float(rng.uniform(-100.0, 50.0) if seed % 2 == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2e5))
    assert_matches_dense(f, eps, (lo, lo + float(rng.uniform(5.0, 150.0))))
    assert len(periods) == f.n


def test_every_term_families_across_small_chunks_match_dense(monkeypatch):
    # several term families, each cut into blocks at every boundary of pieces
    # holding about 97 points near each term's zeros
    monkeypatch.setattr(ap, "_CHUNK", 97)
    periods = filter_periods(monkeypatch)
    f = QuasiperiodicSignal([(1.0, 1.0), (0.8j, -(2.0**0.5)), (0.6, 3.0**0.5), (0.5 - 0.2j, 0.3)])
    for window in ((-30.0, 45.0), (-200_030.0, -199_990.0), (199_990.0, 200_030.0)):
        assert_matches_dense(f, 0.5, window)
    assert len(periods) == f.n


@pytest.mark.parametrize(
    "lam,k,side,eps",
    [
        (5.25, 3 * 10**8, -1.0, 0.5),
        (6.25, -(10**8), 1.0, 1.5),
        (1.5, 9 * 10**8, 1.0, 1.0),
        (8.0, -8 * 10**8, -1.0, 0.75),
    ],
)
def test_member_at_a_block_edge_far_from_zero_matches_dense(lam, k, side, eps):
    # one term, so no other term can exclude a grid point: at the edge of the
    # zero block of 2*pi*k/lam, a point whose computed D is just below the outer
    # cut must lie in the block. Far from 0, tau, the zero and the phase each
    # round by up to about 1e-7. The step is ulp(tau), the finest one the scan
    # accepts there, and the window spans 80 steps
    f = QuasiperiodicSignal([(1.0, lam)])
    step = math.ulp(2.0 * math.pi * k / lam)
    edge = 2.0 * math.pi * k / lam + side * (2.0 / lam) * math.asin((eps + lam * step) / 2.0)
    window = (edge - 40 * step, edge + 40 * step)
    scan = sublevel_scan(f, eps, window, step)
    assert scan == dense_sublevel_scan(f, eps, window, step)
    # the window holds the block's edge, and the members next to it have D just below the cut
    lo, hi = window
    h = scan.step
    d = translation_distance_many(f, lo + np.arange(round((hi - lo) / h) + 1, dtype=np.float64) * h)
    outer_cut = eps + lam * h
    assert d.min() < outer_cut <= d.max()
    assert outer_cut - d[d < outer_cut].max() < 1e-6


@pytest.mark.parametrize(
    "lam,eps,window,step",
    [
        (2.6920042003279314, 1.3217079070587636, (-119535131.82196276, -119535131.8219624), 1.6446695756869947e-08),
        (2.9608301073252585, 1.2437962526099664, (504205.6678851646, 504205.667885166), 6.389146021536871e-11),
        (1.5665379275070104, 1.4158617700720053, (65549652.87713783, 65549652.87713801), 8.259442285825352e-09),
        (3.066383413646589, 0.13732750920207862, (123713.7312488883, 123713.73124888865), 1.635528228194622e-11),
        (5.779559350061315, 1.564390812076847, (-63079.38639616525, -63079.38639616508), 8.053211708134357e-12),
    ],
)
def test_member_past_the_two_step_pad_matches_dense(lam, eps, window, step):
    # a step a little above ulp(tau): the rounding of tau, of k*period and of the
    # phase then adds up to more than the 2h pad, and a member lies past the zero
    # block padded by 2h alone; the reach's allowance for rounding in tau covers it
    f = QuasiperiodicSignal([(1.0, lam)])
    scan = sublevel_scan(f, eps, window, step)
    assert scan == dense_sublevel_scan(f, eps, window, step)
    lo, hi = window
    h = scan.step
    idx = np.arange(round((hi - lo) / h) + 1)
    members = idx[translation_distance_many(f, lo + idx * h) < eps + lam * h]
    period = 2.0 * math.pi / lam
    z = round(0.5 * (lo + hi) / period) * period
    reach = (2.0 / lam) * math.asin((eps + lam * h) * (1.0 + 1e-12) / 2.0) + 2.0 * h
    assert members.min() < math.ceil((z - reach - lo) / h) or members.max() > math.floor((z + reach - lo) / h)


def record_pieces(monkeypatch):
    """Record (first, last) of every piece the scan hands to _near_zeros."""
    pieces = []
    near_zeros = ap._near_zeros

    def recording(first, last, lo, h, filters):
        pieces.append((first, last))
        return near_zeros(first, last, lo, h, filters)

    monkeypatch.setattr(ap, "_near_zeros", recording)
    return pieces


@pytest.mark.parametrize("periods", [1, 2, 3])
@pytest.mark.parametrize("k0", [0, -16_000, 15_000])
def test_runs_across_pieces_of_few_periods_match_dense(periods, k0, monkeypatch):
    # pieces of `periods` periods, each over 2**21 points, start at a zero 2*pi*k0, so
    # every piece boundary falls on a zero and the run of members around it
    monkeypatch.setattr(ap, "_PERIODS", periods)
    pieces = record_pieces(monkeypatch)
    f = QuasiperiodicSignal([(1.0, 1.0)])
    lo = 2.0 * math.pi * k0
    eps = 1.1e-5
    scan = assert_matches_dense(f, eps, (lo, lo + 2.0 * math.pi * (2 * periods + 0.5)))
    assert len(pieces) == 3 and pieces[0][1] - pieces[0][0] + 1 > ap._CHUNK
    h = scan.step
    for first, _ in pieces[1:]:
        assert any(a <= lo + (first - 1) * h and b >= lo + first * h for a, b in scan.outer)


@pytest.mark.parametrize("seed", range(24))
def test_blocks_across_small_pieces_match_dense(seed, monkeypatch):
    # pieces of 1-3 periods of the densest term and at least 97 points; a window
    # from 0, a common zero, puts the first boundary on that term's zero block
    monkeypatch.setattr(ap, "_CHUNK", 97)
    monkeypatch.setattr(ap, "_PERIODS", 1 + seed % 3)
    pieces = record_pieces(monkeypatch)
    blocks = []
    zero_blocks = ap._zero_blocks

    def recording(first, last, lo, h, period, reach):
        s, e = zero_blocks(first, last, lo, h, period, reach)
        blocks.append((first, last, period, s.tolist(), e.tolist()))
        return s, e

    monkeypatch.setattr(ap, "_zero_blocks", recording)
    f, eps, rng = every_term_signal(seed)
    lo = [0.0, float(rng.uniform(-100.0, 50.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(1e5, 2e5))][seed % 3]
    assert_matches_dense(f, eps, (lo, lo + float(rng.uniform(20.0, 150.0))))
    assert len(pieces) > 1
    if lo == 0.0:
        # some term's block ends one piece and opens the next
        ends = {(p, e[-1]) for first, last, p, s, e in blocks if e and e[-1] == last}
        assert any((p, first - 1) in ends for first, _, p, s, _ in blocks if s and s[0] == first)


@pytest.mark.parametrize(
    "terms,eps,window,step",
    [
        ([(1.0, 1.0)], 0.02, (-0.019, 0.019), 1e-5),
        ([(1.0, 1.0)], 0.02, (-0.05, 3.0), 1e-5),
        ([(1.0, 1.0)], 0.02, (6.2, 6.4), 1e-5),
        ([(1.0, 1.0), (1.0, 10.0)], 0.5, (-1.0, 7.0), 0.0012),
    ],
)
def test_blocks_longer_than_a_chunk_keep_pieces_small(terms, eps, window, step, monkeypatch):
    # a step far below eps/(4C) makes the first term's zero block span more than
    # _CHUNK points, so a piece shorter than its period could lie inside one block;
    # such a term may not enlarge the pieces (the second term's blocks fit in 97)
    monkeypatch.setattr(ap, "_CHUNK", 97)
    sizes = []
    near_zeros = ap._near_zeros

    def recording(first, last, lo, h, filters):
        idx = near_zeros(first, last, lo, h, filters)
        sizes.append(idx.size)
        return idx

    monkeypatch.setattr(ap, "_near_zeros", recording)
    f = QuasiperiodicSignal(terms)
    assert 2.0 * math.asin(eps / 2.0) > ap._CHUNK * step
    assert sublevel_scan(f, eps, window, step) == dense_sublevel_scan(f, eps, window, step)
    assert sum(sizes) > ap._CHUNK and max(sizes) <= 3.25 * ap._CHUNK + 2
