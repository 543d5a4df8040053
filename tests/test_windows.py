"""Property tests: the batched window kernel and the MSH window scan
against plain per-window loops."""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sechyp.hyperbolicity import msh_windows
from sechyp.util import window_products

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def reference_products(factors, starts, stops):
    """One window at a time, one factor at a time."""
    d = factors.shape[-1]
    mats, logs = [], []
    for i, j in zip(starts, stops):
        m, log_scale = np.eye(d), 0.0
        for k in range(i, j):
            m = factors[k] @ m
            peak = np.max(np.abs(m))
            if peak > 2.0 ** 500 or 0.0 < peak < 2.0 ** -500:
                e = np.frexp(peak)[1]
                m = np.ldexp(m, -e)
                log_scale += e * np.log(2.0)
        mats.append(m)
        logs.append(log_scale)
    return np.reshape(mats, (-1, d, d)), np.asarray(logs, dtype=float)


@st.composite
def factor_windows(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 12))
    mant = draw(hnp.arrays(np.float64, (k, d, d),
                           elements=st.floats(-1.0, 1.0)))
    exps = draw(hnp.arrays(np.int64, (k, 1, 1),
                           elements=st.integers(-600, 600)))
    # stop <= start gives an empty window
    windows = draw(st.lists(st.tuples(st.integers(0, k), st.integers(-1, k)),
                            max_size=8))
    starts = [w[0] for w in windows]
    stops = [w[1] for w in windows]
    return np.ldexp(mant, exps), starts, stops


@PROPERTY
@given(factor_windows())
def test_window_products_match_per_window_loop(case):
    factors, starts, stops = case
    mats, log_scales = window_products(factors, starts, stops)
    ref_mats, ref_scales = reference_products(factors, starts, stops)
    npt.assert_array_equal(mats, ref_mats)
    npt.assert_array_equal(log_scales, ref_scales)


def reference_msh_windows(t, dist, grid, radius, avoid, n_starts=6):
    """Clear-window scan by a minimum over each window's samples."""
    tg = t[grid]
    qual = []
    for k in range(len(grid)):
        t_end = tg[k] + avoid
        if t_end > t[-1] + 1e-9:
            break
        last = int(np.searchsorted(t, t_end, side="right")) - 1
        if np.min(dist[grid[k]:last + 1]) > radius:
            qual.append(k)
    pairs = []
    if len(qual) >= 2:
        picks = np.linspace(0, len(qual) - 1, min(n_starts, len(qual)))
        for k0 in [qual[i] for i in picks.astype(int)]:
            for span in np.linspace(avoid / 10.0, avoid, 5):
                k1 = int(np.searchsorted(tg, tg[k0] + span, side="right")) - 1
                if k1 > k0:
                    pairs.append((k0, k1))
    return len(qual), pairs


@st.composite
def sampled_distances(draw):
    n = draw(st.integers(1, 60))
    steps = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(0.0, 2.0)))
    t = np.concatenate([[0.0], np.cumsum(steps)])
    dist = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)
                           | st.just(np.nan)))
    grid = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    radius = draw(st.floats(0.0, 1.0))
    avoid = draw(st.floats(0.0, 10.0))
    return t, dist, np.sort(np.asarray(grid)), radius, avoid


@PROPERTY
@given(sampled_distances())
def test_msh_windows_match_brute_force_minimum(case):
    t, dist, grid, radius, avoid = case
    n_qual, k0, k1 = msh_windows(t, dist, grid, radius, avoid)
    ref_qual, ref_pairs = reference_msh_windows(t, dist, grid, radius, avoid)
    assert n_qual == ref_qual
    assert list(zip(k0.tolist(), k1.tolist())) == ref_pairs
