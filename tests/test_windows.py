"""Property tests: the batched window kernel and the MSH window scan
against plain per-window loops, the members' windows formed in one
call against one call per member, and the log singular value kernel
against the compound and determinant forms."""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sechyp.flowcalc import wedge2_of
from sechyp.hyperbolicity import msh_windows
from sechyp.util import log_svals, member_products, qr_pos, window_products

PROPERTY = settings(max_examples=200)


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


@st.composite
def member_factor_windows(draw):
    """Per member its factors and windows (empty and repeated ones drawn
    too)."""
    d = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    mant = draw(hnp.arrays(np.float64, (sum(lengths), d, d),
                           elements=st.floats(-1.0, 1.0)))
    exps = draw(hnp.arrays(np.int64, (len(mant), 1, 1),
                           elements=st.integers(-600, 600)))
    parts = np.split(np.ldexp(mant, exps), np.cumsum(lengths)[:-1])
    windows = []
    for p in parts:
        pairs = draw(st.lists(st.tuples(st.integers(0, len(p)), st.integers(-1, len(p))),
                              max_size=6))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
        windows.append((np.array([i for i, _ in pairs], dtype=np.intp),
                        np.array([j for _, j in pairs], dtype=np.intp)))
    return parts, windows


@PROPERTY
@given(member_factor_windows())
def test_member_products_match_one_call_per_member(case):
    parts, windows = case
    mats, log_scales = member_products(parts, windows)
    ends = np.cumsum([len(i) for i, _ in windows])[:-1]
    for p, (i, j), m, ls in zip(parts, windows, np.split(mats, ends),
                                np.split(log_scales, ends)):
        ref_mats, ref_scales = window_products(p, i, j)
        npt.assert_array_equal(m, ref_mats)
        npt.assert_array_equal(ls, ref_scales)


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


@st.composite
def conditioned_matrices(draw):
    """A d x d matrix, d = 2..4, U diag(s) V^T with seeded Haar U and V,
    condition number s_1 / s_d up to 1e8 and the other singular values
    spread between, all times a drawn scale."""
    d = draw(st.integers(2, 4))
    log_cond = draw(st.floats(0.0, 8.0 * np.log(10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inner = np.sort(rng.uniform(0.0, log_cond, d - 2))[::-1]
    log_s = np.concatenate([[log_cond], inner, [0.0]]) + draw(st.floats(-20.0, 20.0))
    u, _ = qr_pos(rng.standard_normal((d, d)))
    v, _ = qr_pos(rng.standard_normal((d, d)))
    return (u * np.exp(log_s)) @ v.T


@PROPERTY
@given(conditioned_matrices())
def test_log_svals_sums_match_compound_and_determinant(m):
    # rounding in the entries of m can move log |det| by about eps times
    # the condition number, and log s_min of the second compound by eps
    # times s_1^2 / (s_{d-1} s_d); the kernel's sums agree with both
    # forms to 1e-13 relative of that (observed: under 14 eps of it)
    lsv = log_svals(m[None])[0]
    assert np.all(np.diff(lsv) <= 0)
    bottom_two = np.log(np.linalg.svd(wedge2_of(m), compute_uv=False)[-1])
    sensitivity = np.exp(2 * lsv[0] - lsv[-1] - lsv[-2])
    assert (abs(lsv[-1] + lsv[-2] - bottom_two)
            <= 1e-13 * sensitivity * max(1.0, abs(bottom_two)))
    logdet = np.linalg.slogdet(m)[1]
    assert (abs(lsv.sum() - logdet)
            <= 1e-13 * np.exp(lsv[0] - lsv[-1]) * max(1.0, abs(logdet)))


@PROPERTY
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(500, 1000),
       st.sampled_from([-1.0, 1.0]))
def test_log_svals_smallest_from_determinant_beyond_1e250(ea, ec, eb, sign):
    # [[2^ea, +-2^eb], [0, 2^ec]]: condition number above 2^900, s_1 is
    # 2^eb to within 2^-1000 relative, and the determinant 2^(ea+ec) is
    # exact, so s_2 = 2^(ea+ec-eb)
    m = np.array([[2.0 ** ea, sign * 2.0 ** eb], [0.0, 2.0 ** ec]])
    lsv = log_svals(m[None])[0]
    npt.assert_allclose(lsv, np.array([eb, ea + ec - eb]) * np.log(2.0), rtol=1e-13)
