import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sechyp.errors import SingularPoint
from sechyp.models import load_model
from sechyp.splitting import estimate_splitting
from sechyp.suspension import (ROOF_CLIP, SectionStreams, ash_running_max,
                               crossing_matrix, mnuse_rate_stream,
                               nuse_rate_stream, run_section_streams,
                               sectional_rate_stream, suspension_orbit,
                               window_log_det_cu)


@pytest.fixture(scope="module")
def seeds():
    rng = np.random.default_rng(5)
    return np.column_stack([rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64)])


@pytest.fixture(scope="module")
def streams(intermittent_suspension, seeds):
    return run_section_streams(intermittent_suspension, seeds, 4000)


def section_orbit(model, seed, n, tilt_warmup=12):
    """(x, y, h) at crossings 0..n of the stream from `seed`: the scalar
    section map and the slope recursion h' = (g_x + g_y h) / f' from
    h = 0, started `tilt_warmup` returns before crossing 0."""
    skew = model.section_map
    (x, y), h = seed, 0.0
    out = []
    for _ in range(tilt_warmup + n + 1):
        out.append((x, y, h))
        h = (skew.fiber_dx(x, y) + skew.fiber_dy(x, y) * h) / skew.base.derivative(x)
        x, y = skew.eval(x, y)
    return np.array(out[tilt_warmup:]).T


class TestCrossingFactors:
    def test_flow_direction_invariant(self, intermittent_suspension):
        m = crossing_matrix(intermittent_suspension, 0.4, 0.2)
        npt.assert_allclose(m @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])

    def test_fiber_direction_contraction(self, intermittent_suspension):
        m = crossing_matrix(intermittent_suspension, 0.4, 0.2)
        img = m @ np.array([0.0, 1.0, 0.0])
        assert img[0] == 0.0 and img[2] == 0.0
        assert abs(img[1]) <= 0.25

    def test_orbit_times_accumulate_roof(self, intermittent_suspension):
        orb = suspension_orbit(intermittent_suspension, [0.37, 0.1], 50)
        roofs = np.diff(orb.times)
        x = 0.37
        skew = intermittent_suspension.section_map
        y = 0.1
        for k in range(50):
            assert abs(roofs[k] - intermittent_suspension.roof(x)) < 1e-12
            x, y = skew.eval(x, y)

    def test_seed_on_singular_line_rejected(self, intermittent_suspension):
        with pytest.raises(SingularPoint):
            suspension_orbit(intermittent_suspension, [0.0, 0.2], 5)


class TestStreams:
    def test_matches_matrix_route(self, intermittent_suspension):
        # the vectorized scalar streams and the generic matrix cocycle
        # must agree on the restricted center-unstable determinant
        seed = [0.371, -0.24]
        st = run_section_streams(intermittent_suspension, [seed], 400,
                                 tilt_warmup=30)
        x, y, _ = section_orbit(intermittent_suspension, seed, 0, tilt_warmup=30)
        assert x[0] == st.x[0, 0]
        orb = suspension_orbit(intermittent_suspension, [x[0], y[0]], 430)
        seq = estimate_splitting(orb, d_s=1, warmup=25.0, stride=1)
        # compare window log-dets on the overlapping range
        t0 = seq.times[0] - orb.times[0]
        for span in (20.0, 60.0):
            got = window_log_det_cu(st, 0, t0, t0 + span)
            j = int(np.searchsorted(seq.times, seq.times[0] + span,
                                    side="right")) - 1
            from sechyp.util import scaled_product
            m, ls = scaled_product(seq.Rcu, 0, j)
            want = np.linalg.slogdet(m)[1] + 2 * ls
            # windows are quantized to crossing times on both routes
            assert abs(got - want) < 1e-6 * max(1.0, abs(want)) + 1e-9

    def test_stable_factor_is_fiber_derivative(self, streams, seeds,
                                               intermittent_suspension):
        skew = intermittent_suspension.section_map
        b = 3
        x, y, _ = section_orbit(intermittent_suspension, seeds[b], 200)
        log_gy = streams.log_gy[:, b]
        for k in range(0, 200, 17):
            assert x[k] == streams.x[k, b]
            gy = skew.fiber_dy(x[k], y[k])
            assert abs(log_gy[k] - np.log(abs(gy))) < 1e-12

    def test_tilt_recursion_fixed_point(self, intermittent_suspension):
        # over the boundary fixed orbit the tilt settles to
        # h = g_x / (f' - g_y) with f' = 1
        seed = [1.0, 2.0 / 3.0]
        _, _, h = section_orbit(intermittent_suspension, seed, 50, tilt_warmup=40)
        skew = intermittent_suspension.section_map
        gx = skew.fiber_dx(*seed)
        gy = skew.fiber_dy(*seed)
        h_star = gx / (1.0 - gy)
        npt.assert_allclose(h, h_star, rtol=1e-10)
        # a fixed slope over f' = 1 leaves the plane's area unchanged
        st = run_section_streams(intermittent_suspension, [seed], 50,
                                 tilt_warmup=40)
        npt.assert_allclose(st.log_a, 0.0, atol=1e-10)

    def test_ecu_graph_invariance(self, streams, seeds, intermittent_suspension):
        # span{(1, h, 0), e_s} with the slope h of the recursion must be
        # exactly invariant under the crossing factors along the orbit,
        # with the streamed log_a as the log of its area factor
        b = 7
        x, y, h = section_orbit(intermittent_suspension, seeds[b], 300)

        def ecu(k):
            c = 1.0 / np.sqrt(1.0 + h[k] * h[k])
            return np.array([[c, 0.0], [h[k] * c, 0.0], [0.0, 1.0]])

        for k in range(0, 300, 23):
            m = crossing_matrix(intermittent_suspension, x[k], y[k])
            basis, nxt = ecu(k), ecu(k + 1)
            img = m @ basis
            leak = img - nxt @ (nxt.T @ img)
            assert np.linalg.norm(leak) / np.linalg.norm(img) < 1e-12
            area = np.linalg.slogdet(nxt.T @ img)[1]
            assert abs(area - streams.log_a[k, b]) < 1e-12 * max(1.0, abs(area))


class TestStreamFunctionals:
    @pytest.mark.parametrize("sums", ["cum_a", "cum_gy"])
    def test_prefix_sums_equal_each_seeds_cumsum(self, streams, seeds,
                                                 intermittent_suspension, sums):
        # cum_a sums the streamed log_a; cum_gy sums log |g_y|, recomputed
        # here from the fiber map along each seed's scalar orbit
        n = streams.n_returns
        skew = intermittent_suspension.section_map
        for b in range(streams.n_seeds):
            got = getattr(streams.seed(b), sums)
            assert got.shape == (n + 1,)
            if sums == "cum_a":
                terms = streams.log_a[:, b]
            else:
                x, y, _ = section_orbit(intermittent_suspension, seeds[b], n - 1)
                terms = np.log(np.abs(skew.fiber_dy(x, y)))
            want = np.concatenate([[0.0], np.cumsum(terms)])
            assert got.tobytes() == want.tobytes()

    def test_short_orbit_rate_is_its_whole_time(self):
        # 20 crossings one time unit apart (the constant roof 1), log-det
        # 0.5 each; a window of 50 is one window, the whole orbit, at the
        # orbit's own rate
        n = 20
        streams = SectionStreams(
            model=load_model("geometric_lorenz", {"roof_log_coeff": 0.0}),
            x=np.full((n + 1, 1), 0.5), log_a=np.full((n, 1), 0.5),
            log_gy=np.full((n, 1), -1.0), clipped=0)
        assert sectional_rate_stream(streams, 0, 50.0) == (0.5, 0.5, 0.5)
        assert sectional_rate_stream(streams, 0, 20.0) == (0.5, 0.5, 0.5)
        assert sectional_rate_stream(streams, 0, 5.0) == (0.5, 0.5, 0.5)

    def test_lebesgue_rates(self, streams):
        # base exponent 1/2 over mean roof 2: center-unstable rate 1/4
        rates = [sectional_rate_stream(streams, b, 200.0)[0]
                 for b in range(streams.n_seeds)]
        assert abs(np.median(rates) - 0.25) < 0.05

    def test_mnuse_equals_minus_det_rate(self, streams):
        # d_cu = 2: the inverse-compound norm is the reciprocal
        # determinant, so the two rates are exact negatives
        for b in (0, 5, 11):
            mn = mnuse_rate_stream(streams, b, 1.0)
            total = streams.seed(b).times[-1]
            det_rate = window_log_det_cu(streams, b, 0.0, total) / total
            assert abs(mn + det_rate) < 5e-3  # tau-window edge effects
            assert mn < -0.05

    def test_nuse_rates(self, streams):
        # seeds caught mid-sojourn near the neutral points report
        # weaker finite-time rates, so the ensemble median carries the
        # Lebesgue-typical value
        rates = [nuse_rate_stream(streams, b, 1.0)
                 for b in range(streams.n_seeds)]
        assert np.median(rates) < -0.2
        assert max(rates) < -0.02

    def test_tau_scaling_consistency(self, streams):
        # per-unit-time normalization: doubling tau leaves the stream
        # rate nearly unchanged on long orbits
        a = nuse_rate_stream(streams, 4, 0.5)
        b = nuse_rate_stream(streams, 4, 1.0)
        c = nuse_rate_stream(streams, 4, 2.0)
        assert abs(a - b) < 2e-2 and abs(b - c) < 2e-2

    def test_neutral_probe_rates_vanish(self, intermittent_suspension):
        st = run_section_streams(intermittent_suspension,
                                 [[1.0, 2.0 / 3.0], [-1.0, -2.0 / 3.0]], 2000)
        for b in (0, 1):
            mean_r, min_r, max_r = sectional_rate_stream(st, b, 100.0)
            assert abs(mean_r) < 1e-3 and abs(min_r) < 1e-3 and abs(max_r) < 1e-3
            assert abs(mnuse_rate_stream(st, b, 1.0)) < 1e-3

    def test_near_neutral_seed_degrades(self, intermittent_suspension):
        # seeds started close to the neutral fiber keep window rates
        # near zero for the whole sojourn
        st = run_section_streams(intermittent_suspension,
                                 [[1.0 - 1e-9, 0.0]], 1000, tilt_warmup=0)
        mean_r, min_r, _ = sectional_rate_stream(st, 0, 50.0)
        assert min_r < 1e-3

    def test_ash_running_max_positive_generic(self, streams):
        vals = [ash_running_max(streams, b) for b in range(streams.n_seeds)]
        frac = np.mean([v >= 1e-3 for v in vals])
        assert frac >= 0.9
        assert abs(np.median(vals) - 0.25) < 0.08


def row_accumulation(streams):
    """times, cum_a and cum_gy, (n+1, B) each, accumulated crossing row by
    crossing row from the stored streams: the roof of the clipped |x| of
    a row added to the row before, likewise log |g_y|, and log_a summed
    down each column of the batch."""
    n, b = streams.n_returns, streams.n_seeds
    times, cum_a, cum_gy = (np.zeros((n + 1, b)) for _ in range(3))
    np.cumsum(streams.log_a, axis=0, out=cum_a[1:])
    for k in range(n):
        xa = np.abs(streams.x[k])
        if np.any(xa < ROOF_CLIP):
            xa = np.maximum(xa, ROOF_CLIP)
        times[k + 1] = times[k] + streams.model.roof(xa)
        cum_gy[k + 1] = cum_gy[k] + streams.log_gy[k]
    return times, cum_a, cum_gy


def test_seed_clipped_at_the_singular_line_counts_each_clipped_crossing():
    # the two seeds within ROOF_CLIP of x = 0 clip at crossing 0 only:
    # the base map sends them next to -1 and 1, where they stay
    streams = run_section_streams(load_model("geometric_lorenz"),
                                  [[1e-13, 0.2], [-3e-13, -0.4], [0.4, 0.1]],
                                  30, tilt_warmup=0)
    assert streams.clipped == 2


@given(rng_seed=st.integers(0, 2 ** 32 - 1), n_seeds=st.integers(1, 5),
       n_returns=st.integers(1, 150), log_roof=st.booleans(),
       clip=st.booleans(), tilt_warmup=st.sampled_from([0, 12]))
def test_seed_forms_equal_row_accumulation_and_a_lone_run(
        rng_seed, n_seeds, n_returns, log_roof, clip, tilt_warmup):
    # each seed's crossing times and prefix sums equal, bit for bit, the
    # batch's row-by-row accumulation and the same seed run on its own;
    # a seed within ROOF_CLIP of the singular line, at tilt_warmup 0,
    # makes crossing 0 clip, and a constant roof is a scalar
    model = load_model("geometric_lorenz",
                       None if log_roof else {"roof_log_coeff": 0.0})
    seeds = np.random.default_rng(rng_seed).uniform(-1.0, 1.0, (n_seeds, 2))
    if clip:
        seeds = np.vstack([seeds, [[-1e-13, 0.3]]])
        tilt_warmup = 0
    streams = run_section_streams(model, seeds, n_returns, tilt_warmup=tilt_warmup)
    assert streams.clipped >= clip
    want = dict(zip(("times", "cum_a", "cum_gy"), row_accumulation(streams)))
    for b in range(len(seeds)):
        alone = run_section_streams(model, seeds[b:b + 1], n_returns,
                                    tilt_warmup=tilt_warmup).seed(0)
        got = streams.seed(b)
        for name, rows in want.items():
            assert getattr(got, name).tobytes() == rows[:, b].tobytes()
            assert getattr(alone, name).tobytes() == rows[:, b].tobytes()
