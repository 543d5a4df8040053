import numpy as np
import numpy.testing as npt
import pytest

from sechyp.errors import SingularPoint
from sechyp.splitting import estimate_splitting
from sechyp.suspension import (ash_running_max, crossing_matrix,
                               mnuse_rate_stream, nuse_rate_stream,
                               run_section_streams, sectional_rate_stream,
                               suspension_orbit, window_log_det_cu)


@pytest.fixture(scope="module")
def streams(intermittent_suspension):
    rng = np.random.default_rng(5)
    seeds = np.column_stack([rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64)])
    return run_section_streams(intermittent_suspension, seeds, 4000)


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
        seeds = np.array([[0.371, -0.24]])
        st = run_section_streams(intermittent_suspension, seeds, 400,
                                 tilt_warmup=30)
        orb = suspension_orbit(intermittent_suspension,
                               [st.x[0, 0], st.y[0, 0]], 430)
        seq = estimate_splitting(orb, d_s=1, warmup=25.0, stride=1)
        # compare window log-dets on the overlapping range
        t0 = seq.times[0] - orb.times[0]
        for span in (20.0, 60.0):
            got = window_log_det_cu(st, 0, t0, t0 + span)
            rcu, _ = seq.restricted("cu")
            j = int(np.searchsorted(seq.times, seq.times[0] + span,
                                    side="right")) - 1
            from sechyp.util import scaled_product
            m, ls = scaled_product(rcu, 0, j)
            want = np.linalg.slogdet(m)[1] + 2 * ls
            # windows are quantized to crossing times on both routes
            assert abs(got - want) < 1e-6 * max(1.0, abs(want)) + 1e-9

    def test_stable_factor_is_fiber_derivative(self, streams,
                                               intermittent_suspension):
        skew = intermittent_suspension.section_map
        b = 3
        for k in range(0, 200, 17):
            gy = skew.fiber_dy(streams.x[k, b], streams.y[k, b])
            assert abs(streams.log_gy[k, b] - np.log(abs(gy))) < 1e-12

    def test_tilt_recursion_fixed_point(self, intermittent_suspension):
        # over the boundary fixed orbit the tilt settles to
        # h = g_x / (f' - g_y) with f' = 1
        st = run_section_streams(intermittent_suspension,
                                 [[1.0, 2.0 / 3.0]], 50, tilt_warmup=40)
        skew = intermittent_suspension.section_map
        gx = skew.fiber_dx(1.0, 2.0 / 3.0)
        gy = skew.fiber_dy(1.0, 2.0 / 3.0)
        h_star = gx / (1.0 - gy)
        npt.assert_allclose(st.tilt[:, 0], h_star, rtol=1e-10)

    def test_ecu_graph_invariance(self, streams, intermittent_suspension):
        # span{(1, h, 0), e_s} with the streamed tilt h must be exactly
        # invariant under the crossing factors along the orbit
        b = 7

        def ecu(k):
            h = streams.tilt[k, b]
            c = 1.0 / np.sqrt(1.0 + h * h)
            return np.array([[c, 0.0], [h * c, 0.0], [0.0, 1.0]])

        for k in range(0, 300, 23):
            m = crossing_matrix(intermittent_suspension,
                                streams.x[k, b], streams.y[k, b])
            basis, nxt = ecu(k), ecu(k + 1)
            img = m @ basis
            leak = img - nxt @ (nxt.T @ img)
            assert np.linalg.norm(leak) / np.linalg.norm(img) < 1e-12


class TestStreamFunctionals:
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
            total = streams.times[-1, b]
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
