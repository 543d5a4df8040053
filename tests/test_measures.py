import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats

from sechyp import measures
from sechyp.flowcalc import integrate
from sechyp.measures import (basin_sample, benettin_spectrum, birkhoff_map,
                             empirical_measure,
                             histogram_to_csv, ks_statistic, map_pushforward,
                             pesin_check_1d, series_to_csv, tv_distance,
                             uniform_cdf)
from sechyp.models import (conjugate_model, expanding_lorenz_orbit,
                           make_expanding_lorenz_map, make_lorenz,
                           make_geometric_lorenz_suspension,
                           make_linear_saddle, polynomial_field_from_table)


class TestSpectrum:
    def test_saddle_exact(self, saddle):
        orb = integrate(saddle, np.full(3, 1e-14), 20.0)
        est = benettin_spectrum(orb, 3, warmup=8.0)
        npt.assert_allclose(est.exponents, [2.0, -0.5, -3.0], atol=1e-8)

    def test_equilibrium_orbit_gives_eigenvalues(self, lorenz):
        orb = integrate(lorenz, np.zeros(3), 8.0)
        est = benettin_spectrum(orb, 3, warmup=3.0)
        want = np.sort(np.linalg.eigvals(lorenz.jacobian(np.zeros(3))).real)[::-1]
        npt.assert_allclose(est.exponents, want, atol=1e-6)

    def test_sum_matches_divergence(self, lorenz_orbit_60):
        est = benettin_spectrum(lorenz_orbit_60, 3, warmup=5.0)
        assert abs(est.divergence_average + 41.0 / 3.0) < 1e-9
        assert abs(np.sum(est.exponents) - est.divergence_average) \
            <= max(2 * est.sum_half_width, 1e-3)

    @pytest.mark.parametrize("model", [
        conjugate_model(make_lorenz(10.0, 28.0, 8.0 / 3.0),
                        np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3)
                                     + np.eye(3))[0]),
        # van der Pol in (x, y), driven z: the trace -x^2 varies
        polynomial_field_from_table({"dim": 3, "components": [
            [{"exponents": [0, 1, 0], "coeff": 1.0}],
            [{"exponents": [0, 1, 0], "coeff": 1.0},
             {"exponents": [2, 1, 0], "coeff": -1.0},
             {"exponents": [1, 0, 0], "coeff": -1.0}],
            [{"exponents": [0, 0, 1], "coeff": -1.0},
             {"exponents": [1, 1, 0], "coeff": 1.0}]]}),
    ], ids=["conjugated-lorenz", "polynomial"])
    def test_divergence_average_equals_the_per_state_loop(self, model,
                                                           monkeypatch):
        monkeypatch.setattr(measures, "_TRACE_CHUNK", 7)   # many chunks
        orb = integrate(model, [1.0, 2.0, 20.0], 6.0)
        est = benettin_spectrum(orb, 2, warmup=1.0)
        i0 = int(np.searchsorted(orb.times, orb.times[0] + 1.0, side="left"))
        tr = np.array([np.trace(model.jacobian(s)) for s in orb.states[i0:]])
        want = (np.sum(0.5 * (tr[1:] + tr[:-1]) * np.diff(orb.times[i0:]))
                / float(orb.times[-1] - orb.times[i0]))
        assert est.divergence_average == float(want)

    def test_k_exceeds_dimension(self, lorenz_orbit):
        with pytest.raises(ValueError):
            benettin_spectrum(lorenz_orbit, 4)


class TestBirkhoff:
    def test_intermittent_log_derivative(self, intermittent_map):
        # integral of log|f'| over Lebesgue: -(1/2) int_0^1 log x dx = 1/2
        obs = lambda x: np.log(abs(intermittent_map.derivative(x)))
        rng = np.random.default_rng(12345)
        bs = birkhoff_map(intermittent_map, obs, float(rng.uniform(-1, 1)),
                          10 ** 5)
        assert 0.46 <= bs.final <= 0.54

    def test_neutral_fixed_point_average_zero(self, intermittent_map):
        obs = lambda x: np.log(abs(intermittent_map.derivative(x)))
        bs = birkhoff_map(intermittent_map, obs, 1.0, 2000)
        assert bs.final == 0.0
        assert np.all(bs.averages == 0.0)

    def test_seed_independence(self, intermittent_map):
        obs = lambda x: np.log(abs(intermittent_map.derivative(x)))
        rng = np.random.default_rng(99)
        finals = [birkhoff_map(intermittent_map, obs,
                               float(rng.uniform(-1, 1)), 10 ** 5).final
                  for _ in range(10)]
        assert np.max(finals) - np.min(finals) < 0.06
        assert abs(np.mean(finals) - 0.5) < 0.02

    def test_csv_dump(self, intermittent_map, tmp_path):
        obs = lambda x: np.log(abs(intermittent_map.derivative(x)))
        bs = birkhoff_map(intermittent_map, obs, 0.41, 1000)
        path = tmp_path / "series.csv"
        series_to_csv(bs, path, header_comment="h")
        lines = path.read_text().splitlines()
        assert lines[0] == "# h" and lines[1] == "checkpoint,average"


class TestEmpirical:
    def test_lebesgue_invariance_ks(self, intermittent_map):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-1, 1, 10 ** 6)
        pushed = map_pushforward(intermittent_map, samples)
        ks = ks_statistic(pushed, uniform_cdf(-1, 1))
        assert ks < 0.002

    def test_ks_matches_scipy(self, intermittent_map):
        rng = np.random.default_rng(13)
        samples = rng.uniform(-1, 1, 20000)
        pushed = map_pushforward(intermittent_map, samples)
        ours = ks_statistic(pushed, uniform_cdf(-1, 1))
        ref = scipy.stats.kstest(pushed, lambda x: (x + 1) / 2).statistic
        assert abs(ours - ref) < 1e-12

    def test_iid_uniform_control(self):
        # direct control: i.i.d. uniform samples pass the same threshold
        rng = np.random.default_rng(17)
        ks = ks_statistic(rng.uniform(-1, 1, 10 ** 6), uniform_cdf(-1, 1))
        assert ks < 0.002

    def test_point_mass_histogram(self):
        h = empirical_measure(np.zeros(500), bins=16, support=(-1, 1))
        assert h.counts.max() == 500
        assert np.count_nonzero(h.counts) == 1

    def test_expanding_map_histogram_stabilizes(self):
        orb = expanding_lorenz_orbit(10 ** 6, seed=21)
        half = len(orb) // 2
        h1 = empirical_measure(orb[:half], bins=32, support=(-1, 1))
        h2 = empirical_measure(orb[half:], bins=32, support=(-1, 1))
        assert tv_distance(h1, h2) < 0.01

    def test_pushforward_invariance_tv(self, intermittent_map):
        rng = np.random.default_rng(23)
        samples = rng.uniform(-1, 1, 10 ** 6)
        pushed = map_pushforward(intermittent_map, samples)
        h1 = empirical_measure(samples, bins=32, support=(-1, 1))
        h2 = empirical_measure(pushed, bins=32, support=(-1, 1))
        assert tv_distance(h1, h2) < 0.01

    def test_tv_requires_same_edges(self):
        h1 = empirical_measure(np.zeros(10), bins=4, support=(-1, 1))
        h2 = empirical_measure(np.zeros(10), bins=8, support=(-1, 1))
        with pytest.raises(ValueError):
            tv_distance(h1, h2)

    def test_histogram_csv(self, tmp_path):
        h = empirical_measure(np.linspace(-1, 1, 100), bins=8, support=(-1, 1))
        histogram_to_csv(h, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 9


class TestBasin:
    def test_lorenz_full_basin(self, lorenz):
        ref = basin_sample(lorenz, None, np.array([[1.0, 1.0, 1.0]]),
                           T=3000.0, dt=0.02, transient=50.0)
        box = lorenz.trapping_region
        axes = [np.linspace(box[i, 0], box[i, 1], 10) for i in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.column_stack([m.ravel() for m in mesh])
        res = basin_sample(lorenz, ref.averages[0], grid, T=800.0, dt=0.02,
                           tol=0.05, transient=20.0)
        assert res.fraction >= 0.95

    def test_gradient_sink_unit_fraction(self):
        m = make_linear_saddle([-1.0, -2.0, -0.5])
        grid = np.random.default_rng(3).uniform(-1, 1, (64, 3))
        res = basin_sample(m, np.zeros(3), grid, T=40.0, dt=0.01,
                           tol=0.05, transient=20.0)
        assert res.fraction == 1.0
        npt.assert_allclose(res.averages, 0.0, atol=1e-3)

    def test_bistable_two_basins(self):
        table = {"dim": 1,
                 "components": [[{"exponents": [1], "coeff": 1.0},
                                 {"exponents": [3], "coeff": -1.0}]]}
        m = polynomial_field_from_table(table)
        grid = np.linspace(-2.0, 2.0, 41)[:, None]
        res = basin_sample(m, np.array([1.0]), grid, T=30.0, dt=0.01,
                           tol=0.05, transient=10.0, panel="signed")
        assert 0.0 < res.fraction < 1.0
        npt.assert_allclose(res.fraction, 0.5, atol=0.05)


class TestPesin:
    def test_intermittent_chain(self, intermittent_map,
                                intermittent_suspension):
        rep = pesin_check_1d(intermittent_map, intermittent_suspension,
                             n=10 ** 5)
        assert abs(rep.h_base - 0.5) < 0.04
        assert abs(rep.mean_roof - 2.0) < 0.1
        assert abs(rep.quotient - 0.25) < 0.05
        assert rep.flow_side >= rep.quotient - 0.05
        assert rep.chain_ok
        assert rep.truncation_bound < 1e-10

    def test_constant_roof_quotient(self, intermittent_map):
        sus = make_geometric_lorenz_suspension(intermittent_map,
                                               roof_log_coeff=0.0, tau0=1.0)
        rep = pesin_check_1d(intermittent_map, sus, n=10 ** 5)
        assert abs(rep.mean_roof - 1.0) < 1e-12
        assert abs(rep.quotient - 0.5) < 0.04
        assert rep.chain_ok

    def test_expanding_entropy_log2_control(self):
        # the log-derivative identity is exact on the doubling variant:
        # h = log 2 with constant slope, no orbit statistics needed
        m = make_expanding_lorenz_map()
        orb = expanding_lorenz_orbit(10 ** 4, seed=5)
        vals = np.log([abs(m.derivative(x)) for x in orb])
        npt.assert_allclose(np.mean(vals), np.log(2.0), rtol=1e-12)
