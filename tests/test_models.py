import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from sechyp.errors import ConfigError, NotAnEquilibrium, SingularPoint
from sechyp.models import (conjugate_model, expanding_lorenz_orbit,
                           interval_fixed_points, iterate_interval_map,
                           load_model, make_expanding_lorenz_map,
                           make_geometric_lorenz_suspension,
                           make_linear_field, make_linear_saddle, make_lorenz,
                           polynomial_field_from_table, refine_equilibrium,
                           validate_model)


def fd_jacobian(model, x, h=1e-6):
    """Independent central-difference oracle for the analytic Jacobian."""
    n = model.dim
    out = np.empty((n, n))
    for k in range(n):
        dx = np.zeros(n)
        dx[k] = h * max(1.0, abs(x[k]))
        out[:, k] = (model.eval(x + dx) - model.eval(x - dx)) / (2 * dx[k])
    return out


class TestLorenz:
    def test_singularities_closed_form(self, lorenz):
        # solve sigma(y-x)=0, x(rho-z)-y=0, xy-beta z=0 by hand:
        # x=y, x(rho-1-z)=0 -> origin or z=rho-1, x=y=sqrt(beta(rho-1))
        r = np.sqrt(72.0)
        expected = [np.zeros(3), [r, r, 27.0], [-r, -r, 27.0]]
        assert len(lorenz.singularities) == 3
        for got, want in zip(lorenz.singularities, expected):
            npt.assert_allclose(got, want, atol=1e-14)

    def test_singularities_are_equilibria(self, lorenz):
        for s in lorenz.singularities:
            assert np.linalg.norm(lorenz.eval(s)) < 1e-10

    def test_divergence_constant(self, lorenz):
        rng = np.random.default_rng(0)
        traces = [np.trace(lorenz.jacobian(rng.uniform(-20, 20, 3)))
                  for _ in range(50)]
        npt.assert_allclose(traces, -41.0 / 3.0, rtol=0, atol=1e-12)
        assert np.var(traces) < 1e-28  # machine precision

    def test_subcritical_rho_single_equilibrium(self):
        m = make_lorenz(10.0, 0.5, 8.0 / 3.0)
        assert len(m.singularities) == 1
        npt.assert_allclose(m.singularities[0], 0.0)

    def test_jacobian_matches_finite_differences(self, lorenz):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-20, 20, 3)
            j = lorenz.jacobian(x)
            rel = np.max(np.abs(j - fd_jacobian(lorenz, x))) / np.max(np.abs(j))
            assert rel < 1e-5

    def test_validate_model(self, lorenz):
        assert validate_model(lorenz) < 1e-5

    def test_validate_model_checks_batched_form(self, lorenz):
        off = dataclasses.replace(
            lorenz, eval_batch=lambda s: lorenz.eval_batch(s) * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="eval_batch"):
            validate_model(off)

    def test_validate_model_checks_batched_jacobian(self, lorenz):
        off = dataclasses.replace(
            lorenz, jacobian_batch=lambda s: lorenz.jacobian_batch(s) * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="jacobian_batch"):
            validate_model(off)

    def test_every_shipped_field_validates(self):
        shipped = [
            make_lorenz(10.0, 28.0, 8.0 / 3.0),
            make_lorenz(16.0, 45.0, 4.0),
            make_linear_saddle([2.0, -3.0, -0.5]),
            make_linear_field([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 0.0, -1.0]]),
            polynomial_field_from_table(
                {"dim": 1,
                 "components": [[{"exponents": [1], "coeff": 1.0},
                                 {"exponents": [3], "coeff": -1.0}]]}),
        ]
        for model in shipped:
            assert validate_model(model) < 1e-5

    def test_parameters_required_positive(self):
        with pytest.raises(ValueError):
            make_lorenz(-1.0, 28.0, 8.0 / 3.0)


class TestLinear:
    def test_saddle_jacobian_everywhere(self):
        m = make_linear_saddle([2.0, -3.0, -0.5])
        rng = np.random.default_rng(1)
        for _ in range(10):
            npt.assert_allclose(m.jacobian(rng.standard_normal(3)),
                                np.diag([2.0, -3.0, -0.5]))

    def test_zero_eigenvalue_field(self):
        m = make_linear_saddle([0.0])
        npt.assert_allclose(m.eval(np.array([3.7])), 0.0)

    def test_closed_form_flow_matches_cocycle(self):
        # DX_t = diag(e^t, e^{-2t}) for the (1, -2) saddle
        from sechyp.flowcalc import integrate
        m = make_linear_saddle([1.0, -2.0])
        orb = integrate(m, [1.0, 1.0], 1.0)
        mat, ls = orb.propagator(0, orb.n_steps)
        expected = np.diag([np.e, np.exp(-2.0)])
        assert np.max(np.abs(mat * np.exp(ls) - expected)) / np.e < 1e-8

    def test_empty_eigs_rejected(self):
        with pytest.raises(ValueError):
            make_linear_saddle([])

    def test_conjugation_transforms_jacobian(self):
        from sechyp.util import qr_pos
        m = make_linear_saddle([2.0, -3.0, -0.5])
        q, _ = qr_pos(np.random.default_rng(4).standard_normal((3, 3)))
        mq = conjugate_model(m, q)
        x = np.array([0.3, -0.2, 0.9])
        npt.assert_allclose(mq.jacobian(x),
                            q @ np.diag([2.0, -3.0, -0.5]) @ q.T, atol=1e-14)


class TestIntermittentMap:
    def test_branch_values(self, intermittent_map):
        # branch formulas: 2 sqrt(x) - 1 and 1 - 2 sqrt(|x|)
        assert intermittent_map.eval(0.25) == 0.0
        assert intermittent_map.eval(-0.25) == 0.0

    def test_neutral_fixed_points(self, intermittent_map):
        assert intermittent_map.eval(1.0) == 1.0
        assert intermittent_map.eval(-1.0) == -1.0
        assert intermittent_map.derivative(1.0) == 1.0
        assert interval_fixed_points(intermittent_map) == [-1.0, 1.0]

    def test_singular_point_raises(self, intermittent_map):
        with pytest.raises(SingularPoint):
            intermittent_map.eval(0.0)
        with pytest.raises(SingularPoint):
            intermittent_map.derivative(0.0)

    def test_derivative_matches_finite_differences(self, intermittent_map):
        rng = np.random.default_rng(5)
        h = 1e-7
        for _ in range(200):
            x = rng.uniform(-1 + 1e-3, 1 - 1e-3)
            if abs(x) < 1e-4:
                continue
            fd = (intermittent_map.eval(x + h) - intermittent_map.eval(x - h)) / (2 * h)
            assert abs(fd - intermittent_map.derivative(x)) / abs(fd) < 1e-5

    def test_maps_domain_into_domain(self, intermittent_map):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, 1000)
        xs = xs[xs != 0]
        ys = np.array([intermittent_map.eval(x) for x in xs])
        assert np.all((ys >= -1.0) & (ys <= 1.0))

    def test_inverse_branch_derivative_identity(self, intermittent_map):
        # the two inverse branches are ((y+1)/2)^2 and -((1-y)/2)^2 with
        # |dx/dy| = (y+1)/2 and (1-y)/2: their sum is identically 1
        rng = np.random.default_rng(7)
        for y in rng.uniform(-1 + 1e-9, 1 - 1e-9, 1000):
            x_plus = ((y + 1.0) / 2.0) ** 2
            x_minus = -((1.0 - y) / 2.0) ** 2
            assert abs(intermittent_map.eval(x_plus) - y) < 1e-12
            assert abs(intermittent_map.eval(x_minus) - y) < 1e-12
            s = 1.0 / intermittent_map.derivative(x_plus) \
                + 1.0 / intermittent_map.derivative(x_minus)
            assert abs(s - 1.0) < 1e-10


class TestExpandingMap:
    def test_slope_and_fixed_points(self):
        m = make_expanding_lorenz_map()
        assert m.derivative(0.3) == 2.0
        assert interval_fixed_points(m) == [-1.0, 1.0]

    def test_bitstream_orbit_follows_map(self):
        m = make_expanding_lorenz_map()
        orb = expanding_lorenz_orbit(5000, seed=9)
        errs = np.abs([m.eval(orb[i]) - orb[i + 1] for i in range(4999)])
        assert errs.max() < 1e-15

    def test_float_orbit_is_dyadic_and_short(self):
        # slope-2 arithmetic is exact, so double seeds die at the
        # singular point within ~55 iterates; this is the documented
        # reason expanding_lorenz_orbit exists
        m = make_expanding_lorenz_map()
        with pytest.raises(SingularPoint):
            x = 0.123456789
            for _ in range(60):
                if x == 0.0:
                    raise SingularPoint
                x = m.eval(x)


class TestSuspension:
    def test_fiber_kills_first_term_at_zero(self, intermittent_suspension):
        g = intermittent_suspension.section_map.fiber
        assert g(0.5, 0.0) == 0.5
        assert g(-0.5, 0.0) == -0.5

    def test_roof_lebesgue_mean(self, intermittent_suspension):
        # integral of -log|x| over [-1,1] is 2, so the mean with tau0=1 is 2
        xs = np.linspace(-1, 1, 200001)[1:-1]
        xs = xs[xs != 0]
        vals = np.array([intermittent_suspension.roof(x) for x in xs])
        assert abs(np.trapezoid(vals, xs) / 2.0 - 2.0) < 1e-3

    def test_fiber_contraction_rate_bound(self, intermittent_suspension):
        skew = intermittent_suspension.section_map
        assert skew.fiber_contraction_rate == 0.25
        rng = np.random.default_rng(8)
        for _ in range(500):
            x = rng.uniform(-1, 1)
            if x == 0:
                continue
            y1, y2 = rng.uniform(-1, 1, 2)
            lhs = abs(skew.fiber(x, y1) - skew.fiber(x, y2))
            assert lhs <= 0.25 * abs(y1 - y2) + 1e-15

    def test_escape_parameters_rejected(self, intermittent_map):
        with pytest.raises(ValueError):
            make_geometric_lorenz_suspension(intermittent_map, c1=0.5, c3=0.5)

    def test_roof_floor(self, intermittent_suspension):
        rng = np.random.default_rng(10)
        for x in rng.uniform(-1, 1, 1000):
            if x == 0:
                continue
            assert intermittent_suspension.roof(x) >= intermittent_suspension.roof_floor


class TestPolynomialLoader:
    def lorenz_table(self):
        s, r, b = 10.0, 28.0, 8.0 / 3.0
        return {
            "dim": 3,
            "components": [
                [{"exponents": [0, 1, 0], "coeff": s},
                 {"exponents": [1, 0, 0], "coeff": -s}],
                [{"exponents": [1, 0, 0], "coeff": r},
                 {"exponents": [0, 1, 0], "coeff": -1.0},
                 {"exponents": [1, 0, 1], "coeff": -1.0}],
                [{"exponents": [1, 1, 0], "coeff": 1.0},
                 {"exponents": [0, 0, 1], "coeff": -b}],
            ],
        }

    def test_polynomial_lorenz_matches_analytic(self, lorenz):
        poly = polynomial_field_from_table(self.lorenz_table())
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.uniform(-10, 10, 3)
            npt.assert_allclose(poly.eval(x), lorenz.eval(x), rtol=1e-12)
            npt.assert_allclose(poly.jacobian(x), lorenz.jacobian(x), rtol=1e-12)

    def test_newton_refined_seeds(self):
        table = self.lorenz_table()
        table["singularity_seeds"] = [[8.3, 8.6, 26.8]]
        poly = polynomial_field_from_table(table)
        npt.assert_allclose(poly.singularities[0],
                            [np.sqrt(72), np.sqrt(72), 27.0], atol=1e-9)

    def test_double_sink_field(self):
        # x' = x - x^3: sinks at +-1, saddle at 0
        table = {"dim": 1,
                 "components": [[{"exponents": [1], "coeff": 1.0},
                                 {"exponents": [3], "coeff": -1.0}]],
                 "singularity_seeds": [[0.9], [-1.1], [0.05]]}
        m = polynomial_field_from_table(table)
        got = sorted(float(s[0]) for s in m.singularities)
        npt.assert_allclose(got, [-1.0, 0.0, 1.0], atol=1e-10)

    def test_bad_table_raises_config_error(self):
        with pytest.raises(ConfigError):
            polynomial_field_from_table({"dim": 2, "components": [[]]})


class TestZoo:
    @pytest.mark.parametrize("name", ["lorenz", "intermittent_lorenz",
                                      "expanding_lorenz", "geometric_lorenz"])
    def test_known_names_load(self, name):
        assert load_model(name) is not None

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_model("not_a_model")

    def test_refine_equilibrium_failure(self, lorenz):
        with pytest.raises(NotAnEquilibrium):
            # no equilibrium anywhere near this seed
            refine_equilibrium(lorenz, [5.0, -5.0, 10.0], max_iter=3)

    def test_iterate_interval_map(self, intermittent_map):
        orb = iterate_interval_map(intermittent_map, 0.7, 100)
        assert orb.shape == (101,)
        assert np.all(np.abs(orb) <= 1.0)
