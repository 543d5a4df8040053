import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sechyp.errors import Blowup
from sechyp.flowcalc import (StepControl, _initial_step, batch_rk4, dp5_steps,
                             integrate, load_orbit_cache, orbit_to_csv,
                             save_orbit_cache, wedge2_of)
from sechyp.models import (conjugate_model, make_linear_field,
                           make_linear_saddle)


class TestIntegrate:
    def test_linear_saddle_closed_form(self):
        m = make_linear_saddle([1.0, -2.0])
        orb = integrate(m, [1.0, 1.0], 1.0)
        expected = np.array([np.e, np.exp(-2.0)])
        rel = np.abs(orb.states[-1] - expected) / expected
        assert rel.max() < 1e-8

    def test_equilibrium_orbit_constant(self, lorenz):
        orb = integrate(lorenz, np.zeros(3), 2.0)
        assert np.max(np.abs(orb.states)) < 1e-12
        # step factors are matrix exponentials of the linearization
        j = lorenz.jacobian(np.zeros(3))
        k = orb.n_steps // 2
        h = orb.times[k + 1] - orb.times[k]
        npt.assert_allclose(orb.step_cocycles[k], sla.expm(h * j), atol=1e-9)

    def test_lorenz_stays_in_reference_box(self, lorenz):
        # reference run at rtol 1e-12 gave x in [-17.3, 19.6],
        # y in [-22.8, 27.2], z in [0.96, 47.9]; assert the documented
        # envelope |x|,|y| <= 30, 0 <= z <= 60 plus a 10%-inflated
        # regression band around the reference box
        orb = integrate(lorenz, [1.0, 1.0, 1.0], 50.0)
        lo = orb.states.min(axis=0)
        hi = orb.states.max(axis=0)
        assert np.all(np.abs(orb.states[:, :2]) <= 30.0)
        assert np.all((orb.states[:, 2] >= 0.0) & (orb.states[:, 2] <= 60.0))
        assert lo[0] > -19.0 and hi[0] < 21.6
        assert lo[1] > -25.1 and hi[1] < 29.9
        assert lo[2] > 0.8 and hi[2] < 52.7

    def test_monotone_grid_and_shapes(self, lorenz_orbit):
        assert np.all(np.diff(lorenz_orbit.times) > 0)
        n = lorenz_orbit.n_steps
        assert lorenz_orbit.states.shape == (n + 1, 3)
        assert lorenz_orbit.step_cocycles.shape == (n, 3, 3)
        assert lorenz_orbit.renorm_log.shape == (n,)

    def test_blowup(self):
        m = make_linear_saddle([2.0])
        with pytest.raises(Blowup):
            integrate(m, [1.0], 20.0, StepControl(bound=1e4))

    def test_rejects_bad_inputs(self, lorenz):
        with pytest.raises(ValueError):
            integrate(lorenz, [1.0, 1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            integrate(lorenz, [np.nan, 1.0, 1.0], 1.0)

    @pytest.mark.parametrize("t_span", [1e-15, 1e-14])
    def test_rejects_span_at_time_resolution(self, lorenz, t_span):
        with pytest.raises(ValueError, match="time resolution"):
            integrate(lorenz, [1.0, 1.0, 1.0], t_span)
        assert integrate(lorenz, [1.0, 1.0, 1.0], 1e-13).n_steps >= 1

    @pytest.mark.parametrize("t_span", [2e-14, 5e-14])
    def test_rejects_span_below_eight_step_floors(self, lorenz, t_span):
        with pytest.raises(ValueError, match=f"t_span {t_span:g} "):
            integrate(lorenz, [1.0, 1.0, 1.0], t_span)
        assert integrate(lorenz, [1.0, 1.0, 1.0], 1e-13).n_steps >= 1

    def test_determinism_bit_identical(self, lorenz):
        a = integrate(lorenz, [1.0, 1.0, 1.0], 5.0)
        b = integrate(lorenz, [1.0, 1.0, 1.0], 5.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.step_cocycles, b.step_cocycles)


# ----------------------------------------------------------------------
# reference step kernel: the term-by-term Dormand-Prince 5(4) loop, with
# seven right-hand-side evaluations per attempted step and np.linalg.norm,
# and the Lorenz field on numpy scalars.  integrate() must reproduce it
# bit for bit (the starting step size is shared, not part of the kernel),
# and dp5_steps(..., tangent=False) its state-only branch.
# ----------------------------------------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


def _ref_rhs(model, y):
    x = y[:, 0]
    out = np.empty_like(y)
    out[:, 0] = model.eval(x)
    if y.shape[1] > 1:
        np.matmul(model.jacobian(x), y[:, 1:], out=out[:, 1:])
    return out


def _ref_integrate(model, x0, t_span, ctrl=None, tangent=True):
    ctrl = ctrl or StepControl()
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    times, states, factors = [0.0], [x0.copy()], []
    t = 0.0
    x = x0.copy()
    max_step = min(ctrl.max_step, t_span / 8.0)
    h_prop = min(_initial_step(model, x0, ctrl), max_step)
    t_edge = 1e-14 * max(1.0, t_span)
    y_id = np.eye(n)
    while t_span - t > t_edge:
        h = min(h_prop, t_span - t)
        y = np.empty((n, n + 1 if tangent else 1))
        y[:, 0] = x
        if tangent:
            y[:, 1:] = y_id
        k1 = _ref_rhs(model, y)
        k2 = _ref_rhs(model, y + (h * _A21) * k1)
        k3 = _ref_rhs(model, y + h * (_A31 * k1 + _A32 * k2))
        k4 = _ref_rhs(model, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = _ref_rhs(model, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                      + _A54 * k4))
        k6 = _ref_rhs(model, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                      + _A64 * k4 + _A65 * k5))
        y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = _ref_rhs(model, y5)
        err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                   + _E7 * k7)
        weight = ctrl.atol + ctrl.rtol * max(np.linalg.norm(y),
                                             np.linalg.norm(y5))
        enorm = np.linalg.norm(err) / weight
        if enorm <= 1.0:
            t += h
            x = y5[:, 0]
            if np.linalg.norm(x) > ctrl.bound:
                raise Blowup(f"state norm exceeded {ctrl.bound:.3e} at t={t:.6g}")
            times.append(t)
            states.append(x.copy())
            factors.append(y5[:, 1:].copy())
            fac = 5.0 if enorm == 0 else min(5.0, 0.9 * enorm ** -0.2)
        else:
            fac = max(0.2, 0.9 * enorm ** -0.2)
        h_prop = min(h_prop * fac, max_step)
    return np.array(times), np.array(states), np.array(factors)


def _ref_lorenz(model):
    """The Lorenz field evaluated on numpy scalars."""
    p = model.params
    sigma, rho, beta = p["sigma"], p["rho"], p["beta"]

    def f(s):
        x, y, z = s
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    def jac(s):
        x, y, z = s
        return np.array([[-sigma, sigma, 0.0], [rho - z, -1.0, -x],
                         [y, x, -beta]])

    return dataclasses.replace(model, eval=f, jacobian=jac)


def _kernel_cases(lorenz):
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a5 = 0.3 * rng.standard_normal((5, 5))
    return {
        "lorenz-rtol7": (lorenz, [1.0, 1.0, 20.0], 10.0, StepControl(rtol=1e-7)),
        "lorenz-rtol9": (lorenz, [-3.0, 2.0, 25.0], 4.0, StepControl(rtol=1e-9)),
        "lorenz-z-axis": (lorenz, [0.0, 0.0, 1.0], 4.0, StepControl(rtol=1e-8)),
        "lorenz-conjugated": (conjugate_model(lorenz, q),
                              q @ np.array([1.0, 2.0, 20.0]), 4.0,
                              StepControl(rtol=1e-8)),
        "saddle-4d": (make_linear_saddle([-3.0, -0.5, 1.0, 2.0]),
                      [0.1, 0.2, 0.3, 0.4], 3.0, None),
        "linear-5d-max-step": (make_linear_field(a5), rng.standard_normal(5),
                               4.0, StepControl(rtol=1e-8, max_step=0.05)),
    }


class TestStepKernel:
    @pytest.mark.parametrize("case", ["lorenz-rtol7", "lorenz-rtol9",
                                      "lorenz-z-axis", "lorenz-conjugated",
                                      "saddle-4d", "linear-5d-max-step"])
    def test_bit_identical_to_reference(self, lorenz, case):
        model, x0, t_span, ctrl = _kernel_cases(lorenz)[case]
        orb = integrate(model, x0, t_span, ctrl)
        ref_model = model
        if case.startswith("lorenz-") and case != "lorenz-conjugated":
            ref_model = _ref_lorenz(model)
        times, states, cocycles = _ref_integrate(ref_model, x0, t_span, ctrl)
        assert np.array_equal(orb.times, times)
        assert np.array_equal(orb.states, states)
        assert np.array_equal(orb.step_cocycles, cocycles)

    @pytest.mark.parametrize("case", ["lorenz-rtol9", "lorenz-conjugated",
                                      "linear-5d-max-step"])
    def test_integrate_collects_generator_steps(self, lorenz, case):
        model, x0, t_span, ctrl = _kernel_cases(lorenz)[case]
        orb = integrate(model, x0, t_span, ctrl)
        steps = list(dp5_steps(model, x0, t_span, ctrl))
        assert np.array_equal(orb.times[1:], [t for t, _ in steps])
        blocks = np.array([y5 for _, y5 in steps])
        assert np.array_equal(orb.states[1:], blocks[:, :, 0])
        assert np.array_equal(orb.step_cocycles, blocks[:, :, 1:])
        # every yielded state is its own array, not a reused buffer
        assert len({id(y5) for _, y5 in steps}) == len(steps)

    @pytest.mark.parametrize("case", ["lorenz-rtol7", "lorenz-rtol9",
                                      "lorenz-z-axis", "lorenz-conjugated",
                                      "saddle-4d", "linear-5d-max-step"])
    def test_state_only_bit_identical_to_reference(self, lorenz, case):
        model, x0, t_span, ctrl = _kernel_cases(lorenz)[case]
        steps = list(dp5_steps(model, x0, t_span, ctrl, tangent=False))
        ref_model = model
        if case.startswith("lorenz-") and case != "lorenz-conjugated":
            ref_model = _ref_lorenz(model)
        times, states, _ = _ref_integrate(ref_model, x0, t_span, ctrl,
                                          tangent=False)
        assert all(y5.shape == (len(x0), 1) for _, y5 in steps)
        assert np.array_equal(times[1:], [t for t, _ in steps])
        assert np.array_equal(states[1:], [y5[:, 0] for _, y5 in steps])

    def test_state_only_calls_no_jacobian(self, lorenz):
        calls = {"eval": 0, "jacobian": 0}

        def counted(name):
            fn = getattr(lorenz, name)

            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        model = dataclasses.replace(lorenz, eval=counted("eval"),
                                    jacobian=counted("jacobian"))
        # at the default rtol 1e-9 about 0.6% of attempts are rejected
        # (7% at rtol 1e-7, where the bound would not hold)
        steps = list(dp5_steps(model, [1.0, 1.0, 20.0], 20.0,
                               StepControl(), tangent=False))
        assert calls["jacobian"] == 0
        assert calls["eval"] / len(steps) <= 6.2

    def test_blowup_at_reference_time(self, lorenz):
        # the time-reversed Lorenz field blows up in finite time
        def reversed_field(m):
            return dataclasses.replace(m, eval=lambda x: -m.eval(x),
                                       jacobian=lambda x: -m.jacobian(x))

        ctrl = StepControl(rtol=1e-7, bound=60.0)
        with pytest.raises(Blowup) as got:
            integrate(reversed_field(lorenz), [1.0, 1.0, 20.0], 5.0, ctrl)
        with pytest.raises(Blowup) as want:
            _ref_integrate(reversed_field(_ref_lorenz(lorenz)),
                           [1.0, 1.0, 20.0], 5.0, ctrl)
        assert str(got.value) == str(want.value)

    def test_first_same_as_last_eval_count(self, lorenz):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return lorenz.eval(x)

        orb = integrate(dataclasses.replace(lorenz, eval=counted),
                        [1.0, 1.0, 20.0], 20.0, StepControl(rtol=1e-7))
        assert calls[0] / orb.n_steps <= 6.2


class TestCocycleProperties:
    def test_composition_against_restarted_integration(self, lorenz, lorenz_orbit):
        # compose factors over [s, t] and compare against a fresh
        # integration started at x(s) over the same span
        rng = np.random.default_rng(17)
        for _ in range(12):
            i = int(rng.integers(0, lorenz_orbit.n_steps // 2))
            j = int(rng.integers(i + 10, lorenz_orbit.n_steps))
            span = lorenz_orbit.times[j] - lorenz_orbit.times[i]
            if span > 12.0:
                j = lorenz_orbit.index_at(lorenz_orbit.times[i] + 12.0)
                span = lorenz_orbit.times[j] - lorenz_orbit.times[i]
            fresh = integrate(lorenz, lorenz_orbit.states[i], span)
            m1, s1 = lorenz_orbit.propagator(i, j)
            m2, s2 = fresh.propagator(0, fresh.n_steps)
            m1, m2 = m1 * np.exp(s1), m2 * np.exp(s2)
            assert np.linalg.norm(m1 - m2) / np.linalg.norm(m2) < 1e-6

    def test_stored_factor_associativity(self, lorenz_orbit):
        rng = np.random.default_rng(23)
        n = lorenz_orbit.n_steps
        for _ in range(100):
            a, b, c = sorted(rng.integers(0, n, 3))
            if a == b or b == c:
                continue
            m_ab, s_ab = lorenz_orbit.propagator(a, b)
            m_bc, s_bc = lorenz_orbit.propagator(b, c)
            m_ac, s_ac = lorenz_orbit.propagator(a, c)
            lhs = (m_bc @ m_ab) * np.exp(s_ab + s_bc)
            rhs = m_ac * np.exp(s_ac)
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-7

    def test_liouville_constant_divergence(self, lorenz_orbit):
        # log det of the cocycle equals the integrated divergence,
        # which is exactly -(41/3) T for the Lorenz field
        t = lorenz_orbit.t_span
        n = lorenz_orbit.states.shape[1]
        ld = float(np.sum(np.linalg.slogdet(lorenz_orbit.step_cocycles)[1])
                   + n * np.sum(lorenz_orbit.renorm_log))
        assert abs(ld + 41.0 / 3.0 * t) / (41.0 / 3.0 * t) < 1e-6


class TestWedge:
    def test_diagonal(self):
        npt.assert_allclose(wedge2_of(np.diag([2.0, 3.0, 5.0])),
                            np.diag([6.0, 10.0, 15.0]))

    def test_identity(self):
        npt.assert_allclose(wedge2_of(np.eye(4)), np.eye(6))

    def test_determinant_squared_3x3(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            m = rng.standard_normal((3, 3))
            lhs = np.linalg.det(wedge2_of(m))
            rhs = np.linalg.det(m) ** 2
            assert abs(lhs - rhs) / max(abs(rhs), 1e-12) < 1e-10

    def test_multiplicative(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            lhs = wedge2_of(a @ b)
            rhs = wedge2_of(a) @ wedge2_of(b)
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9

    @settings(max_examples=500)
    @given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1))
    def test_multiplicative_property(self, n, seed):
        # at n >= 3 the compound has several entries, so its relative
        # error stays near roundoff (worst 2.2e-15 over 4000 seeds); at
        # n = 2 it is one determinant, whose cancellation reaches 2e-12
        a, b = np.random.default_rng(seed).standard_normal((2, n, n))
        lhs = wedge2_of(a @ b)
        rhs = wedge2_of(a) @ wedge2_of(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_rejects_scalars(self):
        with pytest.raises(ValueError):
            wedge2_of(np.array([[2.0]]))


class TestWedgeCocycle:
    def test_saddle_pairwise_sums(self):
        # wedge square of the time-1 propagator of exp(t diag(2,-3,-0.5))
        # is diag(e^{-1}, e^{1.5}, e^{-3.5})
        m = make_linear_saddle([2.0, -3.0, -0.5])
        orb = integrate(m, np.full(3, 1e-8), 1.0)
        mat, ls = orb.propagator(0, orb.n_steps)
        expected = np.diag(np.exp([-1.0, 1.5, -3.5]))
        npt.assert_allclose(wedge2_of(mat) * np.exp(2 * ls), expected,
                            rtol=1e-7, atol=1e-9)

    def test_matches_minor_oracle(self, lorenz_orbit):
        # the stacked wedge square against 2x2 minors taken one by one
        rng = np.random.default_rng(37)
        ks = rng.integers(0, lorenz_orbit.n_steps, 50)
        got = wedge2_of(lorenz_orbit.step_cocycles[ks])
        pairs = [(0, 1), (0, 2), (1, 2)]
        for m, w in zip(lorenz_orbit.step_cocycles[ks], got):
            oracle = np.array([[np.linalg.det(m[np.ix_(r, c)]) for c in pairs]
                               for r in pairs])
            assert np.linalg.norm(w - oracle) / np.linalg.norm(oracle) < 1e-12

    def test_zero_length_orbit(self):
        assert wedge2_of(np.zeros((0, 3, 3))).shape == (0, 3, 3)


class TestRestrictCocycle:
    """The cocycle restricted to an estimated bundle (`seq.Rs`, with its
    leakage defects `seq.defect_s`)."""

    def test_invariant_axis(self, saddle_seq):
        # E^s = span{e2} is exactly invariant; each restricted block factor
        # is e^{-3 dt} over the block
        npt.assert_allclose(np.abs(saddle_seq.Rs[:, 0, 0]),
                            np.exp(-3.0 * np.diff(saddle_seq.times)), rtol=1e-7)
        assert saddle_seq.defect_s.max() < 1e-7

    def test_estimated_stable_bundle_defect(self, lorenz_seq_60):
        # pushing the estimated E^s forward must leak < 1e-3 relative
        assert lorenz_seq_60.defect_s.max() < 1e-3


class TestOrbitIO:
    def test_csv_columns(self, lorenz_orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        orbit_to_csv(lorenz_orbit, path, header_comment="test")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "t,x0,x1,x2,renorm_log"
        assert len(lines) == lorenz_orbit.n_steps + 3

    def test_cache_roundtrip(self, lorenz_orbit, tmp_path):
        path = tmp_path / "orbit.sechyp"
        save_orbit_cache(lorenz_orbit, path)
        assert path.read_bytes()[:7] == b"SECHYP1"
        back = load_orbit_cache(path)
        assert np.array_equal(back.times, lorenz_orbit.times)
        assert np.array_equal(back.states, lorenz_orbit.states)
        assert np.array_equal(back.step_cocycles, lorenz_orbit.step_cocycles)

    def test_cache_rejects_nonzero_renorm(self, lorenz_orbit, tmp_path):
        # the renorm block is written as zeros and read only to be checked
        path = tmp_path / "orbit.sechyp"
        save_orbit_cache(lorenz_orbit, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([0.5], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="nonzero renorm_log"):
            load_orbit_cache(path)

    def test_cache_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTSECH" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_orbit_cache(path)

    def test_csv_deterministic_bytes(self, lorenz, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        orbit_to_csv(integrate(lorenz, [1.0, 1.0, 1.0], 3.0), p1)
        orbit_to_csv(integrate(lorenz, [1.0, 1.0, 1.0], 3.0), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_batch_rk4_matches_adaptive(lorenz):
    x = np.array([[1.0, 1.0, 1.0], [-3.0, 2.0, 20.0]])
    end = batch_rk4(lorenz, x, 0.002, 1000)
    ref0 = integrate(lorenz, x[0], 2.0).states[-1]
    ref1 = integrate(lorenz, x[1], 2.0).states[-1]
    assert np.linalg.norm(end[0] - ref0) < 1e-6
    assert np.linalg.norm(end[1] - ref1) < 1e-6


def test_batch_rk4_matches_rowwise_scalar_rk4(lorenz):
    # the same RK4 step driven by eval row by row: Lorenz's batched form
    # is bit-equal to its scalar form, so the ensembles agree bit for bit
    x = np.random.default_rng(5).uniform(-20.0, 20.0, (25, 3))
    ref = x.copy()

    def rows(xb):
        return np.stack([lorenz.eval(row) for row in xb])

    for _ in range(200):
        k1 = rows(ref)
        k2 = rows(ref + 0.5 * 0.01 * k1)
        k3 = rows(ref + 0.5 * 0.01 * k2)
        k4 = rows(ref + 0.01 * k3)
        ref = ref + (0.01 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert batch_rk4(lorenz, x, 0.01, 200).tobytes() == ref.tobytes()
