import numpy as np
import numpy.testing as npt
import pytest

import sechyp.lpf as lpf_mod
from sechyp.errors import NearSingularity, NoReturn, SingularPoint
from sechyp.flowcalc import StepControl, integrate
from sechyp.lpf import SectionSpec, direct_lpf_factor, lpf_along, return_map
from sechyp.models import (SuspensionModel, make_geometric_lorenz_suspension,
                           make_linear_field)
from sechyp.util import orthonormal_complement, qr_pos, unit


class TestNormalFrame:
    """The initial normal frame of `lpf_along`: the orthonormal complement
    of the flow direction."""

    def test_orthonormality(self, lorenz):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = unit(lorenz.eval(rng.uniform(-15, 15, 3)))
            basis = orthonormal_complement(d)
            npt.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
            npt.assert_allclose(basis.T @ d, 0.0, atol=1e-12)


class TestProjectNormal:
    """Normal coordinates B^T v in the complement basis B, and back B c."""

    def test_already_normal(self):
        basis = orthonormal_complement(np.array([1.0, 0.0, 0.0]))
        coords = basis.T @ np.array([0.0, 1.0, 0.0])
        npt.assert_allclose(np.linalg.norm(coords), 1.0, atol=1e-14)
        npt.assert_allclose(basis @ coords, [0.0, 1.0, 0.0], atol=1e-14)

    def test_flow_direction_killed(self):
        d = np.array([0.6, 0.8, 0.0])
        npt.assert_allclose(orthonormal_complement(d).T @ d, 0.0, atol=1e-14)

    def test_gram_projection_formula(self):
        basis = orthonormal_complement(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        coords = basis.T @ np.array([1.0, 0.0, 0.0])
        npt.assert_allclose(basis @ coords, [0.5, -0.5, 0.0], atol=1e-14)


class TestLPFAlong:
    def test_identity_at_zero_span(self, lorenz_orbit):
        lp = lpf_along(lorenz_orbit)
        m, ls = lp.propagator(5, 5)
        npt.assert_allclose(m * np.exp(ls), np.eye(2))

    def test_circular_flow_period_contraction(self):
        # planar rotation with decoupled vertical contraction: over one
        # period the LPF singular values are 1 and e^{-2 pi}
        circ = make_linear_field([[0.0, -1.0, 0.0],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 0.0, -1.0]], name="circular")
        orb = integrate(circ, [1.0, 0.0, 0.0], 2 * np.pi)
        lp = lpf_along(orb)
        m, ls = lp.propagator(0, lp.n_steps)
        sv = np.linalg.svd(m, compute_uv=False) * np.exp(ls)
        npt.assert_allclose(sv, [1.0, np.exp(-2 * np.pi)], rtol=1e-8)

    def test_cocycle_relation(self, lorenz_orbit):
        # composed per-step factors against the endpoint-frame factor
        # built from the tangent cocycle alone
        lp = lpf_along(lorenz_orbit)
        rng = np.random.default_rng(41)
        for _ in range(100):
            i = int(rng.integers(0, lorenz_orbit.n_steps - 200))
            span = float(rng.uniform(0.5, 8.0))
            j = lorenz_orbit.index_at(lorenz_orbit.times[i] + span)
            m1, s1 = lp.propagator(i, j)
            m2, s2 = direct_lpf_factor(lp, i, j)
            m1, m2 = m1 * np.exp(s1), m2 * np.exp(s2)
            assert np.linalg.norm(m1 - m2) / np.linalg.norm(m2) < 1e-6

    def test_projection_is_contraction(self, lorenz_orbit):
        # ||P^t|| <= ||DX_t|| step by step
        lp = lpf_along(lorenz_orbit)
        rng = np.random.default_rng(43)
        for k in rng.integers(0, lorenz_orbit.n_steps, 200):
            p_norm = np.linalg.norm(lp.lpf_factors[k], 2)
            d_norm = np.linalg.norm(lorenz_orbit.step_cocycles[k], 2)
            assert p_norm <= d_norm * (1 + 1e-12)

    def test_frame_independence_of_singular_values(self, lorenz_orbit):
        # a different admissible frame family (seeded rotation of the
        # initial completion) leaves composed factors orthogonally
        # equivalent: singular values match over any span
        lp1 = lpf_along(lorenz_orbit)
        lp2 = lpf_along(lorenz_orbit, frame_seed=99)
        assert not np.allclose(lp1.frames[0], lp2.frames[0])
        for i, j in ((100, 900), (40, 2000), (0, lorenz_orbit.n_steps)):
            m1, s1 = lp1.propagator(i, j)
            m2, s2 = lp2.propagator(i, j)
            sv1 = np.linalg.svd(m1, compute_uv=False)
            sv2 = np.linalg.svd(m2, compute_uv=False)
            # compare the values representable above the float floor
            top = sv1[0]
            for a, b in zip(sv1, sv2):
                if a > top * 1e-12:
                    assert abs(a * np.exp(s1) - b * np.exp(s2)) / (a * np.exp(s1)) < 1e-9

    @pytest.mark.parametrize("which", ["lorenz_orbit", "suspension_orbit_400"])
    def test_factors_after_loop_equal_in_loop_products(self, which, request):
        orbit = request.getfixturevalue(which)
        lp = lpf_along(orbit)
        frames, factors = _lpf_reference(orbit)
        assert np.array_equal(lp.frames, frames)
        assert np.array_equal(lp.lpf_factors, factors)

    def test_near_singularity_raises(self, lorenz):
        orb = integrate(lorenz, np.zeros(3), 1.0)
        with pytest.raises(NearSingularity):
            lpf_along(orb)


def _lpf_reference(orbit):
    """lpf_along's transport with each factor q^T (C_k F_k) formed inside
    the loop, recomputing C_k F_k, from unit flow directions formed over
    the whole orbit at once (the vertical one on a suspension)."""
    n = orbit.states.shape[1]
    if isinstance(orbit.model, SuspensionModel):
        dirs = np.tile([0.0, 0.0, 1.0], (orbit.n_steps + 1, 1))
    else:
        dirs = orbit.model.eval_batch(orbit.states)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    frames = np.empty((orbit.n_steps + 1, n, n - 1))
    frames[0] = orthonormal_complement(dirs[0])
    factors = np.empty((orbit.n_steps, n - 1, n - 1))
    for k in range(orbit.n_steps):
        w = orbit.step_cocycles[k] @ frames[k]
        d = dirs[k + 1]
        w = w - np.outer(d, d @ w)
        q, _ = qr_pos(w)
        frames[k + 1] = q
        factors[k] = q.T @ (orbit.step_cocycles[k] @ frames[k])
    return frames, factors


class TestReturnMap:
    def test_constant_roof_times(self, intermittent_map):
        sus = make_geometric_lorenz_suspension(intermittent_map,
                                               roof_log_coeff=0.0, tau0=1.0)
        res = return_map(sus, "suspension-canonical", [0.3, 0.1], 7)
        npt.assert_allclose(res.times, 1.0)

    def test_log_roof_value(self, intermittent_suspension):
        # tau(x) = -log|x| + 1 evaluates to 2 at x = e^{-1}
        res = return_map(intermittent_suspension, "suspension-canonical",
                         [np.exp(-1.0), 0.0], 1)
        npt.assert_allclose(res.times[0], 2.0, rtol=1e-14)

    def test_first_image_hits_singular_line(self, intermittent_suspension):
        # R(x, y) = (f(x), g(x, y)) with f(0.25) = 0 and g(0.25, 0) = 1/2
        res = return_map(intermittent_suspension, "suspension-canonical",
                         [0.25, 0.0], 1)
        npt.assert_allclose(res.points[0], [0.0, 0.5], atol=1e-15)
        with pytest.raises(SingularPoint):
            return_map(intermittent_suspension, "suspension-canonical",
                       [0.25, 0.0], 2)

    def test_lorenz_section_crossings(self, lorenz):
        sec = SectionSpec(point=np.array([0.0, 0.0, 27.0]),
                          normal=np.array([0.0, 0.0, 1.0]))
        res = return_map(lorenz, sec, [1.0, 1.0, 1.0], 6)
        assert len(res.points) == 6
        for p, t in zip(res.points, res.times):
            assert abs(p[2] - 27.0) < 1e-8
        assert all(t2 > t1 for t1, t2 in zip(res.times, res.times[1:]))
        # prescribed orientation: upward flux at each crossing
        for p in res.points:
            assert lorenz.eval(p)[2] > 0

    def test_no_return_raises(self, lorenz):
        sec = SectionSpec(point=np.array([0.0, 0.0, 500.0]),
                          normal=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NoReturn):
            return_map(lorenz, sec, [1.0, 1.0, 1.0], 1, t_budget=20.0)


def _bisect_crossing_ref(model, x_lo, t_lo, t_hi, g, sgn, step_ctrl, tol=1e-12):
    """Reference crossing: plain bisection of the crossing time inside one
    accepted step, re-integrating from the step-begin state at every
    midpoint (the refinement return_map used before its Newton step)."""
    a, b = 0.0, t_hi - t_lo
    x_at = {0.0: x_lo}

    def state(dt):
        if dt not in x_at:
            x_at[dt] = integrate(model, x_lo, dt, step_ctrl).states[-1]
        return x_at[dt]

    if g(state(b)) * sgn < 0.0:
        return t_hi, state(b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if g(state(mid)) * sgn < 0.0:
            a = mid
        else:
            b = mid
    return t_lo + b, state(b)


class TestFieldCrossings:
    """Vector-field return maps against a bisection reference."""

    CTRL = StepControl(rtol=1e-9, atol=1e-12)
    X0 = [1.0, 2.0, 20.0]

    @staticmethod
    def section(orientation):
        return SectionSpec(point=np.array([0.0, 0.0, 27.0]),
                           normal=np.array([0.0, 0.0, 1.0]),
                           orientation=orientation)

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_crossings_match_bisection_reference(self, lorenz, orientation):
        # t_budget 20 makes the whole run one 20-unit chunk, so the main
        # orbit is integrate(..., 20.0) step for step
        n = 12
        res = return_map(lorenz, self.section(orientation), self.X0, n,
                         t_budget=20.0, step_ctrl=self.CTRL)
        orb = integrate(lorenz, self.X0, 20.0, self.CTRL)

        def g(x):
            return float(x[2] - 27.0)

        gv = orientation * (orb.states[:, 2] - 27.0)
        ks = np.flatnonzero((gv[:-1] < 0.0) & (gv[1:] >= 0.0))[:n]
        assert len(ks) == n
        for k, t, p in zip(ks, res.times, res.points):
            t_ref, p_ref = _bisect_crossing_ref(
                lorenz, orb.states[k], orb.times[k], orb.times[k + 1], g,
                orientation, self.CTRL)
            assert abs(t - t_ref) <= 1e-10
            assert abs(p[2] - 27.0) <= 1e-9
            npt.assert_allclose(p, p_ref, atol=1e-8)
            assert orientation * lorenz.eval(p)[2] > 0

    def test_crossings_continue_across_chunks(self, lorenz):
        # the orbit is integrated in 100-unit chunks, each restarted from
        # the last state of the one before; crossings in the second chunk
        # are timed from the end of the first
        first = integrate(lorenz, self.X0, 100.0, self.CTRL)
        gv = first.states[:, 2] - 27.0
        n_first = int(np.count_nonzero((gv[:-1] < 0.0) & (gv[1:] >= 0.0)))
        res = return_map(lorenz, self.section(1), self.X0, n_first + 2,
                         t_budget=200.0, step_ctrl=self.CTRL)
        second = integrate(lorenz, first.states[-1], 100.0, self.CTRL)
        gv = second.states[:, 2] - 27.0
        ks = np.flatnonzero((gv[:-1] < 0.0) & (gv[1:] >= 0.0))[:2]
        for k, t in zip(ks, res.times[n_first:]):
            t_ref, _ = _bisect_crossing_ref(
                lorenz, second.states[k], second.times[k],
                second.times[k + 1], lambda x: float(x[2] - 27.0), 1.0,
                self.CTRL)
            assert abs(t - (first.times[-1] + t_ref)) <= 1e-10

    def test_integrate_calls_per_crossing(self, lorenz, monkeypatch):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(lpf_mod, "integrate", counted)
        n = 20
        return_map(lorenz, self.section(-1), self.X0, n, step_ctrl=self.CTRL)
        assert calls[0] <= 8 * n

    def test_no_step_past_last_crossing(self, lorenz, monkeypatch):
        seen = []
        steps = lpf_mod.dp5_steps

        def recorded(*args, **kwargs):
            for t, y5 in steps(*args, **kwargs):
                seen.append(t)
                yield t, y5

        monkeypatch.setattr(lpf_mod, "dp5_steps", recorded)
        res = return_map(lorenz, self.section(1), self.X0, 6,
                         step_ctrl=self.CTRL)
        # all six crossings lie in the first 100-unit chunk, so the
        # recorded step times are the crossing times' own clock
        assert seen[-2] < res.times[-1] <= seen[-1]
