import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from sechyp import hyperbolicity
from sechyp.errors import NotAnEquilibrium, NotPeriodic
from sechyp.flowcalc import StepControl, dp5_steps, integrate
from sechyp.hyperbolicity import (FunctionalResult, ash_functional,
                                  classify_singularity, mnuse_functional,
                                  msh_estimate, nne_functional,
                                  nuse_functional, nush_periodic_check,
                                  sectional_expansion_functional,
                                  volume_expansion_functional)
from sechyp.lpf import lpf_along
from sechyp.models import (SuspensionModel, conjugate_model,
                           make_linear_field, make_linear_saddle)
from sechyp.splitting import estimate_splitting
from sechyp.util import log_norms, qr_pos, window_products


@pytest.fixture(scope="module")
def saddle4():
    return make_linear_saddle([3.0, 1.0, -1.0, -5.0])


@pytest.fixture(scope="module")
def saddle4_seq(saddle4):
    orb = integrate(saddle4, np.full(4, 1e-12), 8.0)
    return estimate_splitting(orb, d_s=1, warmup=2.5)


class TestClassify:
    def test_lorenz_origin_exact_eigenvalues(self, lorenz):
        # closed form: the (x, y) block has trace -11 and det -(sigma
        # (rho - 1)) giving (-11 +- sqrt(1201))/2; the z direction
        # decouples with -beta
        sa = classify_singularity(lorenz, np.zeros(3), arc_budget=20.0)
        want = np.sort([(-11.0 - np.sqrt(1201.0)) / 2.0, -8.0 / 3.0,
                        (-11.0 + np.sqrt(1201.0)) / 2.0])
        npt.assert_allclose(sa.eigenvalues.real, want, atol=1e-8)
        npt.assert_allclose(sa.eigenvalues.imag, 0.0, atol=1e-10)
        assert sa.lorenz_like
        assert sa.splitting_dims == (1, 1, 1)
        assert sa.is_hyperbolic
        assert sa.index == 2

    def test_lorenz_origin_against_polyroot_oracle(self, lorenz):
        # independent oracle: characteristic polynomial roots via the
        # companion matrix of the coefficient vector
        j = lorenz.jacobian(np.zeros(3))
        coeffs = np.poly(j)
        roots = np.sort(np.roots(coeffs).real)
        sa = classify_singularity(lorenz, np.zeros(3), arc_budget=20.0)
        npt.assert_allclose(np.sort(sa.eigenvalues.real), roots, atol=1e-8)

    def test_wing_equilibria_not_lorenz_like(self, lorenz):
        for s in lorenz.singularities[1:]:
            sa = classify_singularity(lorenz, s, arc_budget=20.0)
            pair = sa.eigenvalues[np.abs(sa.eigenvalues.imag) > 1e-8]
            assert len(pair) == 2
            assert np.all(pair.real > 0)
            assert not sa.lorenz_like
            assert sa.is_hyperbolic

    def test_planar_saddle_not_lorenz_like(self):
        m = make_linear_saddle([1.0, -2.0])
        sa = classify_singularity(m, np.zeros(2), arc_budget=5.0)
        assert sa.is_hyperbolic and not sa.lorenz_like

    def test_not_an_equilibrium(self, lorenz):
        with pytest.raises(NotAnEquilibrium):
            classify_singularity(lorenz, np.array([3.0, 9.0, 14.0]))

    def test_orthogonal_conjugation_invariance(self, lorenz):
        q, _ = qr_pos(np.random.default_rng(6).standard_normal((3, 3)))
        lzq = conjugate_model(lorenz, q)
        a = classify_singularity(lorenz, np.zeros(3), arc_budget=5.0)
        b = classify_singularity(lzq, np.zeros(3), arc_budget=5.0)
        npt.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)
        assert a.lorenz_like == b.lorenz_like
        assert a.splitting_dims == b.splitting_dims

    def test_unstable_side_of_origin_is_active(self, lorenz):
        # the unstable branch stays inside the trapping box, so the
        # unstable half of the active condition is decidable; the stable
        # probes exit the box and the verdict stays undetermined
        sa = classify_singularity(lorenz, np.zeros(3), arc_budget=100.0)
        assert sa.active in ("undetermined", "yes")


    def test_box_stop_keeps_every_probe_verdict(self, lorenz, monkeypatch):
        # activity probes stop at the norm of the trapping box's farthest
        # corner; forcing the default 1e6 blowup bound back must give the
        # same verdict on every real eigendirection, in both signs
        ctrl = StepControl(rtol=1e-7)
        steps = [0]

        def counted(model, x0, t_span, step_ctrl=None, tangent=True):
            for step in dp5_steps(model, x0, t_span, step_ctrl, tangent):
                steps[0] += 1
                yield step

        def unbounded(model, x0, t_span, step_ctrl=None, tangent=True):
            return counted(model, x0, t_span,
                           dataclasses.replace(step_ctrl, bound=1e6), tangent)

        saddle = make_linear_saddle([2.0, -3.0, -0.5])
        cases = [(lorenz, s) for s in lorenz.singularities]
        cases.append((saddle, np.zeros(3)))
        backward_lorenz = []
        for model, sigma in cases:
            box = np.asarray(model.trapping_region, dtype=float)
            ball = 0.05 * float(np.max(box[:, 1] - box[:, 0]))
            eigs, vecs = np.linalg.eig(model.jacobian(sigma))
            for i in np.where(np.abs(eigs.imag) <= 1e-10)[0]:
                v = np.real(vecs[:, i]) / np.linalg.norm(np.real(vecs[:, i]))
                forward = eigs[i].real > 0
                for direction in (v, -v):
                    got = []
                    for fn in (counted, unbounded):
                        monkeypatch.setattr(hyperbolicity, "dp5_steps", fn)
                        steps[0] = 0
                        got.append((hyperbolicity._grow_manifold(
                            model, sigma, direction, forward, box, ball,
                            200.0, ctrl), steps[0]))
                    assert got[0][0] == got[1][0]
                    assert got[0][1] > 0 and got[1][1] > 0
                    if model is lorenz and not forward:
                        backward_lorenz.append((got[0][1], got[1][1]))
        # a wing equilibrium's backward probe stops after a few steps
        # instead of running on until the state norm reaches 1e6
        assert any(10 * new <= old for new, old in backward_lorenz)


class TestSectionalVolume:
    def test_single_plane_linear(self):
        m = make_linear_saddle([2.0, 1.0, -5.0])
        orb = integrate(m, np.full(3, 1e-12), 8.0)
        seq = estimate_splitting(orb, 1, 2.5)
        sec = sectional_expansion_functional(seq, 2.0)
        assert abs(sec.rate - 3.0) < 1e-6
        assert abs(sec.min_rate - 3.0) < 1e-6

    def test_volume_vs_sectional_4d(self, saddle4_seq):
        # (3, 1, -1): volume rate 3 but the (e2, e3) plane is neutral,
        # so volume expansion holds while sectional expansion fails
        vol = volume_expansion_functional(saddle4_seq, 2.0)
        sec = sectional_expansion_functional(saddle4_seq, 2.0)
        assert abs(vol.rate - 3.0) < 1e-6
        assert abs(sec.min_rate) < 1e-6
        assert sec.min_rate < 1e-3

    def test_grid_min_never_below_exact(self, saddle4_seq):
        # a sampled grid of 2-planes, every coordinate pair plus seeded
        # generic frames, cannot undercut the exact bottom singular pair
        from sechyp.util import log_svals, qr_pos, scaled_product
        m, ls = scaled_product(saddle4_seq.Rcu, 0, 40)
        planes = [np.eye(3)[:, [a, b]] for a in range(3) for b in range(a + 1, 3)]
        rng = np.random.default_rng(40813)
        planes += [qr_pos(rng.standard_normal((3, 2)))[0] for _ in range(61)]
        grid_only = min(
            float(np.sum(np.log(np.linalg.svd(m @ p, compute_uv=False)[:2]))
                  + 2 * ls)
            for p in planes)
        lsv = log_svals(m[None])[0]
        exact = lsv[-1] + lsv[-2] + 2 * ls
        s = np.linalg.svd(m, compute_uv=False)
        assert exact == np.log(s[-1]) + np.log(s[-2]) + 2 * ls
        assert grid_only >= exact - 1e-9

    def test_lorenz_sectional_band(self, lorenz_seq_60):
        sec = sectional_expansion_functional(lorenz_seq_60, 20.0)
        assert abs(sec.rate - 0.9) < 0.1

    def test_lorenz_volume_equals_sectional_2d(self, lorenz_seq_60):
        sec = sectional_expansion_functional(lorenz_seq_60, 20.0)
        vol = volume_expansion_functional(lorenz_seq_60, 20.0)
        assert abs(sec.rate - vol.rate) < 1e-9


class TestAsymptotic:
    def test_linear_rate_all_horizons(self):
        m = make_linear_saddle([2.0, 1.0, -5.0])
        orb = integrate(m, np.full(3, 1e-12), 8.0)
        seq = estimate_splitting(orb, 1, 2.5)
        assert abs(ash_functional(seq) - 3.0) < 1e-6

    def test_lorenz_positive(self, lorenz_seq_60):
        assert ash_functional(lorenz_seq_60) > 1e-3


class TestMnuseNuse:
    def test_identity_dynamics_rate_zero(self, saddle4_seq):
        # E^cu spanned by (3, 1, -1): the smallest pairwise sum is 0,
        # so the inverse compound norm does not decay
        assert abs(mnuse_functional(saddle4_seq, 1.0, n_samples=40)) < 1e-6

    def test_lorenz_mnuse_band(self, lorenz_seq_60):
        rate = mnuse_functional(lorenz_seq_60, 1.0)
        assert abs(rate + 0.9) < 0.1

    def test_lorenz_nuse_band(self, lorenz_orbit_60, lorenz_seq_60):
        lp = lpf_along(lorenz_orbit_60)
        rate = nuse_functional(lp, lorenz_seq_60, 1.0)
        assert abs(rate + 0.9) < 0.1

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 3.7])
    def test_nuse_over_blocks_matches_per_step_products(self, lorenz_orbit_60,
                                                        lorenz_seq_60, tau):
        # the windows composed from the block factors against the same
        # windows composed step by step from the per-step LPF factors:
        # only the grouping of the products differs
        lp = lpf_along(lorenz_orbit_60)
        seq = lorenz_seq_60
        ka, kb = hyperbolicity._nuse_windows(seq, tau)
        p, ls = window_products(lp.lpf_factors, seq.grid[ka], seq.grid[kb])
        frames = lp.frames_at(seq.grid)
        u, _, _ = np.linalg.svd(frames.transpose(0, 2, 1) @ seq.Ecu,
                                full_matrices=False)
        u = u[:, :, :seq.d_cu - 1]
        logs = log_norms(u[kb].transpose(0, 2, 1) @ (p @ u[ka]), ls, inverse=True)
        ref = np.sum(logs) / np.sum(seq.times[kb] - seq.times[ka])
        rate = nuse_functional(lp, seq, tau)
        assert abs(rate - ref) <= 1e-14 * abs(ref)

    def test_nuse_matches_top_exponent(self, lorenz):
        # |lambda_top - (-nuse rate)| < 0.05: cross-module consistency;
        # both statistics need a long shared window to settle that close
        from sechyp.flowcalc import StepControl
        from sechyp.measures import benettin_spectrum
        orb = integrate(lorenz, [1.0, 1.0, 1.0], 220.0,
                        StepControl(rtol=1e-7, atol=1e-10))
        seq = estimate_splitting(orb, 1, 10.0, stride=4)
        lp = lpf_along(orb)
        rate = nuse_functional(lp, seq, 1.0)
        spec = benettin_spectrum(orb, 1, warmup=10.0)
        assert abs(spec.exponents[0] + rate) < 0.05

    def test_tau_scaling_linear_model(self, saddle):
        # per-unit-time rate must be tau-independent on linear models;
        # the orbit starts away from the origin so the flow speed stays
        # above the linear-Poincare cutoff
        orb = integrate(saddle, np.full(3, 1e-6), 12.0)
        seq = estimate_splitting(orb, 1, 4.0)
        lp = lpf_along(orb)
        rates = [nuse_functional(lp, seq, tau) for tau in (0.5, 1.0, 2.0)]
        assert abs(rates[0] - rates[1]) < 1e-8
        assert abs(rates[1] - rates[2]) < 1e-8

    def test_extension_independence(self, lorenz_orbit_60):
        # independently estimated center-unstable extensions (different
        # generic init frames) leave the functional unchanged
        a = estimate_splitting(lorenz_orbit_60, 1, 10.0, stride=4,
                               init_seed=303)
        b = estimate_splitting(lorenz_orbit_60, 1, 10.0, stride=4,
                               init_seed=404)
        ra = mnuse_functional(a, 1.0)
        rb = mnuse_functional(b, 1.0)
        assert abs(ra - rb) < 1e-6


class TestNNE:
    # the tail-rate proxy converges like O(log c / T), so the linear
    # examples need windows long enough to amortize alignment constants

    def test_nonnegative_tail_rates_pass(self):
        m = make_linear_saddle([2.0, 0.5, -5.0])
        orb = integrate(m, np.full(3, 1e-12), 18.0)
        seq = estimate_splitting(orb, 1, 3.0)
        res = nne_functional(seq)
        assert res.min_rate >= -1e-3

    def test_negative_direction_fails(self):
        m = make_linear_saddle([2.0, -0.5, -5.0])
        orb = integrate(m, np.full(3, 1e-12), 18.0)
        seq = estimate_splitting(orb, 1, 3.0)
        res = nne_functional(seq)
        assert res.min_rate < -1e-3

    def test_lorenz_passes(self, lorenz_seq_60):
        res = nne_functional(lorenz_seq_60)
        assert res.min_rate >= -1e-3

    @pytest.mark.parametrize("which", ["lorenz_seq_60", "suspension_seq"])
    def test_stacked_directions_equal_per_direction_loop(self, which, request):
        seq = request.getfixturevalue(which)
        assert nne_functional(seq) == _nne_reference(seq)


def _nne_reference(seq, n_dirs=8, flow_cone=1e-2, seed=90117):
    """nne_functional as a loop over directions, each pushed one matvec
    per block, with a per-checkpoint model.eval for the flow direction."""
    model = seq.orbit.model
    suspension = isinstance(model, SuspensionModel)
    rng = np.random.default_rng(seed)
    times = seq.times
    dirs = np.empty((seq.n_blocks + 1, seq.orbit.states.shape[1]))
    for k in range(seq.n_blocks + 1):
        x = seq.orbit.states[seq.grid[k]]
        v = np.array([0.0, 0.0, 1.0]) if suspension else model.eval(x)
        dirs[k] = v / np.linalg.norm(v)
    results = []
    tried = 0
    while len(results) < n_dirs and tried < 10 * n_dirs:
        tried += 1
        coords = rng.standard_normal(seq.d_cu)
        v = seq.Ecu[0] @ (coords / np.linalg.norm(coords))
        if np.arccos(np.clip(abs(v @ dirs[0]), 0, 1)) <= flow_cone:
            continue
        log_norm = 0.0
        w = v.copy()
        rates = []
        for k in range(seq.n_blocks):
            w = seq.factors[k] @ w
            nw = np.linalg.norm(w)
            log_norm += np.log(nw)
            w = w / nw
            t_el = times[k + 1] - times[0]
            sin_t = np.sqrt(max(0.0, 1.0 - float(w @ dirs[k + 1]) ** 2))
            if sin_t <= 0 or t_el <= 0:
                continue
            rates.append((log_norm + np.log(sin_t)) / t_el)
        results.append(float(np.min(rates[len(rates) // 2:])))
    arr = np.asarray(results)
    return FunctionalResult(float(arr.mean()), float(arr.min()),
                            float(arr.max()), float(times[-1] - times[0]),
                            len(arr))


class TestMsh:
    def test_lorenz_msh_lpf_fits_decay(self, lorenz_orbit_60, lorenz_seq_60):
        # the reference orbit never enters radius-1.5 balls around the
        # equilibria, so every window start qualifies
        lp = lpf_along(lorenz_orbit_60)
        res = msh_estimate(lp, lorenz_seq_60, radius=1.5, avoid_window=5.0)
        # away from the singular balls the restricted flows decay
        assert res.ns_slope <= -1e-3
        assert res.nu_slope <= -1e-3


class TestPeriodic:
    def test_equilibrium_clause_lorenz_origin(self, lorenz):
        res = nush_periodic_check(lorenz, np.zeros(3), 1.0, tau=1.0, d_s=1)
        lam_s = (-11.0 - np.sqrt(1201.0)) / 2.0
        lam_u = (-11.0 + np.sqrt(1201.0)) / 2.0
        npt.assert_allclose(res.e_average, lam_s, atol=1e-6)
        npt.assert_allclose(res.wedge_average, -(lam_u - 8.0 / 3.0), atol=1e-6)
        assert res.passed

    def test_circular_orbit_closes_and_fails_wedge(self):
        # every orbit of the planar rotation is 2 pi periodic; the area
        # along the rotation plane is preserved so the wedge average is
        # zero and the orbit is not nonuniformly sectional hyperbolic
        circ = make_linear_field([[0.0, -1.0, 0.0],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 0.0, -1.0]], name="circular")
        res = nush_periodic_check(circ, [1.05, 0.0, 0.02], 6.0,
                                  tau=1.0, d_s=1)
        npt.assert_allclose(res.period, 2 * np.pi, rtol=1e-8)
        assert res.residual < 1e-10
        npt.assert_allclose(res.e_average, -1.0, atol=1e-6)
        assert abs(res.wedge_average) < 1e-6
        assert not res.passed

    def test_shooting_failure(self, lorenz):
        with pytest.raises(NotPeriodic):
            nush_periodic_check(lorenz, np.array([30.0, -40.0, 80.0]), 0.3,
                                tau=0.5, max_iter=8)

    def test_tiny_period_that_never_leaves_its_start_is_not_periodic(self, lorenz):
        # over 1e-13 the orbit moves far less than the shooting residual,
        # so it closes whatever its start: no periodic orbit is shown
        with pytest.raises(NotPeriodic, match="stays within 1e-07 of its start"):
            nush_periodic_check(lorenz, np.array([1.0, 2.0, 20.0]), 1e-13)

    def test_shooting_failure_work_is_bounded(self, lorenz, monkeypatch):
        # the trust region on the period keeps a failing shooting from
        # growing the period (and the integration length) without bound
        steps = [0]

        def counted(model, x0, t_span, step_ctrl=None):
            orb = integrate(model, x0, t_span, step_ctrl)
            steps[0] += orb.n_steps
            return orb

        monkeypatch.setattr(hyperbolicity, "integrate", counted)
        with pytest.raises(NotPeriodic):
            nush_periodic_check(lorenz, np.array([30.0, -40.0, 80.0]), 0.3,
                                tau=0.5, max_iter=8)
        assert 0 < steps[0] <= 10_000
