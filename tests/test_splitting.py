import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechyp.errors import SpectralGapFailure
from sechyp.flowcalc import integrate
from sechyp.models import conjugate_model, make_linear_saddle
from sechyp.splitting import (SplittingSequence, block_factors,
                              contraction_rate, domination_rate,
                              estimate_splitting, estimator_consistency,
                              window_splitting)
from sechyp.util import qr_pos, subspace_gap


def reference_restriction(factors, bases):
    """The restricted cocycle restated as three einsums over the blocks:
    the (K, d, d) coordinates of each pushed basis in the next one, and
    each block's relative leakage off the next basis."""
    w = np.einsum("kij,kjl->kil", factors, bases[:-1])
    coords = np.einsum("kji,kjl->kil", bases[1:], w)
    leak = w - np.einsum("kij,kjl->kil", bases[1:], coords)
    wn = np.linalg.norm(w, axis=(1, 2))
    defects = np.where(wn > 0,
                       np.linalg.norm(leak, axis=(1, 2)) / np.maximum(wn, 1e-300),
                       0.0)
    return coords, defects


@pytest.fixture(scope="module")
def hand_built_seq(saddle_orbit):
    """A sequence over the saddle's blocks in coordinate bases that are
    not its splitting: E^s = span{e3}, E^cu = span{e1, e2}."""
    grid, factors = block_factors(saddle_orbit, 3)
    e, k = np.eye(3), len(grid)
    return SplittingSequence(
        orbit=saddle_orbit, d_s=1, d_cu=2, grid=grid, factors=factors,
        Es=np.tile(e[:, [2]], (k, 1, 1)), Ecu=np.tile(e[:, [0, 1]], (k, 1, 1)),
        angles=np.full(k, np.pi / 2), gap_s=0.0, gap_cu=0.0)


class TestFormedOnce:
    @pytest.mark.parametrize("name", ["lorenz_seq_60", "saddle_seq",
                                      "suspension_seq", "hand_built_seq"])
    def test_restrictions_equal_the_reference(self, request, name):
        seq = request.getfixturevalue(name)
        for got, got_defects, bases in ((seq.Rs, seq.defect_s, seq.Es),
                                        (seq.Rcu, seq.defect_cu, seq.Ecu)):
            want, want_defects = reference_restriction(seq.factors, bases)
            assert got.shape == want.shape == (seq.n_blocks,) + bases.shape[2:] * 2
            assert got.tobytes() == want.tobytes()
            assert got_defects.tobytes() == want_defects.tobytes()

    def test_hand_built_defects_follow_its_bases(self, hand_built_seq):
        # e3 is invariant under the diagonal saddle flow, so no leakage;
        # the restricted factor is e^{-0.5 dt} per block
        assert hand_built_seq.defect_s.max() < 1e-12
        npt.assert_allclose(hand_built_seq.Rs[:, 0, 0],
                            np.exp(-0.5 * np.diff(hand_built_seq.times)),
                            rtol=1e-7)

    def test_block_factors_equal_each_blocks_propagator(self, lorenz):
        # 1014 blocks, formed in one window_products call: each is the
        # propagator over its block, bit for bit, on both sides of block 256
        orbit = integrate(lorenz, [1.0, 1.0, 1.0], 20.0)
        grid, factors = block_factors(orbit, 3)
        assert len(factors) == len(grid) - 1 > 256
        assert grid[-1] == orbit.n_steps
        for k in range(len(factors)):
            m, ls = orbit.propagator(grid[k], grid[k + 1])
            assert factors[k].tobytes() == (m * np.exp(ls)).tobytes(), k


class TestEstimate:
    def test_saddle_coordinate_splitting(self, saddle_seq):
        # eigs (2, -3, -0.5), d_s = 1: E^s = e2, E^cu = span{e1, e3}
        e = np.eye(3)
        for k in (0, len(saddle_seq) // 2, len(saddle_seq) - 1):
            assert subspace_gap(saddle_seq.Es[k], e[:, [1]]) < 1e-8
            assert subspace_gap(saddle_seq.Ecu[k], e[:, [0, 2]]) < 1e-8
        assert saddle_seq.defect_s.max() < 1e-12
        assert saddle_seq.defect_cu.max() < 1e-12

    def test_rotated_saddle_conjugates_splitting(self, saddle):
        rng = np.random.default_rng(54)
        q, _ = qr_pos(rng.standard_normal((3, 3)))
        mq = conjugate_model(saddle, q)
        orb = integrate(saddle, np.full(3, 1e-12), 20.0)
        orbq = integrate(mq, q @ np.full(3, 1e-12), 20.0)
        seq = estimate_splitting(orb, 1, 8.0)
        seqq = estimate_splitting(orbq, 1, 8.0)
        k = len(seq) // 2
        assert subspace_gap(q @ seq.Es[k], seqq.Es[k]) < 1e-8
        assert subspace_gap(q @ seq.Ecu[k], seqq.Ecu[k]) < 1e-8

    @settings(max_examples=10)
    @given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3), flip=st.booleans())
    def test_conjugated_saddle_splitting_is_rotated(self, saddle, angles, flip):
        # eigs (2, -3, -0.5), d_s = 1, conjugated by an orthogonal Q (Euler
        # angles, times a reflection when flip): E^s = Q e2 and
        # E^cu = Q span{e1, e3} at every kept checkpoint.  The sweeps start
        # from a fixed frame, so the checkpoints near the ends of the kept
        # range carry about e^{-2.5 warmup} times a Q-dependent overlap
        # constant: at warmup 8 that reaches 4e-8 for some Q, at warmup 12
        # about 4e-12
        a, b, c = angles
        rot_z = lambda t: np.array([[np.cos(t), -np.sin(t), 0.0],
                                    [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)],
                          [0.0, np.sin(b), np.cos(b)]])
        q = rot_z(a) @ rot_x @ rot_z(c) @ np.diag([1.0, 1.0, -1.0 if flip else 1.0])
        orb = integrate(conjugate_model(saddle, q), q @ np.full(3, 1e-24), 30.0)
        seq = estimate_splitting(orb, 1, 12.0)
        es, ecu = q[:, [1]], q[:, [0, 2]]
        for k in range(len(seq)):
            assert subspace_gap(seq.Es[k], es) < 1e-8
            assert subspace_gap(seq.Ecu[k], ecu) < 1e-8

    def test_conformal_cocycle_gap_failure(self):
        m = make_linear_saddle([1.0, 1.0, 1.0])
        orb = integrate(m, np.array([1e-6, 2e-6, -1e-6]), 10.0)
        with pytest.raises(SpectralGapFailure):
            estimate_splitting(orb, 1, 3.0)

    def test_orbit_too_short(self, saddle_orbit):
        with pytest.raises(ValueError):
            estimate_splitting(saddle_orbit, 1, saddle_orbit.t_span)

    def test_lorenz_flow_direction_in_ecu(self, lorenz_seq_60):
        # at every checkpoint the unit flow direction makes an angle below
        # 1e-3 with its projection onto E^cu
        seq = lorenz_seq_60
        v = seq.orbit.model.eval_batch(seq.orbit.states[seq.grid])
        v = (v / np.linalg.norm(v, axis=1)[:, None])[:, :, None]
        resid = v - seq.Ecu @ (seq.Ecu.swapaxes(1, 2) @ v)
        sines = np.minimum(1.0, np.linalg.norm(resid, axis=(1, 2)))
        assert np.max(np.arcsin(sines)) < 1e-3

    def test_lorenz_angle_bounded_away_from_zero(self, lorenz_seq_60):
        assert np.min(lorenz_seq_60.angles) > 0.05

    def test_basis_orthonormal(self, lorenz_seq_60):
        for k in (0, len(lorenz_seq_60) - 1):
            s = lorenz_seq_60.at(lorenz_seq_60.grid[0] * 0 + k)
            npt.assert_allclose(s.Es_basis.T @ s.Es_basis, np.eye(1),
                                atol=1e-12)
            npt.assert_allclose(s.Ecu_basis.T @ s.Ecu_basis, np.eye(2),
                                atol=1e-12)


class TestConsistency:
    def test_window_doubling(self, lorenz_orbit_60, lorenz_seq_60):
        # doubling the warmup changes the estimate by < 1e-4 in angle
        gap = estimator_consistency(lorenz_orbit_60, lorenz_seq_60,
                                    warmup=10.0, n_probes=3)
        assert gap < 1e-4

    def test_window_estimator_matches_sweep(self, lorenz_orbit_60,
                                            lorenz_seq_60):
        k = len(lorenz_seq_60) // 2
        gi = int(lorenz_seq_60.grid[k])
        win = window_splitting(lorenz_orbit_60, gi, 1, 10.0)
        sweep = lorenz_seq_60.at(k)
        assert subspace_gap(win.Es_basis, sweep.Es_basis) < 1e-6
        assert subspace_gap(win.Ecu_basis, sweep.Ecu_basis) < 1e-6

    def test_different_init_seed_converges(self, lorenz_orbit_60):
        a = estimate_splitting(lorenz_orbit_60, 1, 10.0, stride=4,
                               init_seed=101)
        b = estimate_splitting(lorenz_orbit_60, 1, 10.0, stride=4,
                               init_seed=202)
        k = len(a) // 2
        assert subspace_gap(a.Es[k], b.Es[k]) < 1e-8
        assert subspace_gap(a.Ecu[k], b.Ecu[k]) < 1e-8


class TestRates:
    def test_saddle_domination_slope(self, saddle_seq):
        # ||DX_t|e2|| * ||DX_{-t}|span{e1,e3}|| = e^{-3t} e^{0.5t}
        fit = domination_rate(saddle_seq)
        assert abs(fit.slope + 2.5) < 1e-6
        assert fit.passed

    def test_saddle_contraction_slope(self, saddle_seq):
        fit = contraction_rate(saddle_seq)
        assert abs(fit.slope + 3.0) < 1e-6
        assert fit.passed

    def test_weak_stable_direction_still_contracts(self, saddle_orbit):
        # wrongly selecting e3 as E^s gives the weaker rate -0.5
        from sechyp.splitting import SplittingSequence
        seq = estimate_splitting(saddle_orbit, 1, 8.0)
        e = np.eye(3)
        k = len(seq)
        wrong = SplittingSequence(
            orbit=seq.orbit, d_s=1, d_cu=2, grid=seq.grid,
            factors=seq.factors,
            Es=np.tile(e[:, [2]], (k, 1, 1)),
            Ecu=np.tile(e[:, [0, 1]], (k, 1, 1)),
            angles=seq.angles, gap_s=seq.gap_s, gap_cu=seq.gap_cu)
        fit = contraction_rate(wrong)
        assert abs(fit.slope + 0.5) < 1e-6

    def test_conformal_not_dominated(self):
        # identical eigenvalues: any coordinate split fits slope ~ 0 and
        # the verdict must be negative (no manufactured domination)
        from sechyp.splitting import SplittingSequence
        m = make_linear_saddle([1.0, 1.0, 1.0])
        orb = integrate(m, np.array([1e-6, 2e-6, -1e-6]), 10.0)
        e = np.eye(3)
        grid, factors = np.arange(0, orb.n_steps + 1, 2), None
        from sechyp.splitting import block_factors
        grid, factors = block_factors(orb, 2)
        k = grid.shape[0]
        seq = SplittingSequence(
            orbit=orb, d_s=1, d_cu=2, grid=grid, factors=factors,
            Es=np.tile(e[:, [0]], (k, 1, 1)),
            Ecu=np.tile(e[:, [1, 2]], (k, 1, 1)),
            angles=np.full(k, np.pi / 2), gap_s=0.0, gap_cu=0.0)
        fit = domination_rate(seq)
        assert abs(fit.slope) < 1e-6
        assert not fit.passed

    def test_lorenz_rates_reference_bands(self, lorenz_seq_60):
        # regression baselines measured on the reference configuration:
        # domination -14.60, contraction -14.57 over spans [1, 10]
        spans = np.linspace(1.0, 10.0, 6)
        dom = domination_rate(lorenz_seq_60, spans=spans)
        con = contraction_rate(lorenz_seq_60, spans=spans)
        assert dom.slope < -0.3 and -16.0 < dom.slope < -13.0
        assert con.slope < -5.0 and -16.0 < con.slope < -13.0

    def test_linear_rates_match_eigen_gaps(self):
        # singular-value characterization on a second linear model
        m = make_linear_saddle([1.5, -1.0, -4.0])
        orb = integrate(m, np.full(3, 1e-12), 18.0)
        seq = estimate_splitting(orb, 1, 7.0)
        assert abs(contraction_rate(seq).slope + 4.0) < 1e-6
        assert abs(domination_rate(seq).slope + 3.0) < 1e-6  # -4 - (-1)
