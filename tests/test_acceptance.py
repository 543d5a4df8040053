"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION line (visible with `pytest -s`)
after all of its assertions pass, so a full run doubles as the
sign-off checklist.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import numpy.testing as npt

from sechyp.flowcalc import (StepControl, integrate, orbit_to_csv, wedge2_of)
from sechyp.hyperbolicity import classify_singularity
from sechyp.lpf import direct_lpf_factor, lpf_along
from sechyp.measures import (benettin_spectrum, birkhoff_map, ks_statistic,
                             map_pushforward, pesin_check_1d, uniform_cdf)
from sechyp.models import conjugate_model, make_linear_saddle
from sechyp.report import assemble_report
from sechyp.splitting import estimate_splitting
from sechyp.suspension import run_section_streams, sectional_rate_stream
from sechyp.util import qr_pos, scaled_product, subspace_gap


def report_line(num, text):
    print(f"\nCRITERION {num}: PASS - {text}")


def verdict_map(report):
    return {c["condition"]: c for c in report["conditions"]}


def test_criterion_01_cocycle_algebra(lorenz, lorenz_orbit):
    rng = np.random.default_rng(101)
    n = lorenz_orbit.n_steps

    # flow cocycle composition over random split points
    for _ in range(100):
        a, b, c = sorted(rng.integers(0, n, 3))
        if a == b or b == c:
            continue
        m_ab, s_ab = lorenz_orbit.propagator(a, b)
        m_bc, s_bc = lorenz_orbit.propagator(b, c)
        m_ac, s_ac = lorenz_orbit.propagator(a, c)
        lhs = (m_bc @ m_ab) * np.exp(s_ab + s_bc)
        rhs = m_ac * np.exp(s_ac)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6
    # and against restarted integrations (independent route)
    for _ in range(8):
        i = int(rng.integers(0, n // 2))
        span = float(rng.uniform(1.0, 8.0))
        j = lorenz_orbit.index_at(lorenz_orbit.times[i] + span)
        fresh = integrate(lorenz, lorenz_orbit.states[i],
                          lorenz_orbit.times[j] - lorenz_orbit.times[i])
        m1, s1 = lorenz_orbit.propagator(i, j)
        m2, s2 = fresh.propagator(0, fresh.n_steps)
        err = np.linalg.norm(m1 * np.exp(s1) - m2 * np.exp(s2))
        assert err / np.linalg.norm(m2 * np.exp(s2)) < 1e-6

    # linear Poincare flow cocycle relation
    lp = lpf_along(lorenz_orbit)
    for _ in range(100):
        i = int(rng.integers(0, n - 300))
        j = lorenz_orbit.index_at(lorenz_orbit.times[i]
                                  + float(rng.uniform(0.5, 8.0)))
        m1, s1 = lp.propagator(i, j)
        m2, s2 = direct_lpf_factor(lp, i, j)
        err = np.linalg.norm(m1 * np.exp(s1) - m2 * np.exp(s2))
        assert err / np.linalg.norm(m2 * np.exp(s2)) < 1e-6

    # wedge multiplicativity and the compound determinant identity
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        lhs = wedge2_of(a @ b)
        rhs = wedge2_of(a) @ wedge2_of(b)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        lhs = np.linalg.det(wedge2_of(m))
        rhs = np.linalg.det(m) ** 2
        assert abs(lhs - rhs) / max(abs(rhs), 1e-12) < 1e-10

    report_line(1, "cocycle algebra (composition, LPF relation, wedge) "
                   "within 1e-6 on randomized cases")


def test_criterion_02_lorenz_classification(lorenz):
    sa0 = classify_singularity(lorenz, np.zeros(3), arc_budget=20.0)
    want = np.sort([(-11.0 - np.sqrt(1201.0)) / 2.0, -8.0 / 3.0,
                    (-11.0 + np.sqrt(1201.0)) / 2.0])
    npt.assert_allclose(sa0.eigenvalues.real, want, atol=1e-8)
    npt.assert_allclose(sa0.eigenvalues.imag, 0.0, atol=1e-10)
    assert sa0.lorenz_like
    # independent characteristic-polynomial oracle
    roots = np.sort(np.roots(np.poly(lorenz.jacobian(np.zeros(3)))).real)
    npt.assert_allclose(np.sort(sa0.eigenvalues.real), roots, atol=1e-8)

    for s in lorenz.singularities[1:]:
        sa = classify_singularity(lorenz, s, arc_budget=20.0)
        pair = sa.eigenvalues[np.abs(sa.eigenvalues.imag) > 1e-8]
        assert len(pair) == 2 and np.all(pair.real > 0)
        assert not sa.lorenz_like
    report_line(2, "origin eigenvalues {(-11 +- sqrt(1201))/2, -8/3} to 1e-8,"
                   " lorenz-like flags correct on all three equilibria")


def test_criterion_03_liouville_spectrum(lorenz):
    orb = integrate(lorenz, [1.0, 1.0, 1.0], 2000.0,
                    StepControl(rtol=1e-8, atol=1e-11))
    est = benettin_spectrum(orb, 3, warmup=20.0)
    total = float(np.sum(est.exponents))
    assert abs(total + 41.0 / 3.0) < 0.05
    assert abs(est.exponents[1]) <= 0.01
    assert 0.85 <= est.exponents[0] <= 0.95
    report_line(3, f"exponent sum {total:+.4f} vs -41/3, "
                   f"middle {est.exponents[1]:+.4f}, "
                   f"top {est.exponents[0]:.4f} in [0.85, 0.95]")


def test_criterion_04_compound_determinant_identity(lorenz_seq_60, saddle_seq):
    # for a two-dimensional center-unstable bundle the inverse-compound
    # log norm is exactly minus the log determinant over the same window
    for seq, windows in ((lorenz_seq_60, (10, 50, 160)),
                         (saddle_seq, (5, 20, 60))):
        for i0 in (0, len(seq) // 3):
            for span in windows:
                if i0 + span >= seq.n_blocks:
                    continue
                m, ls = scaled_product(seq.Rcu, i0, i0 + span)
                w = wedge2_of(m) if m.shape[0] > 1 else m
                inv_norm = -(np.log(np.linalg.svd(w, compute_uv=False)[-1])
                             + 2 * ls)
                _, logdet = np.linalg.slogdet(m)
                logdet += 2 * ls
                assert abs(inv_norm + logdet) <= 1e-9 * max(1.0, abs(logdet))
    report_line(4, "mnuse rate = -volume rate to 1e-9 on Lorenz and the "
                   "linear saddle (matched windows)")


def test_criterion_05_uniform_implies_nonuniform_lorenz(lorenz):
    cfg = {
        "conditions": ["SH", "MNUSE"],
        "seed": 20250808,
        "ensemble": {"size": 100, "transient": 20.0},
        "windows": {"T": 100.0, "tau": 1.0, "sect_window": 25.0},
        "thresholds": {"eta": -0.05},
        "tolerances": {"rtol": 1e-7, "atol": 1e-10},
        "splitting": {"d_s": 1, "warmup": 10.0, "stride": 4},
    }
    report = assemble_report(lorenz, cfg)
    v = verdict_map(report)
    assert v["SH"]["verdict"] == "pass"
    assert v["MNUSE"]["verdict"] == "pass"
    assert v["MNUSE"]["fraction"] >= 0.95
    assert v["MNUSE"]["rate"] <= -0.5
    report_line(5, f"Lorenz N=100, T=100: SH pass and MNUSE pass with "
                   f"fraction {v['MNUSE']['fraction']:.2f} >= 0.95, "
                   f"eta_hat {v['MNUSE']['rate']:+.3f} <= -0.5")


def test_criterion_06_nonsectional_shadow(intermittent_suspension):
    cfg = {
        "conditions": ["SH", "MSH-estimate", "ASH", "MNUSE"],
        "seed": 20250808,
        "ensemble": {"size": 200, "ph_sample": 4},
        "windows": {"n_returns": 10000, "tau": 1.0},
        "thresholds": {"eta": -0.05},
    }
    report = assemble_report(intermittent_suspension, cfg)
    v = verdict_map(report)
    assert v["SH"]["verdict"] == "fail"
    assert v["MSH-estimate"]["verdict"] == "fail"
    assert v["ASH"]["verdict"] == "pass"
    assert v["MNUSE"]["verdict"] == "pass"
    assert v["MNUSE"]["fraction"] >= 0.9

    # the neutral boundary orbits carry window rates within 1e-3 of 0
    probes = run_section_streams(intermittent_suspension,
                                 [[1.0, 2.0 / 3.0], [-1.0, -2.0 / 3.0]], 2000)
    for b in (0, 1):
        mean_r, min_r, max_r = sectional_rate_stream(probes, b, 100.0)
        assert abs(mean_r) < 1e-3 and abs(min_r) < 1e-3 and abs(max_r) < 1e-3
    report_line(6, f"intermittent suspension N=200, n=10^4: SH fail "
                   f"(neutral rates ~ 0), MSH fail, ASH pass, MNUSE pass "
                   f"with fraction {v['MNUSE']['fraction']:.2f} >= 0.9")


def test_criterion_07_quotient_statistics(intermittent_map):
    rng = np.random.default_rng(11)
    pushed = map_pushforward(intermittent_map, rng.uniform(-1, 1, 10 ** 6))
    ks = ks_statistic(pushed, uniform_cdf(-1, 1))
    assert ks < 0.002

    obs = lambda x: np.log(abs(intermittent_map.derivative(x)))
    x0 = float(np.random.default_rng(12345).uniform(-1, 1))
    bs = birkhoff_map(intermittent_map, obs, x0, 10 ** 6)
    assert 0.46 <= bs.final <= 0.54

    neutral = birkhoff_map(intermittent_map, obs, 1.0, 10 ** 4)
    assert neutral.final == 0.0
    report_line(7, f"Lebesgue invariance KS {ks:.5f} < 0.002 at N=10^6; "
                   f"log-derivative average {bs.final:.4f} in [0.46, 0.54]; "
                   f"neutral seed exactly 0")


def test_criterion_08_pesin_chain(intermittent_map, intermittent_suspension):
    rep = pesin_check_1d(intermittent_map, intermittent_suspension, n=10 ** 5)
    assert abs(rep.quotient - 0.25) <= 0.05
    assert rep.flow_side >= rep.quotient - 0.05
    assert rep.chain_ok
    report_line(8, f"entropy chain: h/mean_roof = {rep.quotient:.4f} "
                   f"(0.25 +- 0.05), flow side {rep.flow_side:.4f} >= "
                   f"quotient - 0.05")


def test_criterion_09_volume_vs_sectional_arithmetic():
    model = make_linear_saddle([3.0, 1.0, -1.0, -5.0])
    cfg = {
        "conditions": ["SingularHyp", "SH", "MNUSE"],
        "seed": 5,
        "ensemble": {"size": 4, "transient": 0.0,
                     "box": [[-1e-12, 1e-12]] * 4},
        "windows": {"T": 6.0, "tau": 1.0, "sect_window": 2.0},
        "thresholds": {"eta": -0.05},
        "tolerances": {"rtol": 1e-9, "atol": 1e-14},
        "splitting": {"d_s": 1, "warmup": 3.0, "stride": 2},
    }
    report = assemble_report(model, cfg)
    v = verdict_map(report)
    assert v["SingularHyp"]["verdict"] == "pass"
    assert abs(v["SingularHyp"]["rate"] - 3.0) < 1e-6   # 3 + 1 - 1
    assert v["SH"]["verdict"] == "fail"
    assert abs(v["SH"]["rate"]) < 1e-6                  # min pair 1 + (-1)
    assert v["MNUSE"]["verdict"] == "fail"
    assert abs(v["MNUSE"]["rate"]) < 1e-6
    report_line(9, "eigs (3,1,-1,-5): SingularHyp pass at rate 3, SH and "
                   "MNUSE fail at rate 0, exactly the pairwise sums")


def test_criterion_10_determinism_and_equivariance(lorenz, saddle, tmp_path):
    # bit-identical reruns
    a = integrate(lorenz, [1.0, 1.0, 1.0], 5.0)
    b = integrate(lorenz, [1.0, 1.0, 1.0], 5.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.step_cocycles, b.step_cocycles)
    orbit_to_csv(a, tmp_path / "a.csv")
    orbit_to_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # orthogonal-conjugation equivariance of splittings and classifiers
    q, _ = qr_pos(np.random.default_rng(54).standard_normal((3, 3)))
    mq = conjugate_model(saddle, q)
    orb = integrate(saddle, np.full(3, 1e-12), 20.0)
    orbq = integrate(mq, q @ np.full(3, 1e-12), 20.0)
    seq = estimate_splitting(orb, 1, 8.0)
    seqq = estimate_splitting(orbq, 1, 8.0)
    k = len(seq) // 2
    assert subspace_gap(q @ seq.Es[k], seqq.Es[k]) < 1e-8
    assert subspace_gap(q @ seq.Ecu[k], seqq.Ecu[k]) < 1e-8

    lzq = conjugate_model(lorenz, q)
    sa = classify_singularity(lorenz, np.zeros(3), arc_budget=5.0)
    saq = classify_singularity(lzq, np.zeros(3), arc_budget=5.0)
    npt.assert_allclose(sa.eigenvalues, saq.eigenvalues, atol=1e-8)
    assert sa.lorenz_like == saq.lorenz_like
    report_line(10, "byte-identical reruns; splitting and classifier "
                    "equivariance under orthogonal conjugation to 1e-8")
