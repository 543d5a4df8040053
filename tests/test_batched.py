"""Property tests: each model's batched forms against its scalar forms,
map_pushforward's handling of singular points, stacked linear algebra
(QR, principal angles, member-stacked splitting sweeps and a batch's
LPF blocks) and the batched Dormand-Prince run against one call per
matrix or member, and the ensemble report against its serial member
loop."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sechyp import config, hyperbolicity, lpf, report, splitting, util
from sechyp.errors import (Blowup, ConfigError, NearSingularity, NonFiniteBlock,
                           SingularBlock, SingularPoint, SpectralGapFailure,
                           StiffnessFailure, WarmupExceedsOrbit)
from sechyp.flowcalc import StepControl, batch_rk4, integrate, integrate_batch
from sechyp.lpf import lpf_along
from sechyp.measures import map_pushforward
from sechyp.models import (conjugate_model, make_expanding_lorenz_map,
                           make_geometric_lorenz_suspension,
                           make_intermittent_lorenz_map, make_linear_field,
                           make_linear_saddle, make_lorenz,
                           polynomial_field_from_table)
from sechyp.splitting import block_factors, estimate_splitting, splittings_of_blocks
from sechyp.suspension import suspension_orbit
from sechyp.util import principal_angles, qr_pos

INTERVAL_MAPS = [make_intermittent_lorenz_map(), make_expanding_lorenz_map()]


def signed_values(top):
    """Floats in [-top, top] with magnitudes down to 1e-300; +-1 and the
    smallest magnitudes are drawn on purpose."""
    spread = st.builds(lambda m, e: m * 10.0 ** e,
                       st.floats(-top, top), st.integers(-300, 0))
    return st.sampled_from([1.0, -1.0, 1e-300, -1e-300]) | spread


def states(n, top=60.0):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(n)),
                      elements=signed_values(top))


def rows_of(model, x):
    return np.array([model.eval(row) for row in x])


def assert_bit_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_within(batch, rows, scale, rel=1e-12):
    """|batch - rows| <= rel * scale elementwise, where scale bounds the
    magnitude of the terms summed into each entry."""
    assert batch.shape == rows.shape
    assert np.all(np.abs(batch - rows) <= rel * scale)


@st.composite
def lorenz_cases(draw):
    sigma = draw(st.floats(0.1, 20.0))
    rho = draw(st.floats(0.0, 50.0))
    beta = draw(st.floats(0.1, 5.0))
    return make_lorenz(sigma, rho, beta), draw(states(3))


@st.composite
def polynomial_cases(draw):
    n = draw(st.integers(1, 3))
    monomial = st.fixed_dictionaries({
        "exponents": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        "coeff": st.floats(-10.0, 10.0),
    })
    comps = [draw(st.lists(monomial, max_size=4)) for _ in range(n)]
    model = polynomial_field_from_table({"dim": n, "components": comps})
    return model, draw(states(n, top=10.0))


@st.composite
def orthogonal(draw, n):
    g = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    q, _ = np.linalg.qr(g + 2.0 * np.eye(n))
    return q


@given(lorenz_cases())
def test_lorenz_batch_is_bit_equal(case):
    model, x = case
    assert_bit_equal(model.eval_batch(x), rows_of(model, x))


# at 0.1 and 7.7 numpy's array power x ** 2.0 differs from x * x in the
# last bit: a one-column batch must not take the x * x shortcut
@example((polynomial_field_from_table(
    {"dim": 1, "components": [[{"exponents": [2], "coeff": 1.0}]]}),
    np.array([[0.1], [7.7]])))
@given(polynomial_cases())
def test_polynomial_batch_is_bit_equal(case):
    model, x = case
    assert_bit_equal(model.eval_batch(x), rows_of(model, x))


@st.composite
def linear_cases(draw):
    n = draw(st.integers(1, 5))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-10.0, 10.0)))
    return a, draw(orthogonal(n)), draw(states(n))


@given(linear_cases())
def test_linear_batch_within_matrix_rounding(case):
    a, _, x = case
    model = make_linear_field(a)
    assert_within(model.eval_batch(x), rows_of(model, x),
                  np.abs(x) @ np.abs(a).T)


@given(linear_cases())
def test_conjugated_linear_batch_within_matrix_rounding(case):
    a, q, x = case
    model = conjugate_model(make_linear_field(a), q)
    scale = ((np.abs(x) @ np.abs(q)) @ np.abs(a).T) @ np.abs(q).T
    assert_within(model.eval_batch(x), rows_of(model, x), scale)


@given(orthogonal(3), states(3))
def test_conjugated_lorenz_batch_within_matrix_rounding(q, x):
    model = conjugate_model(make_lorenz(10.0, 28.0, 8.0 / 3.0), q)
    # a Lorenz term at a state of size m is at most m * (m + sigma + rho)
    m = np.max(np.abs(x), axis=1, keepdims=True)
    assert_within(model.eval_batch(x), rows_of(model, x), m * (m + 50.0))


def scalar_or_none(fn, x):
    """fn element by element, or None when it raises SingularPoint."""
    try:
        return np.array([fn(float(v)) for v in x])
    except SingularPoint:
        return None


interval_samples = hnp.arrays(
    np.float64, st.integers(0, 24),
    elements=signed_values(1.0) | st.sampled_from([0.0, -0.0]))


@pytest.mark.parametrize("m", INTERVAL_MAPS, ids=lambda m: m.name)
@given(interval_samples)
def test_interval_map_batch_is_bit_equal(m, x):
    for scalar, batch in ((m.eval, m.eval_batch),
                          (m.derivative, m.derivative_batch)):
        ref = scalar_or_none(scalar, x)
        if ref is None:
            with pytest.raises(SingularPoint):
                batch(x)
        else:
            assert_bit_equal(batch(x), ref)


@pytest.mark.parametrize("m", INTERVAL_MAPS, ids=lambda m: m.name)
@given(interval_samples)
def test_pushforward_drops_exactly_the_singular_samples(m, x):
    kept = [v for v in x if v not in m.singular_points]
    pushed = map_pushforward(m, x)
    assert len(pushed) == len(kept) == np.count_nonzero(x)
    assert_bit_equal(pushed, [m.eval(v) for v in kept])


# ----------------------------------------------------------------------
# stacked linear algebra
# ----------------------------------------------------------------------

@st.composite
def matrix_stacks(draw, n, k):
    """(B, n, k) stacks; some columns are zeroed, which puts exact zeros
    on the diagonal of R."""
    b = draw(st.integers(1, 6))
    a = draw(hnp.arrays(np.float64, (b, n, k),
                        elements=st.floats(-1e3, 1e3) | st.just(0.0)))
    zero = draw(hnp.arrays(np.bool_, (b, k)))
    a[np.broadcast_to(zero[:, None, :], a.shape)] = 0.0
    return a


@st.composite
def qr_cases(draw):
    n = draw(st.integers(2, 5))
    return draw(matrix_stacks(n, draw(st.integers(1, n))))


@st.composite
def angle_cases(draw):
    n = draw(st.integers(2, 5))
    a = draw(matrix_stacks(n, draw(st.integers(1, n))))
    b = draw(matrix_stacks(n, draw(st.integers(1, n))))
    m = min(len(a), len(b))
    return a[:m], b[:m]


@given(qr_cases())
def test_stacked_qr_pos_is_per_matrix(a):
    q, r = qr_pos(a)
    for i in range(len(a)):
        qi, ri = qr_pos(a[i])
        assert_bit_equal(q[i], qi)
        assert_bit_equal(r[i], ri)
    assert np.all(np.diagonal(r, axis1=1, axis2=2) >= 0.0)


@given(angle_cases())
def test_stacked_principal_angles_are_per_pair(case):
    a, b = case
    angles = principal_angles(a, b)
    for i in range(len(a)):
        assert_bit_equal(angles[i], principal_angles(a[i], b[i]))


# members of one dimension and different lengths: Lorenz orbits of three
# spans and suspension orbits of two return counts
MEMBER_WARMUP = 5.0


@pytest.fixture(scope="module")
def member_pool():
    lorenz = make_lorenz(10.0, 28.0, 8.0 / 3.0)
    ctrl = StepControl(rtol=1e-6, atol=1e-9)
    susp = make_geometric_lorenz_suspension(make_intermittent_lorenz_map())
    return ([integrate(lorenz, x0, t_span, ctrl)
             for x0, t_span in (([1.0, 1.0, 20.0], 22.0),
                                ([-3.0, 2.0, 25.0], 31.0),
                                ([5.0, -4.0, 30.0], 37.5))]
            + [suspension_orbit(susp, xy, n)
               for xy, n in (([0.371, -0.24], 60), ([-0.62, 0.5], 90))])


@pytest.fixture(scope="module")
def splitting_pool(member_pool):
    """The member pool and two members whose splitting fails: one no
    longer than twice the warmup, and one with no spectral gap."""
    short = integrate(make_lorenz(10.0, 28.0, 8.0 / 3.0), [1.0, 1.0, 20.0], 8.0)
    conformal = integrate(make_linear_saddle([1.0, 1.0, 1.0]),
                          [1e-6, 2e-6, -1e-6], 12.0)
    return member_pool + [short, conformal]


@pytest.fixture(scope="module")
def member_reference(splitting_pool):
    """One-member `estimate_splitting` calls: a sequence or the exception."""
    cache = {}

    def reference(i, stride):
        if (i, stride) not in cache:
            try:
                cache[i, stride] = estimate_splitting(splitting_pool[i], 1,
                                                      MEMBER_WARMUP, stride=stride)
            except (ValueError, SpectralGapFailure) as exc:
                cache[i, stride] = exc
        return cache[i, stride]
    return reference


SEQUENCE_ARRAYS = ("grid", "factors", "Es", "Ecu", "angles", "Rs", "Rcu",
                   "defect_s", "defect_cu")


@settings(max_examples=25)
@given(members=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       stride=st.sampled_from([1, 3]))
def test_member_splittings_equal_one_member_calls(splitting_pool, member_reference,
                                                  members, stride):
    # one stacked sweep each way over the members that pass their checks,
    # whichever members fail: a failing member is an outcome of its own
    # and never sends the others through a second sweep
    orbits = [splitting_pool[i] for i in members]
    with mock.patch.object(splitting, "_sweep", wraps=splitting._sweep) as sweep:
        seqs = splittings_of_blocks(orbits, [block_factors(orbit, stride)
                                             for orbit in orbits],
                                    1, MEMBER_WARMUP)
    assert sweep.call_count == 2
    assert len(seqs) == len(members)
    for i, seq in zip(members, seqs):
        ref = member_reference(i, stride)
        if isinstance(ref, Exception):
            assert type(seq) is type(ref) and str(seq) == str(ref)
            continue
        assert seq.orbit is splitting_pool[i]
        assert (seq.d_s, seq.d_cu) == (ref.d_s, ref.d_cu)
        for name in SEQUENCE_ARRAYS:
            assert_bit_equal(getattr(seq, name), getattr(ref, name))
        assert_bit_equal(seq.gap_s, ref.gap_s)
        assert_bit_equal(seq.gap_cu, ref.gap_cu)


@pytest.mark.parametrize("entry, fault", [(0.0, SingularBlock),
                                          (np.nan, NonFiniteBlock)],
                         ids=["zero", "nan"])
def test_singular_block_fails_only_its_member(splitting_pool, member_reference,
                                              entry, fault):
    # an exactly singular or a non-finite block in member 1: its own
    # outcome, from the one stacked sweep each way the other members share
    members = (0, 1, 3)
    orbits = [splitting_pool[i] for i in members]
    blocks = [block_factors(orbit, 1) for orbit in orbits]
    grid, factors = blocks[1]
    factors = factors.copy()
    factors[len(factors) // 2] = entry
    blocks[1] = (grid, factors)
    with mock.patch.object(splitting, "_sweep", wraps=splitting._sweep) as sweep:
        seqs = splittings_of_blocks(orbits, blocks, 1, MEMBER_WARMUP)
    assert sweep.call_count == 2
    (alone,) = splittings_of_blocks(orbits[1:2], blocks[1:2], 1, MEMBER_WARMUP)
    assert type(seqs[1]) is type(alone) is fault
    assert str(seqs[1]) == str(alone)
    for i, seq in ((0, seqs[0]), (3, seqs[2])):
        ref = member_reference(i, 1)
        for name in SEQUENCE_ARRAYS:
            assert_bit_equal(getattr(seq, name), getattr(ref, name))


def test_no_members_no_sequences():
    assert splittings_of_blocks([], [], 1, MEMBER_WARMUP) == []


def _failure_of(orbit):
    try:
        estimate_splitting(orbit, 1, MEMBER_WARMUP)
    except (ValueError, SpectralGapFailure) as exc:
        return exc
    return None


@pytest.mark.parametrize("order, raised", [((0, 1, 2, 3), WarmupExceedsOrbit),
                                           ((0, 2, 1, 3), SpectralGapFailure),
                                           ((3, 2, 0, 1), SpectralGapFailure)])
def test_first_failing_member_raises(splitting_pool, order, raised):
    # the short member and the conformal one
    pool = [splitting_pool[i] for i in (0, 5, 6, 3)]
    orbits = [pool[i] for i in order]
    first = next(exc for exc in map(_failure_of, orbits) if exc is not None)
    assert type(first) is raised
    seqs = splittings_of_blocks(orbits, [block_factors(orbit, 1) for orbit in orbits],
                                1, MEMBER_WARMUP)
    got = next(seq for seq in seqs if isinstance(seq, Exception))
    assert type(got) is raised
    assert str(got) == str(first)


# members of one dimension, different lengths and different models for
# the stacked LPF transport; the last pool entry sits at the origin
@pytest.fixture(scope="module")
def lpf_pool(member_pool):
    rotation = make_linear_field([[-0.1, -1.0, 0.0], [1.0, -0.1, 0.0],
                                  [0.0, 0.0, 0.5]])
    q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))[0]
    return member_pool + [
        integrate(rotation, [1.0, 0.0, 0.3], 9.0),
        integrate(conjugate_model(rotation, q), [0.2, -1.0, 0.4], 4.0),
        integrate(conjugate_model(make_lorenz(10.0, 28.0, 8.0 / 3.0), q),
                  [2.0, 3.0, 25.0], 6.0),
        integrate(make_lorenz(10.0, 28.0, 8.0 / 3.0), np.zeros(3), 1.0),
    ]


# short enough that the origin orbit (member 8, span 1) is split, and so
# fails in its LPF
LPF_WARMUP = 0.25


def lpf_blocks_or_error(orbit, stride):
    """One member alone: `estimate_splitting`, then its LPF over the kept
    checkpoints (`lpf_along(orbit).blocks(seq.grid)`), or the exception
    the first of them raises."""
    try:
        seq = estimate_splitting(orbit, 1, LPF_WARMUP, stride=stride)
        return lpf_along(orbit).blocks(seq.grid)
    except (ValueError, SpectralGapFailure, NearSingularity) as exc:
        return exc


def batch_lpf_blocks_or_error(orbits, stride):
    """The LPF blocks `report._batch_rows` hands to the functionals, per
    member, or the exception it raises (a ShortOrbit splitting as the
    cause of its ConfigError); the window checks and the functionals do
    not run, and the orbits are copied, since it releases their per-step
    factors."""
    got = []
    s = config.settings({"conditions": ["NUSE"],
                         "splitting": {"warmup": LPF_WARMUP, "stride": stride}},
                        config.REPORT_TABLE)
    with mock.patch.object(report, "_check_windows"), \
            mock.patch.object(report, "_entries",
                              lambda seqs, lpfs, *_: got.extend(lpfs)):
        try:
            report._batch_rows([dataclasses.replace(orbit) for orbit in orbits],
                               ["NUSE"], s)
        except ConfigError as exc:
            return exc.__cause__
        except Exception as exc:
            return exc
    return got


# members 0-4, 6 and 7 pass; 5 fails in its splitting (no spectral gap)
# and 8 in its LPF
@settings(max_examples=25)
@example(members=[0, 3, 6, 7, 1], stride=5)
@example(members=[4, 2, 8, 5], stride=2)
@example(members=[1, 5, 8], stride=3)
@given(members=st.lists(st.integers(0, 8), min_size=1, max_size=6),
       stride=st.integers(1, 5))
def test_batch_lpf_blocks_equal_one_orbit_blocks(lpf_pool, members, stride):
    # each member's LPF block factors and frames, formed over its whole
    # block grid and cut to the checkpoints its splitting kept (most grids
    # end in a short block at strides 2-5, and the warmup cuts checkpoints
    # at both ends), against lpf_along on that member alone; the first
    # member that fails, in its splitting or its LPF, is the batch's outcome
    refs = [lpf_blocks_or_error(lpf_pool[i], stride) for i in members]
    got = batch_lpf_blocks_or_error([lpf_pool[i] for i in members], stride)
    first = next((ref for ref in refs if isinstance(ref, Exception)), None)
    if first is not None:
        assert type(got) is type(first) and str(got) == str(first)
        return
    assert len(got) == len(members)
    for (factors, frames), (ref_factors, ref_frames) in zip(got, refs):
        assert_bit_equal(factors, ref_factors)
        assert_bit_equal(frames, ref_frames)


# ----------------------------------------------------------------------
# batched Dormand-Prince over an ensemble
# ----------------------------------------------------------------------

@st.composite
def vector_fields(draw):
    """One of the shipped vector-field kinds, with drawn parameters."""
    kind = draw(st.sampled_from(["lorenz", "linear", "saddle", "conjugated",
                                 "polynomial"]))
    if kind == "lorenz":
        return make_lorenz(draw(st.floats(5.0, 15.0)), draw(st.floats(0.5, 30.0)),
                           draw(st.floats(1.0, 3.0)))
    n = draw(st.integers(1, 4))
    if kind == "saddle":
        return make_linear_saddle(draw(st.lists(st.floats(-3.0, 3.0),
                                                min_size=n, max_size=n)))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0)))
    if kind == "linear":
        return make_linear_field(a)
    if kind == "conjugated":
        inner = draw(st.sampled_from([make_linear_field(a),
                                      make_lorenz(10.0, 28.0, 8.0 / 3.0)]))
        return conjugate_model(inner, draw(orthogonal(inner.dim)))
    model, _ = draw(polynomial_cases())
    return model


def member_states(model, size):
    """Initial states of magnitudes 1e-2 to 20, so that the members take
    different numbers of steps."""
    scale = st.sampled_from([1e-2, 0.3, 1.0, 5.0, 20.0])
    row = st.builds(lambda v, s: v * s,
                    hnp.arrays(np.float64, model.dim, elements=st.floats(-1.0, 1.0)),
                    scale)
    return st.lists(row, min_size=size, max_size=size).map(np.array)


def integrate_or_error(model, x0, t_span, ctrl):
    try:
        return integrate(model, x0, t_span, ctrl)
    except (Blowup, StiffnessFailure) as exc:
        return exc


def assert_same_outcome(got, ref):
    """The same orbit bit for bit, or the same exception."""
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    for name in ("times", "states", "step_cocycles", "renorm_log"):
        assert_bit_equal(getattr(got, name), getattr(ref, name))


BATCH_CTRL = StepControl(rtol=1e-6, atol=1e-9, bound=1e3)


@settings(max_examples=40)
@given(data=st.data(), model=vector_fields(), size=st.integers(1, 8),
       t_span=st.sampled_from([0.3, 1.0, 2.0]))
def test_batched_orbits_equal_one_member_integrate(data, model, size, t_span):
    x0s = data.draw(member_states(model, size))
    # members that blow up overflow in their last stages, in both runs
    with np.errstate(over="ignore", invalid="ignore"):
        refs = [integrate_or_error(model, x0, t_span, BATCH_CTRL) for x0 in x0s]
        got = integrate_batch(model, x0s, t_span, BATCH_CTRL)
    assert len(got) == size
    for g, ref in zip(got, refs):
        assert_same_outcome(g, ref)


def test_batched_members_finish_at_different_iterations():
    model = make_lorenz(10.0, 28.0, 8.0 / 3.0)
    x0s = np.array([[1.0, 1.0, 20.0], [-8.0, 5.0, 30.0], [0.1, 0.2, 0.3],
                    [15.0, 18.0, 35.0]])
    got = integrate_batch(model, x0s, 5.0, BATCH_CTRL)
    assert len({orbit.n_steps for orbit in got}) == len(got)
    for g, x0 in zip(got, x0s):
        assert_same_outcome(g, integrate(model, x0, 5.0, BATCH_CTRL))


def test_failed_members_leave_the_batch_with_their_exception():
    # x' = x blows up past the bound from the larger starts only; a
    # non-finite start fails as integrate fails on it
    model = make_linear_saddle([1.0, -1.0])
    x0s = np.array([[0.5, 1.0], [50.0, 1.0], [np.nan, 0.0], [0.1, 0.0],
                    [200.0, 0.0]])
    ctrl = StepControl(bound=1e3)
    got = integrate_batch(model, x0s, 4.0, ctrl)
    assert isinstance(got[1], Blowup) and isinstance(got[4], Blowup)
    assert isinstance(got[2], ValueError) and str(got[2]) == "x0 must be finite"
    for g, x0 in zip(got, x0s):
        if not isinstance(g, ValueError):
            assert_same_outcome(g, integrate_or_error(model, x0, 4.0, ctrl))


@st.composite
def batch_states(draw):
    model = draw(vector_fields())
    return model, draw(member_states(model, draw(st.integers(1, 6))))


@given(batch_states())
def test_batched_forms_are_bit_equal(case):
    model, x = case
    assert_bit_equal(model.eval_batch(x), rows_of(model, x))
    assert_bit_equal(model.jacobian_batch(x), [model.jacobian(row) for row in x])


# a member that fails is raised when the member loop reaches it: members 2
# and 3 blow up past the bound (3 earlier in time), 0 and 1 pass
FAILING_ENSEMBLE = {
    "conditions": ["MNUSE"], "seed": 48,
    "ensemble": {"size": 4, "transient": 0.0},
    "windows": {"T": 5.0}, "splitting": {"warmup": 2.0},
    "tolerances": {"rtol": 1e-6, "atol": 1e-9, "bound": 48.0},
}


def serial_rows(model, cfg):
    """The member loop, one member at a time in member order: `integrate`,
    `estimate_splitting`, `lpf_along` (when NUSE or MSH-estimate is
    requested), then the functionals."""
    s = config.settings(cfg, config.REPORT_TABLE)
    box = (model.trapping_region if s["ensemble.box"] is None
           else np.asarray(s["ensemble.box"], dtype=float))
    rng = np.random.default_rng(s["seed"])
    ics = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((s["ensemble.size"], 3))
    if s["ensemble.transient"] > 0:
        dt = s["ensemble.transient_dt"]
        ics = batch_rk4(model, ics, dt, int(round(s["ensemble.transient"] / dt)))
    span = s["windows.T"] + 2 * s["splitting.warmup"]
    rows = []
    for x0 in ics:
        orbit = integrate(model, x0, span, config.step_control(s))
        seq = estimate_splitting(orbit, s["splitting.d_s"], s["splitting.warmup"],
                                 stride=s["splitting.stride"])
        lpfs = ([lpf_along(orbit).blocks(seq.grid)]
                if {"NUSE", "MSH-estimate"} & set(s["conditions"]) else ())
        report._check_windows(seq, s["conditions"], s)
        rows.append(report._entries([seq], lpfs, s["conditions"], s)[0])
    return rows


def test_first_failing_member_raises_what_the_serial_loop_raises():
    model = make_lorenz(10.0, 28.0, 8.0 / 3.0)
    with pytest.raises(Blowup) as serial:
        serial_rows(model, FAILING_ENSEMBLE)
    with mock.patch.object(report, "_entries", wraps=report._entries) as evaluated:
        with pytest.raises(Blowup) as batched:
            report.assemble_report(model, FAILING_ENSEMBLE)
    assert str(batched.value) == str(serial.value)
    # member 2 raised before any functional ran
    assert evaluated.call_count == 0


def test_member_near_the_z_axis_raises_what_the_serial_loop_raises():
    # x and y within 1e-51 of the z-axis, the stable manifold of the
    # origin: member 2's orbit passes the origin at a flow speed below
    # lpf_along's floor, members 0, 1 and 3 pass it above
    model = make_lorenz(10.0, 28.0, 8.0 / 3.0)
    cfg = {"conditions": ["NUSE"], "seed": 2,
           "ensemble": {"size": 4, "transient": 0.0,
                        "box": [[0.0, 1e-51], [0.0, 1e-51], [20.0, 30.0]]},
           "windows": {"T": 8.0}, "splitting": {"warmup": 3.0},
           "tolerances": {"rtol": 1e-6, "atol": 1e-9}}
    with pytest.raises(NearSingularity) as serial:
        serial_rows(model, cfg)
    with mock.patch.object(report, "_entries", wraps=report._entries) as evaluated:
        with pytest.raises(NearSingularity) as batched:
            report.assemble_report(model, cfg)
    assert str(batched.value) == str(serial.value)
    assert evaluated.call_count == 0


def test_ensemble_larger_than_one_batch_equals_the_serial_loop(monkeypatch):
    model = make_lorenz(10.0, 28.0, 8.0 / 3.0)
    cfg = {"conditions": ["MNUSE", "NUSE", "NNE", "MSH-estimate"], "seed": 3,
           "ensemble": {"size": 7, "transient": 2.0},
           "windows": {"T": 8.0}, "splitting": {"warmup": 3.0, "stride": 2},
           "tolerances": {"rtol": 1e-6, "atol": 1e-9}}
    monkeypatch.setattr(report, "ENSEMBLE_BATCH", 3)      # batches of 3, 3, 1
    s = config.settings(cfg, config.REPORT_TABLE)
    rows = report._ode_ensemble(model, s, cfg["conditions"])
    # repr: every float to the last bit, and a NaN equals a NaN
    assert repr(rows) == repr(serial_rows(model, cfg))


# ----------------------------------------------------------------------
# the stacked functional pass over a batch's members
# ----------------------------------------------------------------------

FLOW_CONDITIONS = ["PH", "SingularHyp", "SH", "ASH", "MNUSE", "NUSE",
                   "MSH-estimate", "NNE"]


def pass_settings(sens, stride):
    return config.settings({"conditions": FLOW_CONDITIONS,
                            "windows": {"T": 12.0, "sect_window": 20.0},
                            "tau_sensitivity": sens,
                            "splitting": {"warmup": MEMBER_WARMUP, "stride": stride}},
                           config.REPORT_TABLE)


def batch_rows_or_error(members, sens, stride):
    """`report._batch_rows` of integration outcomes, or what it raises;
    the orbits are copied, since it releases their per-step factors."""
    members = [m if isinstance(m, Exception) else dataclasses.replace(m)
               for m in members]
    try:
        return report._batch_rows(members, FLOW_CONDITIONS, pass_settings(sens, stride))
    except Exception as exc:
        return exc


@pytest.fixture(scope="module")
def flow_pool(splitting_pool):
    """The splitting pool as integration outcomes, and two more members: a
    copy of member 0 with one NaN step factor, which fails in the
    splitting, and a failed integration."""
    poisoned = dataclasses.replace(splitting_pool[0], step_cocycles=splitting_pool[0]
                                   .step_cocycles.copy())
    poisoned.step_cocycles[poisoned.n_steps // 2, 0, 0] = np.nan
    return splitting_pool + [poisoned, Blowup("member left the bound")]


@pytest.fixture(scope="module")
def flow_reference(flow_pool):
    """One member's rows from a batch of one, or its exception."""
    cache = {}

    def reference(i, sens, stride):
        key = (i, tuple(sens), stride)
        if key not in cache:
            with np.errstate(invalid="ignore"):
                cache[key] = batch_rows_or_error([flow_pool[i]], sens, stride)
        return cache[key]
    return reference


# the second tau_sensitivity leaves member 0 (valid range 12) no window
@settings(max_examples=25)
@given(members=st.lists(st.integers(0, 8), min_size=1, max_size=5),
       sens=st.sampled_from([(0.5, 1.0, 2.0), (1.0, 12.5)]),
       stride=st.sampled_from([1, 4]))
def test_stacked_rows_equal_one_member_at_a_time(flow_pool, flow_reference, members,
                                                 sens, stride):
    rows, first = [], None
    for i in members:
        ref = flow_reference(i, sens, stride)
        if isinstance(ref, Exception):
            first = ref
            break
        rows.extend(ref)
    with np.errstate(invalid="ignore"):
        got = batch_rows_or_error([flow_pool[i] for i in members], list(sens), stride)
    if first is None:
        # repr: every float to the last bit, and a NaN equals a NaN
        assert repr(got) == repr(rows)
    else:
        assert type(got) is type(first) and str(got) == str(first)


@pytest.mark.parametrize("n_members", [1, 3])
def test_one_window_formation_per_functional_tau_and_stream(flow_pool, n_members):
    # one LPF block formation per member, next to its tangent block
    # formation (each one window_products call), then one window_products
    # call per functional, per tau and per factor stream, whatever the
    # member count: PH's Rs and Rcu (2), SingularHyp and SH together (1,
    # the same Rcu windows), ASH (1), MNUSE and NUSE at each of the three
    # taus (3 each), and MSH's restricted N^s and N^u block factors (2); and
    # tau = 1.0, in windows.tau and tau_sensitivity, evaluated once
    taus = {"mnuse": [], "nuse": []}

    def recording(name):
        method = getattr(hyperbolicity.Functionals, name)

        def record(self, tau, *args):
            taus[name].append(tau)
            return method(self, tau, *args)
        return record

    with mock.patch.object(util, "window_products", wraps=util.window_products) as wp, \
            mock.patch.object(lpf, "block_products",
                              wraps=lpf.block_products) as blocks, \
            mock.patch.object(hyperbolicity.Functionals, "mnuse", recording("mnuse")), \
            mock.patch.object(hyperbolicity.Functionals, "nuse", recording("nuse")):
        rows = batch_rows_or_error(flow_pool[:n_members], [0.5, 1.0, 2.0], 4)
    assert len(rows) == n_members
    assert all(np.isfinite(row["msh_slopes"]).all() for row in rows)
    assert blocks.call_count == n_members
    assert wp.call_count == 2 * n_members + 2 + 1 + 1 + 3 + 3 + 2
    assert sorted(taus["mnuse"]) == sorted(taus["nuse"]) == [0.5, 1.0, 2.0]
