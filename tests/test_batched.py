"""Property tests: each model's batched form against its scalar form,
map_pushforward's handling of singular points, and stacked linear
algebra (QR, principal angles, member-stacked splitting sweeps) against
one call per matrix or member."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sechyp import splitting
from sechyp.errors import SingularPoint, SpectralGapFailure
from sechyp.flowcalc import StepControl, integrate
from sechyp.measures import map_pushforward
from sechyp.models import (conjugate_model, make_expanding_lorenz_map,
                           make_geometric_lorenz_suspension,
                           make_intermittent_lorenz_map, make_linear_field,
                           make_linear_saddle, make_lorenz,
                           polynomial_field_from_table)
from sechyp.splitting import estimate_splitting, estimate_splittings
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
def member_reference(member_pool):
    cache = {}

    def reference(i, stride):
        if (i, stride) not in cache:
            cache[i, stride] = estimate_splitting(member_pool[i], 1, MEMBER_WARMUP,
                                                  stride=stride)
        return cache[i, stride]
    return reference


SEQUENCE_ARRAYS = ("grid", "factors", "Es", "Ecu", "angles", "defect_s", "defect_cu")


@settings(max_examples=25)
@given(members=st.lists(st.integers(0, 4), min_size=1, max_size=5),
       stride=st.sampled_from([1, 3]))
def test_member_splittings_equal_one_member_calls(member_pool, member_reference,
                                                  members, stride):
    # one stacked sweep each way: a failed stack would be redone member
    # by member and hide the fault
    with mock.patch.object(splitting, "_sweep", wraps=splitting._sweep) as sweep:
        seqs = estimate_splittings([member_pool[i] for i in members], 1,
                                   MEMBER_WARMUP, stride=stride)
    assert sweep.call_count == 2
    assert len(seqs) == len(members)
    for i, seq in zip(members, seqs):
        ref = member_reference(i, stride)
        assert seq.orbit is member_pool[i]
        assert (seq.d_s, seq.d_cu) == (ref.d_s, ref.d_cu)
        for name in SEQUENCE_ARRAYS:
            assert_bit_equal(getattr(seq, name), getattr(ref, name))
        assert_bit_equal(seq.gap_s, ref.gap_s)
        assert_bit_equal(seq.gap_cu, ref.gap_cu)


def test_no_members_no_sequences():
    assert estimate_splittings([], 1, MEMBER_WARMUP) == []


def _failure_of(orbit):
    try:
        estimate_splitting(orbit, 1, MEMBER_WARMUP)
    except (ValueError, SpectralGapFailure) as exc:
        return exc
    return None


@pytest.mark.parametrize("order, raised", [((0, 1, 2, 3), ValueError),
                                           ((0, 2, 1, 3), SpectralGapFailure),
                                           ((3, 2, 0, 1), SpectralGapFailure)])
def test_first_failing_member_raises(member_pool, order, raised):
    short = integrate(make_lorenz(10.0, 28.0, 8.0 / 3.0), [1.0, 1.0, 20.0], 8.0)
    conformal = integrate(make_linear_saddle([1.0, 1.0, 1.0]),
                          [1e-6, 2e-6, -1e-6], 12.0)
    pool = [member_pool[0], short, conformal, member_pool[3]]
    orbits = [pool[i] for i in order]
    first = next(exc for exc in map(_failure_of, orbits) if exc is not None)
    assert type(first) is raised
    with pytest.raises(raised) as got:
        estimate_splittings(orbits, 1, MEMBER_WARMUP)
    assert type(got.value) is raised
    assert str(got.value) == str(first)
