"""Property tests: each model's batched form against its scalar form,
and map_pushforward's handling of singular points."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sechyp.errors import SingularPoint
from sechyp.measures import map_pushforward
from sechyp.models import (conjugate_model, make_expanding_lorenz_map,
                           make_intermittent_lorenz_map, make_linear_field,
                           make_lorenz, polynomial_field_from_table)

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
