import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde.series import (
    UNBOUNDED_RADIUS,
    PowerSeries,
    TrustRadiusError,
    div_trunc,
    estimate_trust_radius,
    mul_trunc,
)


def series(coeffs, center=0.0):
    return PowerSeries(center, coeffs, estimate_trust_radius(coeffs))


def test_polynomial_gets_unbounded_radius():
    ps = series([0.0, 1.0, 0, 0, 0, 0, 0, 0])
    assert ps.trust_radius == UNBOUNDED_RADIUS
    # trailing-zero detection
    assert estimate_trust_radius(np.array([1.0, 2.0, 0, 0, 0, 0, 0, 0, 0, 0])) \
        == UNBOUNDED_RADIUS


def test_geometric_series_trust():
    # 1/(1-z): radius of convergence 1, trust should land well inside
    coeffs = np.ones(64)
    r = estimate_trust_radius(coeffs)
    assert 0.3 < r < 1.0
    ps = series(coeffs)
    z = r / 2
    assert abs(ps.evaluate(z) - 1 / (1 - z)) < 1e-9


def test_evaluate_outside_raises():
    ps = series(np.ones(64))
    with pytest.raises(TrustRadiusError):
        ps.evaluate(0.999)


def test_div_trunc_inverts_mul():
    a = np.array([1.0, -2.0, 0.5, 0.25])
    b = np.array([2.0, 1.0, -1.0, 0.125])
    prod = mul_trunc(a, b, 4)
    back = div_trunc(prod, b, 4)
    assert np.allclose(back, a)


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=6),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_product_evaluates_pointwise(ca, cb):
    # truncated product of exact polynomials agrees with the value product
    # up to the shared truncation degree
    n = min(len(ca), len(cb))
    prod = PowerSeries(0.0, mul_trunc(ca[:n], cb[:n], n), UNBOUNDED_RADIUS)
    z = 0.1 + 0.05j
    full = np.polyval(list(reversed(np.convolve(ca[:n], cb[:n]))), z)
    tail = full - prod.evaluate(z)
    # the discarded coefficients are degree >= n
    expected_tail = sum(
        c * z**k
        for k, c in enumerate(np.convolve(ca[:n], cb[:n]))
        if k >= n
    )
    assert abs(tail - expected_tail) < 1e-9
