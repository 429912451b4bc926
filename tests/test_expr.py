import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde import expr


def test_parse_arithmetic():
    node = expr.parse_expr("1 + 2*z - z^2")
    assert expr.evaluate(node, 3.0) == 1 + 6 - 9


def test_parse_functions_and_eval():
    node = expr.parse_expr("exp(z) * sin(z)")
    z = 0.3 + 0.2j
    assert abs(expr.evaluate(node, z) - cmath.exp(z) * cmath.sin(z)) < 1e-14


def test_parse_error_position():
    with pytest.raises(expr.ParseError):
        expr.parse_expr("1 + * z")


def test_integer_exponent_required():
    with pytest.raises(expr.ParseError):
        expr.parse_expr("z^0.5")


def test_negative_exponent():
    node = expr.parse_expr("(1-z)^(-2)")
    assert abs(expr.evaluate(node, 0.5) - 4.0) < 1e-14


def test_log_branch_cut():
    node = expr.parse_expr("log(z)")
    with pytest.raises(expr.BranchCutError):
        expr.series_coefficients(node, -1.0, 8)
    with pytest.raises(expr.DomainError):
        expr.series_coefficients(node, 0.0, 8)


def test_jet_against_derivatives():
    # d/dz exp(2z) jets at z=0.1: value, 2e, 4e, 8e, 16e
    node = expr.parse_expr("exp(2*z)")
    jets = expr.eval_jet(node, 0.1, order=4)
    base = cmath.exp(0.2)
    for k, j in enumerate(jets):
        assert abs(j - 2**k * base) < 1e-12


def test_taylor_at_matches_eval():
    node = expr.parse_expr("1/(1-z)^4")
    ps = expr.taylor_at(node, 0.0, 64)
    for z in (0.1, 0.3j, -0.2 + 0.2j):
        assert abs(ps.evaluate(z) - expr.evaluate(node, z)) < 1e-10


def test_eval_array_vectorized():
    node = expr.parse_expr("-4*z/(1-z)^4")
    zs = np.array([0.1, 0.5j, -0.3])
    vals = expr.eval_array(node, zs)
    assert np.allclose(vals, -4 * zs / (1 - zs) ** 4)


_coef = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def _expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.one_of(
            st.just("z"),
            _coef.map(lambda c: repr(float(c))),
        ))
    left = draw(_expressions(depth=depth + 1))
    right = draw(_expressions(depth=depth + 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({left} {op} {right})"


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(text):
    node = expr.parse_expr(text)
    reparsed = expr.parse_expr(expr.to_string(node))
    for z in (0.25, -0.4 + 0.1j):
        a = expr.evaluate(node, z)
        b = expr.evaluate(reparsed, z)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@given(st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_substitute_evaluates_composition(w):
    outer = expr.parse_expr("exp(z) + z^2")
    inner = expr.parse_expr("z/2 + 0.1")
    composed = expr.substitute(outer, inner)
    direct = expr.evaluate(outer, expr.evaluate(inner, w))
    assert abs(expr.evaluate(composed, w) - direct) < 1e-12


def _binom_half(k):
    """The generalized binomial coefficient C(1/2, k)."""
    c = 1.0
    for j in range(k):
        c *= (0.5 - j) / (j + 1)
    return c


def _jet_closed_forms(z):
    """Per expression: its derivatives of orders 0..4 at z."""
    e_plus, e_minus = cmath.exp((1 + 1j) * z), cmath.exp((1 - 1j) * z)
    return {
        "log(1+z/2)": [cmath.log(1 + z / 2)]
        + [(-1) ** (m + 1) * math.factorial(m - 1) / (2 + z) ** m
           for m in range(1, 5)],
        "sqrt(2+z)": [_binom_half(m) * math.factorial(m)
                      * cmath.sqrt(2 + z) / (2 + z) ** m for m in range(5)],
        "sin(3*z)": [3 ** m * cmath.sin(3 * z + m * math.pi / 2)
                     for m in range(5)],
        "cos(2*z+1)": [2 ** m * cmath.cos(2 * z + 1 + m * math.pi / 2)
                       for m in range(5)],
        "exp(z)*sin(z)": [((1 + 1j) ** m * e_plus - (1 - 1j) ** m * e_minus)
                          / 2j for m in range(5)],
    }


# per expression: (exact Taylor coefficient a_k at 0, the scale its error
# is measured against: |a_k|'s envelope, and for the product the sum of
# the moduli of the Cauchy product's terms); the signs cycle through exact
# integers, so zero coefficients are exact
_TAYLOR_AT_ZERO = {
    "log(1+z/2)": (lambda k: 0.0 if k == 0 else (-1) ** (k + 1) / (k * 2 ** k),
                   lambda k: 1.0 / (max(k, 1) * 2 ** k)),
    "sqrt(2+z)": (lambda k: math.sqrt(2) * _binom_half(k) / 2 ** k,
                  lambda k: math.sqrt(2) * abs(_binom_half(k)) / 2 ** k),
    "sin(3*z)": (lambda k: (0, 1, 0, -1)[k % 4] * 3 ** k / math.factorial(k),
                 lambda k: 3 ** k / math.factorial(k)),
    "cos(2*z+1)": (lambda k: (math.cos(1), -math.sin(1), -math.cos(1),
                              math.sin(1))[k % 4] * 2 ** k / math.factorial(k),
                   lambda k: 2 ** k / math.factorial(k)),
    "exp(z)*sin(z)": (lambda k: ((1 + 1j) ** k).imag / math.factorial(k),
                      lambda k: 2 ** k / math.factorial(k)),
}

_NUMPY_FORMS = {
    "log(1+z/2)": lambda zs: np.log(1 + zs / 2),
    "sqrt(2+z)": lambda zs: np.sqrt(2 + zs),
    "sin(3*z)": lambda zs: np.sin(3 * zs),
    "cos(2*z+1)": lambda zs: np.cos(2 * zs + 1),
    "exp(z)*sin(z)": lambda zs: np.exp(zs) * np.sin(zs),
}


@pytest.mark.parametrize("text", sorted(_TAYLOR_AT_ZERO))
def test_taylor_at_zero_matches_closed_form_coefficients(text):
    exact, envelope = _TAYLOR_AT_ZERO[text]
    coeffs = expr.taylor_at(expr.parse_expr(text), 0, 20).coeffs
    assert len(coeffs) == 21
    for k, a in enumerate(coeffs):
        assert abs(a - exact(k)) <= 1e-13 * envelope(k), (k, a)


@pytest.mark.parametrize("text", sorted(_TAYLOR_AT_ZERO))
def test_eval_jet_matches_closed_form_derivatives(text):
    z = 0.3 + 0.2j
    got = expr.eval_jet(expr.parse_expr(text), z, 4)
    for m, (a, b) in enumerate(zip(got, _jet_closed_forms(z)[text])):
        assert abs(a - b) <= 1e-13 * abs(b), (m, a, b)


@pytest.mark.parametrize("text", sorted(_NUMPY_FORMS))
def test_eval_array_of_functions_matches_numpy(text):
    xy = np.random.default_rng(5).uniform(-0.9, 0.9, size=(64, 2))
    zs = xy[:, 0] + 1j * xy[:, 1]
    got = expr.eval_array(expr.parse_expr(text), zs)
    np.testing.assert_allclose(got, _NUMPY_FORMS[text](zs), rtol=1e-13)
