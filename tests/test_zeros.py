import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde.geometry import phi, rho_p
from discde.ode import make_basis
from discde.zeros import (
    ZeroLocationError,
    count_zeros,
    find_zeros,
    jensen_check,
    separation_delta,
)


def cos5(z):
    return np.cos(5 * z), -5 * np.sin(5 * z)


def cos25(z):
    return np.cos(25 * z), -25 * np.sin(25 * z)


def test_count_by_winding():
    assert count_zeros(cos5, 0.0, 0.5) == 2
    assert count_zeros(cos5, 0.0, 0.99) == 4


def test_find_zeros_cosine():
    seq = find_zeros(cos5, 0.99)
    expected = sorted([math.pi / 10, 3 * math.pi / 10,
                       -math.pi / 10, -3 * math.pi / 10])
    got = sorted(z.real for z in seq.zeros)
    assert len(seq) == 4
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-11
    assert max(seq.residuals) < 1e-12


def test_find_zeros_dense():
    seq = find_zeros(cos25, 0.99)
    assert len(seq) == 16
    assert max(seq.residuals) < 1e-10


def test_origin_zero_requires_deflation():
    f = lambda z: (np.sin(10 * z) / 10, np.cos(10 * z))
    with pytest.raises(ZeroLocationError):
        find_zeros(f, 0.95)
    seq = find_zeros(f, 0.95, deflate_origin=True)
    assert len(seq) == 7
    assert any(z == 0 for z in seq.zeros)


def test_no_zeros():
    seq = find_zeros(lambda z: (np.exp(z), np.exp(z)), 0.95)
    assert len(seq) == 0


def test_jensen_certifies_completeness():
    seq = find_zeros(cos5, 0.99)
    gap = jensen_check(cos5, seq.zeros, 0.97)
    assert abs(gap) < 1e-9
    # dropping a zero breaks the identity
    bad = jensen_check(cos5, seq.zeros[:-1], 0.97)
    assert abs(bad) > 1e-2


def test_separation():
    pts = [0.0, 0.5]
    assert separation_delta(pts) == pytest.approx(0.5)
    assert separation_delta([0.3]) == 1.0


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_separation_mobius_invariant(a):
    pts = [0.1, -0.4 + 0.2j, 0.5j]
    moved = [phi(a, p) for p in pts]
    assert separation_delta(moved) == pytest.approx(separation_delta(pts),
                                                    abs=1e-10)


def test_find_zeros_respects_small_r_max():
    seq = find_zeros(lambda z: (z - 0.4, 1.0), r_max=0.3)
    assert list(seq.zeros) == []
    assert [round(z.real, 12) for z in find_zeros(
        lambda z: (z - 0.4, 1.0), r_max=0.45).zeros] == [0.4]


def test_count_zeros_non_finite_values_raise():
    with pytest.raises(ZeroLocationError):
        count_zeros(lambda z: (math.nan, 1.0), 0.0, 0.5)


def test_equal_modulus_zeros_in_fixed_order():
    basis = make_basis("100", ics=((0, 1), (1, 0)))
    seq = find_zeros(lambda z: basis.f1.jet(z, 1), 0.95, deflate_origin=True)
    # 0, -pi/10, pi/10, -pi/5, pi/5, -3pi/10, 3pi/10: the pairs tie in modulus
    expected = [0.0] + [s * k * math.pi / 10
                        for k in (1, 2, 3) for s in (-1, 1)]
    assert len(seq) == len(expected)
    assert all(abs(z - e) < 1e-12 for z, e in zip(seq.zeros, expected))


def test_jensen_check_zero_on_circle_raises():
    with pytest.raises(ZeroLocationError):
        jensen_check(lambda z: (z - 0.5, 1 + 0 * z), [], 0.5)


def _recording(f_jet):
    """f_jet wrapped to record the number of points of each call."""
    sizes = []

    def recorded(z):
        sizes.append(np.size(z))
        return f_jet(z)
    return recorded, sizes


def test_contour_and_circle_are_one_call_each():
    counted, sizes = _recording(cos5)
    assert count_zeros(counted, 0.0, 0.99) == 4
    assert sizes == [64 << level for level in range(len(sizes))]
    zeros = find_zeros(cos5, 0.99).zeros
    counted, sizes = _recording(cos5)
    jensen_check(counted, zeros, 0.97)
    assert sizes == [1 << 12, 1]


def test_each_contour_radius_is_counted_once(monkeypatch):
    from discde import zeros

    radii = []

    def recorded(f_jet, center, r, *args, **kwargs):
        if center == 0:
            radii.append(r)
        return count_zeros(f_jet, center, r, *args, **kwargs)

    monkeypatch.setattr(zeros, "count_zeros", recorded)
    basis = make_basis("100", ics=((0, 1), (1, 0)))
    seq = find_zeros(lambda z: basis.f1.jet(z, 1), 0.95, deflate_origin=True)
    assert len(seq) == 7
    assert radii == [0.5, 0.75, 0.875, 0.9375, 0.95]
