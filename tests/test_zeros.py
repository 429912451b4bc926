import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde.geometry import phi, rho_p
from discde.zeros import (
    ZeroLocationError,
    a_point_separation,
    blaschke_sum,
    count_zeros,
    find_zeros,
    jensen_check,
    separation_delta,
    uniform_separation,
)


def cos5(z):
    return cmath.cos(5 * z), -5 * cmath.sin(5 * z)


def cos25(z):
    return cmath.cos(25 * z), -25 * cmath.sin(25 * z)


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
    f = lambda z: (cmath.sin(10 * z) / 10, cmath.cos(10 * z))
    with pytest.raises(ZeroLocationError):
        find_zeros(f, 0.95)
    seq = find_zeros(f, 0.95, deflate_origin=True)
    assert len(seq) == 7
    assert any(z == 0 for z in seq.zeros)


def test_no_zeros():
    seq = find_zeros(lambda z: (cmath.exp(z), cmath.exp(z)), 0.95)
    assert len(seq) == 0


def test_jensen_certifies_completeness():
    seq = find_zeros(cos5, 0.99)
    gap = jensen_check(cos5, seq.zeros, 0.97)
    assert abs(gap) < 1e-9
    # dropping a zero breaks the identity
    bad = jensen_check(cos5, seq.zeros[:-1], 0.97)
    assert abs(bad) > 1e-2


def test_blaschke_sum():
    assert blaschke_sum([0.5, 0.5j]) == pytest.approx(1.5)
    assert blaschke_sum([0.5], alpha=2.0) == pytest.approx(0.5625)


def test_separation():
    pts = [0.0, 0.5]
    assert separation_delta(pts) == pytest.approx(0.5)
    ok, realized = uniform_separation(pts, delta=0.4)
    assert ok and realized == pytest.approx(0.5)
    assert not uniform_separation(pts, delta=0.6)[0]
    assert separation_delta([0.3]) == 1.0


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_separation_mobius_invariant(a):
    pts = [0.1, -0.4 + 0.2j, 0.5j]
    moved = [phi(a, p) for p in pts]
    assert separation_delta(moved) == pytest.approx(separation_delta(pts),
                                                    abs=1e-10)


def test_a_point_separation_of_cosine():
    overall, table, located = a_point_separation(cos5, [0.0, 0.5], r_max=0.9)
    # cos(5z) = 0 and = 0.5 interlace; pooled points never collide
    assert overall > 0
    assert len(located[0.0]) > 0 and len(located[0.5]) > 0


def test_find_zeros_respects_small_r_max():
    seq = find_zeros(lambda z: (z - 0.4, 1.0), r_max=0.3)
    assert list(seq.zeros) == []
    assert [round(z.real, 12) for z in find_zeros(
        lambda z: (z - 0.4, 1.0), r_max=0.45).zeros] == [0.4]


def test_count_zeros_non_finite_values_raise():
    with pytest.raises(ZeroLocationError):
        count_zeros(lambda z: (math.nan, 1.0), 0.0, 0.5)
