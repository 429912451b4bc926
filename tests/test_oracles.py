"""Oracles: closed-form solutions, zeros and norms of coefficients whose
answers are known exactly, checked against the package with numpy only.

On A = (1 + tau^2)/(1 - z^2)^2 the solution with f(0) = 1, f'(0) = 0 is
f1 = (1 - z^2)^(1/2) cos(tau atanh z), whose zeros are the real points
+-tanh((pi/2 + pi k)/tau), pairwise tanh(pi/tau) apart in the
pseudo-hyperbolic metric, and sup (1 - |z|^2)^2 |A| = 1 + tau^2 on the real
axis.  On A = -s(s - 1)/(1 - z)^2 the solution 1*f1 - s*f2 is (1 - z)^s."""

import math

import numpy as np
import pytest

from discde import (eval_array, find_zeros, growth_norm, make_basis,
                    parse_expr, separation_delta, weighted_area_integral)

TAUS = (2, 4, 5.5, 8, 12)


def _atanh_family(tau):
    return parse_expr(f"(1 + {tau}^2)/(1 - z^2)^2")


def _disc_points(r, n=64):
    xy = np.random.default_rng(3).uniform(-1, 1, size=(4 * n, 2))
    zs = xy[:, 0] + 1j * xy[:, 1]
    return r * zs[np.abs(zs) <= 1][:n]


@pytest.mark.parametrize("tau", TAUS)
def test_atanh_family_solution_matches_closed_form(tau):
    basis = make_basis(_atanh_family(tau), r_max=0.97)
    zs = _disc_points(0.97)
    exact = np.sqrt(1 - zs ** 2) * np.cos(tau * np.arctanh(zs))
    got = basis.jet(1, zs, 0)[0]
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("r", (0.9, 0.97))
def test_atanh_family_zeros_and_separation(tau, r):
    basis = make_basis(_atanh_family(tau), r_max=r)
    seq = find_zeros(lambda z: basis.jet(1, z, 1), r)
    k = np.arange(int(tau * math.atanh(r) / math.pi + 1))
    positive = np.tanh((math.pi / 2 + math.pi * k) / tau)
    positive = positive[positive < r]
    exact = sorted(np.concatenate([-positive, positive]))
    got = sorted(z.real for z in seq.zeros)
    assert len(got) == len(exact) > 0
    assert np.max(np.abs(np.array(got) - exact)) <= 1e-12
    assert max(abs(z.imag) for z in seq.zeros) <= 1e-12
    assert abs(separation_delta(seq.zeros) - math.tanh(math.pi / tau)) <= 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_atanh_family_growth_norm(tau):
    node = _atanh_family(tau)
    report = growth_norm(lambda zs: eval_array(node, zs), 2)
    assert abs(report.value - (1 + tau ** 2)) <= 1e-12 * (1 + tau ** 2)


@pytest.mark.parametrize("s", (-1, -0.5, -0.25, 0.5))
def test_power_family_combination_is_a_power(s):
    basis = make_basis(parse_expr(f"-({s})*({s} - 1)/(1 - z)^2"), r_max=0.95)
    zs = _disc_points(0.95)
    got = basis.solution(1, -s).jet(zs, 0)[0]
    assert np.max(np.abs(got - (1 - zs) ** s)) <= 1e-12


def test_weighted_area_integral_of_a_geometric_series():
    # |0.5/(1-z)|^2 = 0.25 |sum z^n|^2 averages to 0.25 sum t^n, t = |z|^2,
    # over each circle, so the integral is pi 0.25 sum int_0^0.81
    # t^n (1-t)^3 dt = pi 0.25 int_0^0.81 (1-t)^2 dt
    got = weighted_area_integral(lambda zs: 0.5 / (1 - zs), 2, 3, r_max=0.9)
    exact = math.pi * 0.25 * (1 - 0.19 ** 3) / 3
    assert abs(got - exact) <= 1e-12
