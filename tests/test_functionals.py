import math

import numpy as np
import pytest

from discde.functionals import (
    MeasureDensity,
    RadialProfile,
    area_integral,
    bloch_seminorm,
    bmoa_seminorm,
    carleson_constant,
    carleson_embedding_constant,
    circle_mean,
    default_a_net,
    fp_norm,
    growth_norm,
    measure_of_square,
    nevanlinna_m,
    normality_sigma,
    polar_quadrature,
    weighted_area_integral,
)
from discde.functionals import _net_values, _weighted_quadrature
from discde.geometry import CarlesonSquare, phi


def bessel_i0(x):
    return sum((x / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(40))


def test_circle_mean_exponential():
    # mean of |e^z|^2 on |z|=r equals I_0(2r)
    for r in (0.3, 0.8):
        assert circle_mean(np.exp, r, 2.0) == pytest.approx(bessel_i0(2 * r),
                                                            rel=1e-9)


def test_circle_mean_power_of_monomial():
    # |z|^p is constant on circles
    assert circle_mean(lambda z: z, 0.5, 3.0) == pytest.approx(0.125)


def test_nevanlinna_m_bounded_function():
    # |f| <= 1 gives zero proximity function
    assert nevanlinna_m(lambda z: 0.5 * z, 0.9) == 0.0


def test_nevanlinna_m_exponential():
    # m(r, e^z) = (1/2pi) int max(r cos t, 0) dt = r/pi
    assert nevanlinna_m(np.exp, 0.8) == pytest.approx(0.8 / math.pi, rel=1e-7)


def test_radial_profile_monotone_flag():
    p = RadialProfile([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
    assert p.monotone
    q = RadialProfile([0.1, 0.5], [2.0, 1.0])
    assert not q.monotone


def test_growth_norm_constant():
    # (1-|z|^2)^2 * 1 is maximal at the origin
    rep = growth_norm(lambda zs: np.ones_like(zs), 2.0)
    assert rep.value == pytest.approx(1.0)
    assert abs(rep.argmax) < 1e-9


def test_growth_norm_rational():
    # sup (1-|z|^2)^2 |0.5/(1-z)| = 16/27 at z = 1/3
    rep = growth_norm(lambda zs: 0.5 / (1 - zs), 2.0)
    assert rep.value == pytest.approx(16 / 27, rel=1e-6)
    assert abs(rep.argmax - 1 / 3) < 1e-3


def test_growth_norm_divergence_visible():
    rep = growth_norm(lambda zs: -4 * zs / (1 - zs) ** 4, 2.0, refine=False)
    per = dict(rep.per_radius)
    assert per[0.99609375] > 50 * per[0.96875]


def test_polar_quadrature_area():
    nodes, weights = polar_quadrature(0.999)
    assert weights.sum() == pytest.approx(math.pi * 0.999**2, abs=1e-10)


def test_polar_quadrature_below_first_dyadic_radius():
    # r_max < 1/2 must not fall back to the fixed 1/2 edge
    nodes, weights = polar_quadrature(0.3)
    assert weights.sum() == pytest.approx(math.pi * 0.09, abs=1e-12)
    assert np.abs(nodes).max() <= 0.3


def test_polar_quadrature_rejects_radius_outside_disc():
    with pytest.raises(ValueError):
        polar_quadrature(1.5)
    with pytest.raises(ValueError):
        weighted_area_integral(lambda z: np.ones_like(z), 2.0, 1.0,
                               r_maxes=(1.5,))


def test_polar_quadrature_moment():
    # integral of |z|^2 over the disc = pi/2
    nodes, weights = polar_quadrature(0.9999)
    val = area_integral(lambda z: np.abs(z) ** 2, nodes, weights)
    assert val == pytest.approx(math.pi / 2, rel=1e-3)


def test_weighted_area_integral_constant():
    # integral of (1-|z|^2) dm = pi/2
    val, trend = weighted_area_integral(lambda z: np.ones_like(z), 2.0, 1.0)
    assert val == pytest.approx(math.pi / 2, rel=1e-4)
    assert trend[0][1] <= trend[-1][1]


def test_fp_norm_constant_coefficient():
    # for A = 1, p = 1 the integrand is (1-|phi_a|^2) whose integral is
    # pi/2 for every a by Mobius invariance of the normalized kernel
    rep = fp_norm(lambda zs: np.ones_like(zs), 1.0)
    assert rep.value == pytest.approx(math.pi / 2, rel=1e-3)


def test_carleson_embedding_area_measure():
    # d(mu) = dm: integrals (1-|a|^2)/|1-conj(a)z|^2 dm stay bounded by pi
    mu = MeasureDensity(lambda zs: np.ones(len(zs)), tag="area")
    rep = carleson_embedding_constant(mu)
    assert rep.value <= math.pi + 1e-6
    assert rep.value > 1.0


def test_carleson_constant_of_area_measure():
    mu = MeasureDensity(lambda zs: np.ones(len(zs)))
    best, best_sq = carleson_constant(mu, max_generation=5)
    # m(Q)/l(Q) ~ l(Q)/(2 pi) * (1 - inner^2)/2... shrinks with depth, so
    # the root square wins
    assert best_sq.generation <= 2
    assert best > 0


def test_measure_of_square_consistency():
    mu = MeasureDensity(lambda zs: np.ones(len(zs)))
    q = CarlesonSquare(2, 1)
    m_q = measure_of_square(mu, q, r_max=0.9999)
    c1, c2 = q.children()
    # children cover the outer half of Q's angular sector
    m_children = (measure_of_square(mu, c1, r_max=0.9999)
                  + measure_of_square(mu, c2, r_max=0.9999))
    assert m_children < m_q
    # exact area of the truncated box: theta span * int_r r dr
    exact = math.pi * (0.9999**2 - 0.5**2) / 2
    assert m_q == pytest.approx(exact, rel=1e-6)


def test_bloch_seminorm_of_identity():
    # f(z) = z: sup (1-|z|^2)*1 = 1
    rep = bloch_seminorm(lambda zs: np.ones_like(np.asarray(zs)))
    assert rep.value == pytest.approx(1.0)


def test_bmoa_seminorm_finite_for_linear():
    rep = bmoa_seminorm(lambda zs: np.ones_like(np.asarray(zs)))
    assert 0 < rep.value < 2


def test_normality_sigma_identity():
    # f(z) = z: (1-|z|^2)/(1+|z|^2) maximal at 0
    rep = normality_sigma(lambda z: (z, 1.0))
    assert rep.value == pytest.approx(1.0)


def test_default_a_net_inside_disc():
    net = default_a_net(max_depth=5)
    assert all(abs(a) < 1 for a in net)
    assert 0j in net


@pytest.mark.parametrize("depth", [3, 4])
def test_net_values_match_closed_form_kernels(depth):
    # every net point against the direct sums of both kernels; the
    # automorphism kernel is the Poisson kernel times 1 - |z|^2
    nodes, weights = polar_quadrature(0.999, 16, 256)
    density = np.random.default_rng(depth).uniform(0.1, 1.0, nodes.size)
    net = default_a_net(depth)
    for factor, kernel in [
        (1.0, lambda a: (1 - abs(a) ** 2) / np.abs(1 - np.conj(a) * nodes) ** 2),
        (1 - np.abs(nodes) ** 2, lambda a: 1 - np.abs(phi(a, nodes)) ** 2),
    ]:
        rule = _weighted_quadrature(lambda z: density * factor, 0.999, 16, 256)
        got = _net_values(depth, rule)
        expected = np.array([np.sum(weights * density * kernel(a)) for a in net])
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


def test_net_angle_count_must_be_a_multiple_of_the_outer_ring():
    one = lambda zs: np.ones_like(zs)
    with pytest.raises(ValueError):
        fp_norm(one, 1.0, n_theta=200)
    with pytest.raises(ValueError):
        fp_norm(one, 1.0, n_theta=128)  # coarsened rule: 64 angles
    with pytest.raises(ValueError):
        carleson_embedding_constant(MeasureDensity(lambda zs: np.ones(len(zs))),
                                    n_theta=192)
    with pytest.raises(ValueError):
        bmoa_seminorm(one, n_theta=96)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_net_suprema_of_non_finite_density_are_nan(bad):
    density = lambda zs: np.where(abs(zs) > 0.5, bad, 1.0)
    assert math.isnan(bmoa_seminorm(lambda zs: density(zs) + 0j).value)
    assert math.isnan(fp_norm(lambda zs: density(zs) + 0j, 1.0).value)
    assert math.isnan(
        carleson_embedding_constant(MeasureDensity(density)).value)
