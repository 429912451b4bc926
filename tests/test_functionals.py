import math

import numpy as np
import pytest

from discde.functionals import (
    bmoa_seminorm,
    carleson_constant,
    circle_mean,
    default_a_net,
    default_sup_radii,
    fp_norm,
    growth_norm,
    measure_of_square,
    normality_sigma,
    polar_quadrature,
    weighted_area_integral,
)
from discde.functionals import _net_values, _weighted_quadrature
from discde.schwarzian import bjest_check
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
                               r_max=1.5)


def test_polar_quadrature_moment():
    # integral of |z|^2 over the disc = pi/2
    nodes, weights = polar_quadrature(0.9999)
    val = np.sum(weights * np.abs(nodes) ** 2)
    assert val == pytest.approx(math.pi / 2, rel=1e-3)


def test_weighted_area_integral_constant():
    # integral of (1-|z|^2) dm = pi/2
    val = weighted_area_integral(lambda z: np.ones_like(z), 2.0, 1.0)
    assert val == pytest.approx(math.pi / 2, rel=1e-4)


def test_fp_norm_constant_coefficient():
    # for A = 1, p = 1 the integrand is (1-|phi_a|^2) whose integral is
    # pi/2 for every a by Mobius invariance of the normalized kernel
    rep = fp_norm(lambda zs: np.ones_like(zs), 1.0)
    assert rep.value == pytest.approx(math.pi / 2, rel=1e-3)


def test_carleson_constant_of_area_measure():
    mu = lambda zs: np.ones(len(zs))
    best, best_sq = carleson_constant(mu, max_generation=5)
    # m(Q)/l(Q) ~ l(Q)/(2 pi) * (1 - inner^2)/2... shrinks with depth, so
    # the root square wins
    assert best_sq.generation <= 2
    assert best > 0


def test_measure_of_square_consistency():
    mu = lambda zs: np.ones(len(zs))
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
    rep = growth_norm(lambda zs: np.ones_like(np.asarray(zs)), 1.0)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_net_suprema_of_non_finite_density_are_nan(bad):
    density = lambda zs: np.where(abs(zs) > 0.5, bad, 1.0)
    assert math.isnan(bmoa_seminorm(lambda zs: density(zs) + 0j).value)
    assert math.isnan(fp_norm(lambda zs: density(zs) + 0j, 1.0).value)
    assert math.isnan(fp_norm(density, 2.0).value)


class Recording:
    """Evaluator that records the points of every call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, zs):
        self.calls.append(np.array(zs, copy=True))
        return self.fn(zs)


def reference_sweep(on_points, radii, n_theta):
    """Circle by circle, the first strict maximum kept across radii."""
    best, best_z, per_radius = -np.inf, 0j, []
    for r in radii:
        zs = r * np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
        vals = on_points(zs)
        k = int(np.argmax(vals))
        per_radius.append((r, float(vals[k])))
        if vals[k] > best:
            best, best_z = float(vals[k]), complex(zs[k])
    return best, best_z, per_radius


def test_sup_sweeps_make_one_call_on_a_flat_grid():
    a = Recording(lambda zs: 0.5 / (1 - zs))
    growth_norm(a, 2.0, refine=False)
    growth_norm(a, 1.0, refine=False)
    f_jet = Recording(lambda zs: (np.sin(zs), np.cos(zs)))
    normality_sigma(f_jet)
    grid = len(default_sup_radii()) * 256
    assert [c.shape for c in a.calls] == [(grid,), (grid,)]
    assert [c.shape for c in f_jet.calls] == [(len(default_sup_radii(8)) * 64,)]


def test_growth_norm_refinement_does_not_evaluate_the_maximum_again():
    a = Recording(lambda zs: 0.5 / (1 - zs))
    sweep = growth_norm(a, 2.0, refine=False)
    a.calls.clear()
    rep = growth_norm(a, 2.0)
    assert len(a.calls) == 1 + 6  # the sweep, then one call per round
    assert a.calls[0].shape == (len(default_sup_radii()) * 256,)
    assert all(c.size > 1 for c in a.calls[1:])
    assert rep.value >= sweep.value


@pytest.mark.parametrize("fn, alpha", [
    (lambda zs: 0.5 / (1 - zs), 2.0),
    (lambda zs: -4 * zs / (1 - zs) ** 4, 2.0),
    (lambda zs: np.ones_like(zs), 2.0),  # ties: the origin comes first
    (lambda zs: np.exp(3 * zs), 1.0),
])
def test_grid_sweep_matches_a_circle_by_circle_loop(fn, alpha):
    def on_points(zs):
        return (1.0 - np.abs(zs) ** 2) ** alpha * np.abs(fn(zs))

    radii = [0.0, 0.3, 0.5, 0.75, 0.9]
    rep = growth_norm(fn, alpha, radii=radii, n_theta=64, refine=False)
    best, best_z, per_radius = reference_sweep(on_points, radii, 64)
    assert [r for r, _ in rep.per_radius] == radii
    assert [v for _, v in rep.per_radius] == pytest.approx(
        [v for _, v in per_radius], rel=1e-12)
    assert rep.value == pytest.approx(best, rel=1e-12)
    assert abs(rep.argmax - best_z) <= 1e-12


def test_normality_sigma_matches_a_circle_by_circle_loop():
    def f_jet(zs):
        return np.exp(2 * zs), 2 * np.exp(2 * zs)

    def on_points(zs):
        v, dv = f_jet(zs)
        return (1 - np.abs(zs) ** 2) * np.abs(dv) / (1 + np.abs(v) ** 2)

    radii = [0.0, 0.25, 0.5, 0.75]
    rep = normality_sigma(f_jet, radii=radii, n_theta=48)
    best, best_z, per_radius = reference_sweep(on_points, radii, 48)
    assert [v for _, v in rep.per_radius] == pytest.approx(
        [v for _, v in per_radius], rel=1e-12)
    assert rep.value == pytest.approx(best, rel=1e-12)
    assert abs(rep.argmax - best_z) <= 1e-12


def test_bjest_area_term_is_the_weighted_area_integral():
    a = lambda zs: 0.5 / (1 - zs)
    r = 0.7
    _, (_, term2), _ = bjest_check(lambda z: (np.exp(z), np.exp(z)), a, r)
    assert term2 == r * r * weighted_area_integral(a, 2, 3, r_max=r,
                                                   n_radial=48)


def test_measure_of_square_makes_one_call():
    mu = Recording(lambda zs: np.ones(len(zs)))
    q = CarlesonSquare(3, 2)
    value = measure_of_square(mu, q, r_max=0.9999)
    assert len(mu.calls) == 1
    # area of the box: (theta_hi - theta_lo) (r_max^2 - inner^2) / 2
    expected = (q.theta_hi - q.theta_lo) * (0.9999 ** 2 - q.inner_radius ** 2) / 2
    assert value == pytest.approx(expected, rel=1e-12)


def reference_refine(on_points, best, best_z, scale, rounds=6, n=9):
    """The nested grid search with the centre of each grid evaluated."""
    for _ in range(rounds):
        offs = np.linspace(-scale, scale, n)
        zs = best_z + (offs[:, None] + 1j * offs[None, :]).ravel()
        zs = zs[np.abs(zs) < 1]
        vals = on_points(zs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_z = float(vals[k]), complex(zs[k])
        scale /= 3.0
    return best, best_z


@pytest.mark.parametrize("fn, alpha", [
    (lambda zs: 0.5 / (1 - zs), 2.0),
    (lambda zs: np.exp(2 * zs) / (1 - 0.9j * zs) ** 3, 1.0),
])
def test_growth_norm_refinement_skips_the_current_maximum(fn, alpha):
    def on_points(zs):
        return (1.0 - np.abs(zs) ** 2) ** alpha * np.abs(fn(zs))

    a = Recording(fn)
    sweep = growth_norm(a, alpha, refine=False)
    a.calls.clear()
    rep = growth_norm(a, alpha)
    best, best_z = sweep.value, sweep.argmax
    for zs in a.calls[1:]:
        assert not np.any(zs == best_z)
        vals = on_points(zs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_z = float(vals[k]), complex(zs[k])
    scale = max((1 - abs(sweep.argmax)) / 2,
                2 * np.pi * abs(sweep.argmax) / 256)
    assert (rep.value, rep.argmax) == (best, best_z) == reference_refine(
        on_points, sweep.value, sweep.argmax, scale)


def test_weighted_area_integral_makes_one_call():
    a = Recording(lambda zs: 0.5 / (1 - zs))
    weighted_area_integral(a, 2.0, 3.0)
    assert [c.shape for c in a.calls] == [polar_quadrature()[0].shape]


def test_fp_norm_evaluates_its_coefficient_once():
    a = Recording(lambda zs: 0.5 / (1 - zs))
    fp_norm(a, 1.0)
    assert len(a.calls) == 1


@pytest.mark.parametrize("net_sup, depth", [
    (lambda fn: fp_norm(fn, 1.0), 4),
    (lambda fn: fp_norm(fn, 2.0), 4),
    (bmoa_seminorm, 3),
])
def test_net_suprema_report_the_maximum_of_each_ring(net_sup, depth):
    rep = net_sup(lambda zs: np.exp(2 * zs) / (1 - 0.9j * zs))
    assert [r for r, _ in rep.per_radius] == [0.0] + [
        1 - 2.0 ** -j for j in range(1, depth + 1)]
    assert max(v for _, v in rep.per_radius) == rep.value
    assert rep.argmax in default_a_net(depth)
