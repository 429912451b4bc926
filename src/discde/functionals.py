"""Integral means, growth norms, Carleson-measure constants and related
functionals on the unit disc.

Conventions: every supremum over the disc is a SupremumReport, a lower
bound with the per-radius maxima (per ring of the a-net for fp_norm and
bmoa_seminorm), so divergence is visible in the data.  Limits r -> 1- are
replaced by evaluation on the dyadic radii 1 - 2^-j of geometry.dyadic_edges.
Each quantity is computed once: an area integral is one polar quadrature,
a net supremum one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import dyadic_edges, generation_squares, unit_roots

TWO_PI = 2.0 * math.pi


@dataclass
class SupremumReport:
    """Lower-bound report for a sup-type functional."""

    value: float
    argmax: complex
    per_radius: list  # (radius, max over the circle)


# ---------------------------------------------------------------------------
# circle means


def circle_mean(f, r, p, n_points=64, tol=1e-8, max_points=1 << 16):
    """(1/2pi) * integral of |f(r e^(i theta))|^p, composite trapezoid.

    ``f`` is a vectorized evaluator: it maps an array of points to the array
    of values.  Periodic analytic integrands converge geometrically; points
    double until the relative change drops below tol.
    """
    if p <= 0:
        raise ValueError("exponent p must be positive")
    if n_points < 64 or n_points & (n_points - 1):
        raise ValueError("n_points must be a power of two >= 64")
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    n, prev = n_points, None
    while True:
        values = np.asarray(f(r * unit_roots(n)), dtype=complex)
        mean = float(np.mean(np.abs(values) ** p))
        if prev is not None and abs(mean - prev) <= tol * (1 + abs(mean)):
            return mean
        if n >= max_points:
            return mean
        prev = mean
        n *= 2


# ---------------------------------------------------------------------------
# sup-type functionals


def default_sup_radii(depth=10, r_cap=0.999):
    """The dyadic radii 0, 1/2, ..., 1 - 2^-depth up to r_cap."""
    return [r for r in dyadic_edges(0.0, 1 - 2.0 ** -depth) if r <= r_cap]


def _grid_sup(values_on_points, radii, n_theta):
    """Sweep the radii x unit_roots(n_theta) grid in one call of the
    elementwise ``values_on_points`` on its points as a 1-D array.
    Returns (best, argmax, [(radius, max over its circle)]), the argmax
    the first maximum in radius-then-angle order; a NaN value wins."""
    zs = (np.asarray(radii, dtype=float)[:, None] * unit_roots(n_theta)).ravel()
    vals = np.asarray(values_on_points(zs), dtype=float)
    k = int(np.argmax(vals))
    per_radius = vals.reshape(len(radii), n_theta).max(axis=1)
    return float(vals[k]), complex(zs[k]), list(zip(radii, per_radius.tolist()))


_REFINE_ROUNDS = 6
_REFINE_GRID = 9  # odd, so the grid has a centre


def _local_refine(values_on_points, best, best_z, scale):
    """Nested grid search around the sweep's maximum ``best`` at ``best_z``,
    which it does not evaluate again: one call per round on the
    _REFINE_GRID x _REFINE_GRID grid without its centre."""
    n = _REFINE_GRID
    for _ in range(_REFINE_ROUNDS):
        offs = np.linspace(-scale, scale, n)
        zs = best_z + np.delete((offs[:, None] + 1j * offs[None, :]).ravel(),
                                n * n // 2)
        zs = zs[np.abs(zs) < 1]
        if len(zs) == 0:
            break
        vals = values_on_points(zs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_z = float(vals[k]), complex(zs[k])
        scale /= 3.0
    return best, best_z


def growth_norm(A, alpha, radii=None, n_theta=256, refine=True):
    """Lower bound for sup (1 - |z|^2)^alpha |A(z)| with divergence data.

    ``A`` is a vectorized evaluator.  Returns a SupremumReport carrying the
    per-radius maxima (their trend reveals divergence) and the argmax.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    radii = default_sup_radii() if radii is None else list(radii)

    def on_points(zs):
        w = (1.0 - np.abs(zs) ** 2) ** alpha
        return w * np.abs(np.asarray(A(zs), dtype=complex))

    best, best_z, per_radius = _grid_sup(on_points, radii, n_theta)
    if refine and abs(best_z) > 0:
        scale = max((1 - abs(best_z)) / 2, TWO_PI * abs(best_z) / n_theta)
        best, best_z = _local_refine(on_points, best, best_z, scale)
    return SupremumReport(best, best_z, per_radius)


def normality_sigma(f_jet, radii=None, n_theta=64):
    """Spherical-derivative supremum sigma(f): sup (1-|z|^2)|f'|/(1+|f|^2).

    ``f_jet`` is a vectorized evaluator: it maps an array of points to the
    pair of arrays (f, f'), as ``lambda zs: f.jet(zs, 1)`` does for a
    solution f.
    """
    radii = default_sup_radii(depth=8) if radii is None else list(radii)

    def on_points(zs):
        v, dv = f_jet(zs)
        return (1 - np.abs(zs) ** 2) * np.abs(dv) / (1 + np.abs(v) ** 2)

    return SupremumReport(*_grid_sup(on_points, radii, n_theta))


# ---------------------------------------------------------------------------
# area quadrature


def polar_quadrature(r_max=0.999, n_radial=64, n_theta=256):
    """Nodes and weights for integrals over the disc against area measure.

    Gauss-Legendre radial nodes on dyadic annuli (integrands are smooth per
    annulus, singular only at the boundary) times a uniform trapezoid in the
    angle.  Returns (nodes, weights) with sum(w * g(z)) ~ integral g dm.
    """
    radii, rdr = _radial_rule(0.0, r_max, n_radial)
    nodes = (radii[:, None] * unit_roots(n_theta)).ravel()
    return nodes, np.repeat(rdr * (TWO_PI / n_theta), n_theta)


def _radial_rule(lo, r_max, n_radial):
    """(radii, r dr weights) of n_radial-point Gauss-Legendre on each
    annulus of dyadic_edges(lo, r_max), annulus by annulus outward."""
    edges = np.array(dyadic_edges(lo, r_max))
    a, b = edges[:-1, None], edges[1:, None]
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    rr = 0.5 * (b - a) * x + 0.5 * (b + a)
    return rr.ravel(), (0.5 * (b - a) * wx * rr).ravel()


def weighted_area_integral(A, p, beta, r_max=0.999, n_radial=64):
    """integral over |z| < r_max of |A|^p (1-|z|^2)^beta dm, by one
    polar_quadrature."""
    if p <= 0:
        raise ValueError("p must be positive")
    nodes, weights = polar_quadrature(r_max, n_radial)
    vals = np.abs(np.asarray(A(nodes), dtype=complex)) ** p
    vals = vals * (1 - np.abs(nodes) ** 2) ** beta
    return float(np.sum(weights * vals))


def _net_rings(max_depth):
    """(radius, point count) of each ring of the a-net: the origin, then
    2^(j+3) points on the dyadic radius 1 - 2^-j."""
    edges = dyadic_edges(0.0, 1 - 2.0 ** -max_depth)
    return [(0.0, 1)] + [(r, 8 * 2 ** j) for j, r in enumerate(edges[1:], 1)]


def default_a_net(max_depth=10):
    """Pseudo-hyperbolically spread net {r_j e^(i theta)}: r_j = 1 - 2^-j with
    2^(j+3) angles per ring (boundary-concentrated, Möbius-aware)."""
    return [a for r, n in _net_rings(max_depth) for a in r * unit_roots(n)]


def _weighted_quadrature(density, r_max, n_radial, n_theta):
    """(radii, weights * density on the radii x angles grid) of the polar
    rule; a non-finite density value makes the whole grid NaN."""
    nodes, weights = polar_quadrature(r_max, n_radial, n_theta)
    weighted = (weights * density(nodes)).reshape(-1, n_theta)
    if not np.isfinite(weighted).all():
        weighted[:] = np.nan
    return nodes[::n_theta].real, weighted


def _net_values(depth, rule):
    """Integrals of the Poisson kernel (1 - |a|^2) / |1 - conj(a) z|^2 against
    the weighted rule at each a of default_a_net(depth), in its order.  The
    kernel depends on the angles only through cos(arg z - arg a), so an
    m-point ring is every (n/m)-th entry of one circular convolution over the
    n angles, which m divides in the rules of fp_norm and bmoa_seminorm."""
    radii, weighted = rule
    n = weighted.shape[1]
    r, cos = radii[:, None], np.cos(TWO_PI * np.arange(n) / n)
    spectrum, rings = np.fft.rfft(weighted), []
    for rho, m in _net_rings(depth):
        kernel = (1 - rho * rho) / ((1 - rho * r) ** 2 + 2 * rho * r * (1 - cos))
        product = np.fft.rfft(kernel) * spectrum
        rings.append(np.fft.irfft(product.sum(axis=0), n)[:: n // m])
    return np.concatenate(rings)


def _net_sup(depth, density, r_max, n_radial, n_theta, root):
    """SupremumReport of root(_net_values) on one rule: the first maximum
    in net order and the maximum of each ring.  ``root`` is monotone and
    applied after the maxima, so it moves no argmax."""
    rings = _net_rings(depth)
    values = _net_values(depth, _weighted_quadrature(density, r_max,
                                                     n_radial, n_theta))
    k = int(np.argmax(values))
    per_ring = np.split(values, np.cumsum([m for _, m in rings])[:-1])
    per_radius = [(rho, root(float(np.max(v))))
                  for (rho, _), v in zip(rings, per_ring)]
    return SupremumReport(root(float(values[k])),
                          complex(default_a_net(depth)[k]), per_radius)


def fp_norm(A, p):
    """Lower bound for the Carleson-type coefficient norm

        sup_a ( integral |A|^p (1-|z|^2)^(2p-2) (1-|phi_a(z)|^2) dm )^(1/p)

    over the 4-ring default_a_net and a 256-angle polar rule to 0.999, with
    the maximum on each ring.  NaN when A is not finite on a node.
    """
    if p <= 0:
        raise ValueError("p must be positive")

    # 1 - |phi_a(z)|^2 is (1 - |z|^2) times the Poisson kernel of _net_values
    def density(nodes):
        return (np.abs(np.asarray(A(nodes), dtype=complex)) ** p
                * (1 - np.abs(nodes) ** 2) ** (2 * p - 1))

    return _net_sup(4, density, 0.999, 64, 256, lambda v: v ** (1.0 / p))


def measure_of_square(mu, square, r_max=0.999, n_radial=32, n_theta=64):
    """mu(Q) truncated at r_max in one call of ``mu``: the radial rule of
    polar_quadrature from Q's inner radius times n_theta arc midpoints."""
    lo = square.inner_radius
    if lo >= r_max:
        return 0.0
    radii, rdr = _radial_rule(lo, r_max, n_radial)
    t_lo, t_hi = square.theta_lo, square.theta_hi
    thetas = t_lo + (t_hi - t_lo) * (np.arange(n_theta) + 0.5) / n_theta
    nodes = (radii[:, None] * np.exp(1j * thetas)).ravel()
    weights = np.repeat(rdr * ((t_hi - t_lo) / n_theta), n_theta)
    return float(np.sum(weights * np.asarray(mu(nodes), dtype=float)))


def carleson_constant(mu, max_generation=6, r_max=0.999, n_radial=32, n_theta=64):
    """max over dyadic squares (up to a generation cap) of mu(Q)/l(Q), for
    d(mu) = mu(z) dm(z) with ``mu`` a vectorized nonnegative density."""
    best, best_sq = -np.inf, None
    for n in range(1, max_generation + 1):
        for sq in generation_squares(n):
            value = measure_of_square(mu, sq, r_max, n_radial, n_theta) / sq.ell
            if value > best:
                best, best_sq = value, sq
    return best, best_sq


def bmoa_seminorm(fprime, r_max=0.99):
    """Net-sup lower bound for the square root of sup_a integral |f'|^2
    (1 - |phi_a(z)|^2) dm over the 3-ring default_a_net and a 128-angle polar
    rule to r_max, with the maximum on each ring.  NaN when f' is not finite
    on a node.

    ``fprime`` is a vectorized evaluator of the derivative: it maps an array
    of points to the array of values.
    """

    def density(nodes):  # with the 1 - |z|^2 of 1 - |phi_a|^2, as in fp_norm
        return (np.abs(np.asarray(fprime(nodes), dtype=complex)) ** 2
                * (1 - np.abs(nodes) ** 2))

    return _net_sup(3, density, r_max, 48, 128,
                    lambda v: math.sqrt(max(v, 0.0)))
