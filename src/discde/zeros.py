"""Zero localization for analytic functions on discs, plus the geometric
zero-distribution statistics (pseudo-hyperbolic separation, Jensen's
identity).

The locator is argument-principle driven: count zeros in |z| < r by the
winding number of f, localize them from the power-sum moments of the
logarithmic derivative (the companion polynomial of the Newton identities),
polish with Newton iteration, and certify each zero with a small winding
circle.  Annuli with many zeros are split radially until each piece holds
few enough zeros for the moment method to stay well conditioned.

Every function takes the evaluator of the functionals, ``f_jet(z) -> (f, f')``
elementwise on a point or an array; a contour is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .geometry import dyadic_edges, rho_p, unit_roots

# Moment localization degrades beyond a handful of zeros per region.
_MAX_CLUSTER = 6
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_MAX_COUNT_POINTS = 1 << 15
# Negative frequencies of z f'/f below this share of its size: converged.
_LOG_TAIL = 1e-13
# Contour nudges off a zero or a non-finite value before a count gives up.
_MAX_NUDGES = 16
# ZeroSequence order: rounding far above the last-bit noise of a zero.
_ORDER_DECIMALS = 9


class ZeroLocationError(RuntimeError):
    """A zero failed certification or a count would not stabilize."""


def _values_on_circle(f_jet, center, r, n):
    """(f, f') on n equispaced points of |z - center| = r, in one call."""
    zs = center + r * unit_roots(n)
    vals, ders = f_jet(zs)
    return zs, vals, ders


def _degenerate(vals):
    """Whether some value is zero or not finite."""
    return bool(np.any(vals == 0) or np.any(~np.isfinite(vals)))


def count_zeros(f_jet, center, r, n_max=_MAX_COUNT_POINTS):
    """Number of zeros in |z - center| < r by the argument principle.

    Trapezoid sums of f'/f on the circle, from 64 points, are doubled until
    the estimate is within 1/4 of an integer and stable across one doubling;
    each level is one ``f_jet`` call.
    """
    n = 64
    prev = None
    nudges = 0
    while n <= n_max:
        zs, vals, ders = _values_on_circle(f_jet, center, r, n)
        if _degenerate(vals):
            nudges += 1
            if nudges > _MAX_NUDGES:
                raise ZeroLocationError(
                    f"f vanishes or is not finite on |z - {center}| = {r}"
                )
            r *= 1.0 + 1e-7  # nudge off an exact zero on the contour
            continue
        integrand = ders / vals * (zs - center)
        estimate = float(np.real(np.mean(integrand)))
        rounded = round(estimate)
        if abs(estimate - rounded) < 0.25 and prev == rounded:
            return int(rounded)
        prev = rounded
        n *= 2
    raise ZeroLocationError(
        f"winding count on |z - {center}| = {r} did not stabilize"
    )


def _moments(f_jet, center, r, count, n):
    """Power sums s_k = sum z_i^k of the zeros inside, k = 1..count,
    relative to the circle center."""
    zs, vals, ders = _values_on_circle(f_jet, center, r, n)
    w = ders / vals * (zs - center)
    powers = (zs - center) ** np.arange(1, count + 1)[:, None]
    return np.mean(w * powers, axis=1)


def analytic_log(f_jet, z):
    """log f at a point or an array z, on the branch through the principal
    log f(0), for f zero-free on |u| <= R = max |z|.

    The FFT of u f'/f on |u| = R gives k c_k, the coefficients of
    log f = sum c_k (u/R)^k; the point count doubles from 64 until the
    negative frequencies, where only aliasing lands, are at rounding level.
    Each level is one ``f_jet`` call, and f(0) one more.  ZeroLocationError
    when f is 0 or not finite on the circle, when it converges with a
    nonzero winding number, and when it does not by ``_MAX_COUNT_POINTS``.
    """
    z = np.asarray(z, dtype=complex)
    r = float(np.max(np.abs(z), initial=0.0))
    if r < np.finfo(float).tiny:  # 1/R overflows; log f is log f(0) there
        r = 0.0
    n = 64
    while n <= _MAX_COUNT_POINTS:
        zs, vals, ders = _values_on_circle(f_jet, 0.0, r, n)
        if _degenerate(vals):
            raise ZeroLocationError(f"f is 0 or not finite on |z| = {r}")
        g = ders / vals * zs
        spec = np.fft.fft(g) / n
        winding = round(spec[0].real)
        if np.max(np.abs(spec[n // 2 + 1:])) <= _LOG_TAIL * np.max(np.abs(g)):
            if winding:
                raise ZeroLocationError(f"f has {winding} zeros in |z| < {r}")
            coeffs = spec[:n // 2] / np.maximum(np.arange(n // 2), 1)
            coeffs[0] = np.log(complex(f_jet(0.0)[0]))
            return np.polynomial.polynomial.polyval(z / r if r else z, coeffs)
        n *= 2
    raise ZeroLocationError(f"log f on |z| = {r} did not converge; "
                            f"winding number {winding}")


def _power_sums_to_poly(s):
    """Monic polynomial with the given Newton power sums as its root sums."""
    n = len(s)
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * s[j - 1]
        e[k] = acc / k
    # coefficients of prod (x - z_i) = sum (-1)^k e_k x^(n-k)
    return np.array([(-1) ** k * e[k] for k in range(n + 1)])


def _newton_polish(f_jet, z0):
    z = complex(z0)
    for _ in range(_NEWTON_MAX_ITER):
        v, d = f_jet(z)
        if d == 0:
            break
        step = v / d
        z = z - step
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(z)):
            return z
    return z


def _certify(f_jet, zero, radius):
    """Winding number 1 on a small circle around the polished zero."""
    try:
        return count_zeros(f_jet, zero, radius, n_max=4096) == 1
    except ZeroLocationError:
        return False


def _locate_in_annulus(f_jet, r_lo, r_hi, n_lo, n_hi, found, depth=0):
    """Zeros with r_lo < |z| <= r_hi, given the counts n_lo and n_hi inside
    |z| < r_lo and |z| < r_hi, by moment localization with radial splitting
    when the cluster is too large; each split radius is counted once."""
    n_here = n_hi - n_lo
    if n_here == 0:
        return
    if n_here > _MAX_CLUSTER and depth < 40:
        r_mid = 0.5 * (r_lo + r_hi)
        n_mid = count_zeros(f_jet, 0.0, r_mid)
        _locate_in_annulus(f_jet, r_lo, r_mid, n_lo, n_mid, found, depth + 1)
        _locate_in_annulus(f_jet, r_mid, r_hi, n_mid, n_hi, found, depth + 1)
        return
    # moments over |z| < r_hi include the already-found inner zeros; subtract
    n_pts = 1 << 12
    s = _moments(f_jet, 0.0, r_hi, n_hi, n_pts)
    inner = [z for z in found if abs(z) <= r_lo]
    for k in range(1, n_hi + 1):
        s[k - 1] -= sum(z ** k for z in inner)
    coeffs = _power_sums_to_poly(s[:n_here])
    candidates = np.roots(coeffs) if n_here > 0 else []
    for cand in candidates:
        # a jittered start is the one retry before giving up
        for start in (cand, cand * (1 + 1e-3) + 1e-5):
            zero = _newton_polish(f_jet, start)
            sep = min((abs(zero - z) for z in found), default=np.inf)
            radius = min(0.25 * (1 - abs(zero)), 1e-4, 0.4 * sep)
            if radius > 0 and _certify(f_jet, zero, radius):
                break
        else:
            raise ZeroLocationError(
                f"candidate zero near {cand} failed winding certification"
            )
        found.append(complex(zero))


@dataclass
class ZeroSequence:
    """Zeros in |z| < r_max, sorted by modulus, real part, imaginary part,
    each rounded to ``_ORDER_DECIMALS`` decimals, so that zeros of equal
    modulus come out in one order whatever the last bits of the moduli."""

    zeros: list
    r_max: float
    residuals: list = field(default_factory=list)

    def __len__(self):
        return len(self.zeros)

    def __iter__(self):
        return iter(self.zeros)


def divide_out_origin(f_jet):
    """Elementwise evaluator of f(z)/z for f with a simple zero at 0.

    At the origin the jet is probed at z = 1e-7, where f(z)/z is f'(0) up
    to |f''(0)| 1e-7 / 2; no higher-order jet of f is needed.
    """
    def deflated(z):
        z = np.where(z == 0, 1e-7, z)
        v, d = f_jet(z)
        return v / z, (d * z - v) / (z * z)
    return deflated


def find_zeros(f_jet, r_max=0.99, deflate_origin=False):
    """All zeros of f in |z| < r_max, as Python complex numbers in the
    order of ``ZeroSequence``; ``f_jet(z)`` is elementwise (f(z), f'(z)).

    Every zero is certified by a unit winding number on a small circle and
    the residuals |f(zero)| are recorded, from one call on all zeros.  A
    simple zero at the origin is divided out when ``deflate_origin`` is set.
    """
    if not 0 < r_max < 1:
        raise ValueError("r_max must lie in (0, 1)")
    found = []
    v0, d0 = f_jet(0.0)
    if v0 == 0:
        if not deflate_origin:
            raise ZeroLocationError("zero at the origin; normalize first")
        if d0 == 0:
            raise ZeroLocationError("multiple zero at the origin")
        inner = find_zeros(divide_out_origin(f_jet), r_max)
        return ZeroSequence([0.0 + 0.0j] + inner.zeros, r_max,
                            [0.0] + inner.residuals)
    # annuli between dyadic radii keep per-region counts small near r = 1;
    # each annulus hands its outer count to the next as the inner one
    edges = dyadic_edges(0.0, r_max)
    n_lo = 0
    for lo, hi in zip(edges, edges[1:]):
        n_hi = count_zeros(f_jet, 0.0, hi)
        _locate_in_annulus(f_jet, lo, hi, n_lo, n_hi, found)
        n_lo = n_hi
    found.sort(key=lambda z: tuple(round(x, _ORDER_DECIMALS)
                                   for x in (abs(z), z.real, z.imag)))
    vals = f_jet(np.array(found, dtype=complex))[0]
    residuals = np.broadcast_to(np.abs(vals), len(found)).tolist()
    return ZeroSequence(found, r_max, residuals)


# ---------------------------------------------------------------------------
# geometric statistics


def separation_delta(points):
    """min over pairs of the pseudo-hyperbolic distance (1.0 if < 2 points)."""
    return min((rho_p(a, b) for a, b in combinations(points, 2)), default=1.0)


def jensen_check(f_jet, zeros, r):
    """Jensen identity residual on |z| = r, from 4096 points:

        mean of log|f| - log|f(0)| - sum_{|z_i|<r} log(r/|z_i|).

    A small residual certifies the zero list is complete inside |z| < r.
    ``f_jet`` is called on the circle and at 0; a zero or non-finite value
    there raises ``ZeroLocationError``.
    """
    _, vals, _ = _values_on_circle(f_jet, 0.0, r, 1 << 12)
    v0 = f_jet(0.0)[0]
    if _degenerate(np.append(vals, v0)):
        raise ZeroLocationError(f"f is 0 or not finite on |z| = {r} or at 0")
    mean_log = float(np.mean(np.log(np.abs(vals))))
    zero_part = sum(math.log(r / abs(z)) for z in zeros if abs(z) < r)
    return mean_log - math.log(abs(v0)) - zero_part
