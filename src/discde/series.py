"""Truncated power series with an estimated trust radius.

A :class:`PowerSeries` stores Taylor coefficients about a center together
with a radius inside which the truncation tail is estimated to stay below
``TAIL_TOL``.  All arithmetic is plain truncated Cauchy-product calculus;
degrees stay small so no FFT is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tail estimate target at the trust radius.
TAIL_TOL = 1e-11

# Safety factor applied on top of the coefficient-decay estimate.
TRUST_SAFETY = 0.75

# Stand-in radius for series whose tail vanishes identically (polynomials).
UNBOUNDED_RADIUS = 1e9

MAX_DEGREE = 512


class TrustRadiusError(ValueError):
    """A non-positive trust radius, or evaluation beyond it."""


def estimate_trust_radius(coeffs):
    """Largest radius at which the extrapolated tail stays below TAIL_TOL.

    Ratio test on the trailing window of 8 coefficients, geometric
    extrapolation of the tail, conservative by TRUST_SAFETY.  A series
    with an identically vanishing trailing window (a polynomial at this
    resolution) gets UNBOUNDED_RADIUS.
    """
    a = np.abs(np.asarray(coeffs, dtype=complex))
    scale = a.max(initial=0.0)
    if scale == 0.0:
        return UNBOUNDED_RADIUS
    n_top = len(a) - 1
    trailing_zeros = 0
    while trailing_zeros < n_top and a[n_top - trailing_zeros] == 0.0:
        trailing_zeros += 1
    if trailing_zeros >= min(4, n_top):
        return UNBOUNDED_RADIUS
    tol = TAIL_TOL * scale
    window = [k for k in range(max(1, n_top - 7), n_top + 1) if a[k] > 0.0]
    if not window:
        return UNBOUNDED_RADIUS
    # single-term bound: a_k r^k <= tol for every window coefficient
    r = min((tol / a[k]) ** (1.0 / k) for k in window)
    # local growth rate of the coefficients (can exceed 1 before the decay
    # regime sets in, e.g. for essential singularities on the boundary)
    ratios = [
        (a[k2] / a[k1]) ** (1.0 / (k2 - k1))
        for k1, k2 in zip(window, window[1:])
    ]
    rho = max(ratios) if ratios else (a[window[-1]] / scale) ** (1.0 / window[-1])
    if rho > 0.0:
        r = min(r, 0.95 / rho)
        m = window[-1]
        for _ in range(200):
            q = rho * r
            tail = a[m] * r**m * q / (1.0 - q)
            if tail <= tol:
                break
            r *= 0.93
    return TRUST_SAFETY * r


def mul_trunc(a, b, n):
    """First n coefficients of the Cauchy product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.convolve(a, b)[:n]


def div_trunc(num, den, n):
    """First n coefficients of num/den; den[0] must be nonzero."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if den[0] == 0:
        raise ZeroDivisionError("series division by a series vanishing at the center")
    q = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = num[k] if k < len(num) else 0.0
        j_max = min(k, len(den) - 1)
        if j_max >= 1:
            acc = acc - np.dot(den[1 : j_max + 1], q[k - 1 :: -1][:j_max])
        q[k] = acc / den[0]
    return q


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor expansion about ``center`` with a trust radius."""

    center: complex
    coeffs: np.ndarray = field(repr=False)
    trust_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if not self.trust_radius > 0:
            raise TrustRadiusError("trust_radius must be positive")

    def evaluate(self, z):
        """Horner evaluation; valid only inside the trust radius."""
        z = complex(z)
        if abs(z - self.center) > self.trust_radius * (1 + 1e-12):
            raise TrustRadiusError(
                f"evaluation at {z} outside trust radius {self.trust_radius} "
                f"around {self.center}"
            )
        u = z - self.center
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * u + c
        return acc
