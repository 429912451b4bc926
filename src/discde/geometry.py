"""Unit-disc geometry: disc automorphisms, the pseudo-hyperbolic metric,
dyadic Carleson squares with their top halves, and Stolz regions.

Squares are indexed exactly: generation n >= 1 has 2^(n-1) squares whose
base arcs are [(j-1), j] * 4*pi/2^n for j = 1..2^(n-1); the first generation
is the whole boundary circle.  Angles are kept as integer pairs (n, j) so
deep generations carry no floating-point drift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def phi(a, z):
    """Disc automorphism phi_a(z) = (a - z)/(1 - conj(a) z); an involution."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError("automorphism base point must lie in the open disc")
    return (a - z) / (1 - a.conjugate() * z)


def rho_p(z1, z2):
    """Pseudo-hyperbolic distance |z1 - z2| / |1 - conj(z1) z2|."""
    z1 = complex(z1)
    z2 = complex(z2)
    return abs(z1 - z2) / abs(1 - z1.conjugate() * z2)


def rho_p_to_set(z, points):
    """Pseudo-hyperbolic distance from z, a point or an array, to a finite
    set, elementwise; the empty set is at distance 1."""
    z = np.asarray(z, dtype=complex)[..., None]
    p = np.asarray(points, dtype=complex)
    return np.min(np.abs(z - p) / np.abs(1 - np.conj(z) * p), axis=-1,
                  initial=1.0)


def dyadic_edges(lo, r_max):
    """Radii [lo, ..., r_max] stepping by halving the distance to the circle
    (0, 1/2, 3/4, ... from lo = 0), so each annulus stays a fixed
    hyperbolic width and work concentrates toward the boundary."""
    if not 0 <= lo <= r_max < 1:
        raise ValueError(f"need 0 <= lo <= r_max < 1, got {lo}, {r_max}")
    edges = [lo]
    while 1 - (1 - edges[-1]) / 2 < r_max:
        edges.append(1 - (1 - edges[-1]) / 2)
    edges.append(r_max)
    return edges


@functools.lru_cache(maxsize=64)
def unit_roots(n):
    """e^(2 pi i k/n) for k = 0..n-1 in that order: the trapezoid nodes of
    every circle in the package, in the index order its FFTs rely on.
    Cached per n and read-only, so every caller shares one array."""
    roots = np.exp(1j * TWO_PI * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


def stolz_contains(theta, alpha, z):
    """Membership in the non-tangential region |z - e^(i theta)| <= alpha (1 - |z|),
    elementwise on a point or an array of points."""
    if not alpha > 1:
        raise ValueError("aperture alpha must exceed 1")
    z = np.asarray(z, dtype=complex)
    return np.abs(z - np.exp(1j * theta)) <= alpha * (1 - np.abs(z))


@dataclass(frozen=True, order=True)
class CarlesonSquare:
    """Dyadic Carleson square, identified by (generation, index).

    generation >= 1, index in 1..2^(generation-1).  The square is
    {1 - l/(2 pi) <= |z| < 1, arg z in I} over its base arc I of length
    l = 4 pi / 2^generation; the top half T(Q) is the inner half-annulus
    band of that box.
    """

    generation: int
    index: int

    def __post_init__(self):
        if self.generation < 1:
            raise ValueError("generation must be >= 1")
        if not 1 <= self.index <= 2 ** (self.generation - 1):
            raise ValueError(
                f"index {self.index} out of range for generation {self.generation}"
            )

    @property
    def ell(self):
        """Arc length of the base interval."""
        return TWO_PI / 2 ** (self.generation - 1)

    @property
    def theta_lo(self):
        return TWO_PI * (self.index - 1) / 2 ** (self.generation - 1)

    @property
    def theta_hi(self):
        return TWO_PI * self.index / 2 ** (self.generation - 1)

    @property
    def inner_radius(self):
        return 1.0 - self.ell / TWO_PI

    def children(self):
        n, j = self.generation, self.index
        return (CarlesonSquare(n + 1, 2 * j - 1), CarlesonSquare(n + 1, 2 * j))

    def is_descendant_of(self, other):
        if other.generation >= self.generation:
            return False
        shift = self.generation - other.generation
        return (self.index - 1) >> shift == other.index - 1

    @property
    def z_q(self):
        """Radial-angular midpoint of the top half T(Q)."""
        if self.generation < 2:
            raise ValueError("the root square has no top-half center")
        return complex(top_half_centers(self.generation, self.index))


def top_half_centers(generation, index):
    """z_Q of the squares (generation >= 2, index), elementwise on integers
    or integer arrays: the one formula of CarlesonSquare.z_q and descents."""
    ell = TWO_PI / 2 ** (generation - 1)
    theta_mid = TWO_PI * (index - 0.5) / 2 ** (generation - 1)
    radius = 1.0 - 3.0 * ell / (4 * TWO_PI)
    return radius * np.cos(theta_mid) + 1j * (radius * np.sin(theta_mid))


def maximal_squares(squares):
    """The squares of the list with no strict dyadic ancestor in it, in list
    order; one set lookup per generation above each square."""
    keys = {(sq.generation, sq.index) for sq in squares}
    return [sq for sq in squares
            if not any((sq.generation - k, ((sq.index - 1) >> k) + 1) in keys
                       for k in range(1, sq.generation))]


def generation_squares(n):
    """All squares of generation n, ordered by index."""
    return [CarlesonSquare(n, j) for j in range(1, 2 ** (n - 1) + 1)]

