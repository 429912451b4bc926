"""Schwarzian and pre-Schwarzian calculus for solution quotients.

For a fundamental pair (f1, f2) with Wronskian -1 the quotient w = f1/f2 is
locally univalent and meromorphic with S_w = 2A; its derivative is the
globally analytic 1/f2^2, so everything involving 1/w' is computed from f2
directly and only w itself is singular at the poles (zeros of f2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import weighted_area_integral
from .geometry import rho_p_to_set, unit_roots
from .ode import make_basis
from .stopping import Elementwise
from .zeros import analytic_log, find_zeros


class PoleError(ZeroDivisionError):
    """Evaluation of w (or a quotient jet) at or too near a pole."""


def schwarzian(jet3):
    """Schwarzian derivative from a 3-jet (w, w', w'', w''').

    Equals (w''/w')' - (w''/w')^2 / 2 in expanded form, elementwise on
    the entries of the jet.
    """
    _, w1, w2, w3 = jet3
    if np.any(w1 == 0):
        raise PoleError("Schwarzian undefined where w' vanishes")
    h = w2 / w1
    return w3 / w1 - 1.5 * h * h


@dataclass
class QuotientMap:
    """w = f1/f2 for a fundamental pair with Wronskian -1.

    w' = 1/f2^2 is analytic everywhere; the poles of w are the zeros of f2,
    stored with exclusion radii (twice a Newton-basin estimate) that grid
    sweeps should skip.  Every method is elementwise on a point or an array;
    those that divide by f2 raise PoleError where it vanishes.
    """

    basis: object
    r_max: float = 0.95
    poles: list = field(init=False)
    exclusion_radii: list = field(init=False)

    def __post_init__(self):
        if abs(self.basis.wronskian_target - (-1.0)) > 1e-12:
            raise ValueError("quotient construction requires Wronskian -1")
        seq = find_zeros(lambda z: self.basis.jet(2, z, 1), self.r_max)
        self.poles = list(seq.zeros)
        _, d1, d2 = self.basis.jet(2, np.array(self.poles, dtype=complex), 2)
        basin = np.abs(d1) / np.maximum(np.abs(d2), 1e-30)
        self.exclusion_radii = np.minimum(0.05, 2.0 * np.minimum(basin, 1e-3)).tolist()

    def _f2(self, z, order):
        """The jet of f2 up to ``order``; PoleError where f2 vanishes."""
        jet = self.basis.jet(2, z, order)
        if np.any(jet[0] == 0):
            raise PoleError(f"pole of w at {z}")
        return jet

    def near_pole(self, z):
        """Whether z lies within the exclusion radius of a pole."""
        gaps = np.abs(np.asarray(z, dtype=complex)[..., None]
                      - np.asarray(self.poles, dtype=complex))
        return np.any(gaps <= np.asarray(self.exclusion_radii), axis=-1)

    def __call__(self, z):
        if np.any(self.near_pole(z)):
            raise PoleError(f"w has a pole near {z}")
        return self.basis.jet(1, z, 0)[0] / self._f2(z, 0)[0]

    def wprime(self, z):
        """w'(z) = 1/f2(z)^2, analytic across the poles of w."""
        f2 = self._f2(z, 0)[0]
        return 1.0 / (f2 * f2)

    def log_wprime_derivative(self, z):
        """(log w')' = w''/w' = -2 f2'/f2."""
        f2, d2 = self._f2(z, 1)
        return -2.0 * d2 / f2

    def jet3(self, z):
        """(w, w', w'', w''') from f1 and the order-2 jet of f2."""
        f1 = self.basis.jet(1, z, 0)[0]
        f2, d2, dd2 = self._f2(z, 2)
        w = f1 / f2
        w1 = 1.0 / (f2 * f2)
        h = -2.0 * d2 / f2
        hp = -2.0 * dd2 / f2 + 2.0 * (d2 / f2) ** 2
        w2 = h * w1
        w3 = (hp + h * h) * w1
        return (w, w1, w2, w3)

    def schwarzian_at(self, z):
        return schwarzian(self.jet3(z))


def quotient_basis(A, r_max):
    """The pair of the canonical quotient w = f1/f2, continued to
    max(r_max, 0.97): f1(0)=0, f1'(0)=1, f2(0)=1, f2'(0)=0 has Wronskian -1
    and normalizes w(0)=0, w'(0)=1."""
    return make_basis(A, ics=((0.0, 1.0), (1.0, 0.0)), r_max=max(r_max, 0.97))


def quotient_from_coefficient(A, r_max=0.95):
    """Canonical quotient for a coefficient, with its poles inside r_max."""
    return QuotientMap(quotient_basis(A, r_max), r_max=r_max)


def stopping_wprime_abs(A, max_generation):
    """|w'| = 1/|f2|^2 of the canonical quotient, continued deep enough to
    reach z_Q of every dyadic square up to ``max_generation``, as an
    elementwise evaluator: one f2 call per array of points.  Infinite at the
    poles of w, which are not located."""
    # z_Q of a generation-n square sits at 1 - 1.5 * 2^(-n)
    r_need = max(0.996, 1.0 - 1.4 * 2.0 ** (-max_generation))
    f2 = quotient_basis(A, r_need).f2

    def wprime_abs(zs):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(f2.jet(zs, 0)[0]) ** 2

    return Elementwise(wprime_abs)


# ---------------------------------------------------------------------------
# the pre-Schwarzian bound


def pre_schwarzian_bound_check(h, eta, s, samples, poles=()):
    """Compare sup (1 - |a|^2) |w''(a)/w'(a)| against 6/min(eta, s).

    ``h`` evaluates w''/w' elementwise and is called once, on all samples,
    which must keep pseudo-hyperbolic distance at least s from every pole.
    Returns (value, bound, passed, argmax), argmax the first sample of the
    largest value; a NaN value fails, and no samples give (-inf, bound,
    True, 0j).
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not 0 < s < 1 and s != 1:
        raise ValueError("s must lie in (0, 1]")
    bound = 6.0 / min(eta, s)
    a = np.asarray(samples, dtype=complex).ravel()
    if a.size == 0:
        return -np.inf, bound, True, 0j
    near = rho_p_to_set(a, poles) < s * (1 - 1e-12)
    if np.any(near):
        raise ValueError(f"sample {complex(a[near][0])} is "
                         f"pseudo-hyperbolically closer than {s} to a pole")
    values = (1 - np.abs(a) ** 2) * np.abs(np.broadcast_to(h(a), a.shape))
    k = int(np.argmax(values))  # the first NaN, if there is one
    value = float(values[k])
    return value, bound, value <= bound + 1e-9, complex(a[k])


# ---------------------------------------------------------------------------
# factorization f = g * W


@dataclass
class Factorization:
    """f = g W with W a Möbius image of the quotient and g = exp(log g).

    ``normalization`` records which scaling of log w' reproduces g: the
    relation exp(log g)^2 * w' = 1 pins log g = -(1/2) log w' for this
    Wronskian convention.
    """

    alpha: complex
    beta: complex
    log_g: object            # callable z -> log g(z)
    w_factor: object         # callable z -> W(z)
    log_wprime: object       # callable z -> log w'(z)
    log_w_factor_prime: object  # callable or None (alpha = 0: W constant)
    constant_marker: complex or None
    normalization: str = "log g = -(1/2) log w'"

    def g(self, z):
        return np.exp(self.log_g(z))

    def reconstruct(self, z):
        return self.g(z) * self.w_factor(z)


def factorize(quotient, alpha, beta):
    """Factor f = alpha f1 + beta f2 as g * W, W = alpha w + beta.

    Requires f2 zero-free on the quotient's disc |z| <= r_max (the quotient
    has no poles there).  log g = log f2 comes from ``zeros.analytic_log`` and
    log w' = -2 log f2 from the same call, so exp(log g)^2 * w' = 1 holds
    identically; every callable of the result is elementwise.
    """
    if any(abs(p) <= quotient.r_max for p in quotient.poles):
        raise PoleError(
            "factorization requires a zero-free f2 on the working disc"
        )
    alpha = complex(alpha)
    beta = complex(beta)

    def log_g(z):
        return analytic_log(lambda u: quotient.basis.jet(2, u, 1), z)

    def log_wprime(z):
        return -2.0 * log_g(z)

    def w_factor(z):
        return alpha * quotient(z) + beta if alpha != 0 else beta

    if alpha == 0:
        if beta == 0:
            raise ValueError("trivial solution has no factorization")
        return Factorization(alpha, beta, log_g, w_factor, log_wprime,
                             None, constant_marker=beta)

    log_alpha = cmath.log(alpha)

    def log_w_factor_prime(z):
        return log_alpha + log_wprime(z)

    return Factorization(alpha, beta, log_g, w_factor, log_wprime,
                         log_w_factor_prime, constant_marker=None)


# ---------------------------------------------------------------------------
# logarithm mean-growth comparison


def bjest_check(f_jet, A_eval, r):
    """Circle mean of |log(f/f(0))|^2 against the two right-hand terms

        r^2 |f'(0)/f(0)|^2   and   r^2 * integral_{|z|<r} |A|^2 (1-|z|^2)^3 dm

    for a zero-free solution f: log f from one ``analytic_log`` call on 1024
    points of the circle, the integral from weighted_area_integral.
    Returns (lhs, (term1, term2), ratio); the comparison constant is the
    fitted ratio, never assumed.
    """
    v0, d0 = f_jet(0.0)
    logs = analytic_log(f_jet, r * unit_roots(1 << 10)) - np.log(complex(v0))
    lhs = float(np.mean(np.abs(logs) ** 2))
    term1 = r * r * abs(d0 / v0) ** 2
    term2 = r * r * weighted_area_integral(A_eval, 2, 3, r_max=r, n_radial=48)
    rhs = term1 + term2
    ratio = 0.0 if lhs == 0.0 and rhs == 0.0 else lhs / rhs
    return lhs, (term1, term2), ratio


# ---------------------------------------------------------------------------
# the rational value map R(z) = z + 1/(2 z^2)


def roth_map(z):
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("R has a pole at 0")
    return z + 1.0 / (2.0 * z * z)


def roth_critical_points():
    """Finite critical points of R: the three cube roots of unity."""
    return [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


_OMEGA_EXCLUDED = roth_critical_points() + [0j]


def roth_value_map(w):
    """Preimages R^{-1}(w) restricted to the plane minus the cube roots of
    unity and the origin; w may be infinity.

    Finite w reduces to the cubic 2 z^3 - 2 w z^2 + 1 = 0; roots come from
    the companion matrix and are polished by Newton on the cubic.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        return [math.inf]
    coeffs = np.array([2.0, -2.0 * w, 0.0, 1.0], dtype=complex)
    roots = np.roots(coeffs)
    scale = max(1.0, abs(w))
    polished = []
    for z in roots:
        for _ in range(40):
            p = 2 * z**3 - 2 * w * z**2 + 1
            dp = 6 * z**2 - 4 * w * z
            if dp == 0:
                break
            step = p / dp
            z = z - step
            if abs(step) < 1e-14 * max(1.0, abs(z)):
                break
        polished.append(complex(z))
    return [z for z in polished
            if all(abs(z - e) > 1e-8 * scale for e in _OMEGA_EXCLUDED)]
