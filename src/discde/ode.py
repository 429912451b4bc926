"""Taylor-recurrence solver for f'' + A f = 0 with analytic continuation.

Solutions are represented by chains of local power-series expansions built
along straight segments from the origin; every evaluation point inside
``r_max`` is reached by re-expanding whenever the step would leave half the
local trust radius.

A fundamental pair is always continued as one system sharing expansion
centers: the step map acting on (f, f') is then identical for both
solutions, so the numerical Wronskian drifts multiplicatively (a relative
truncation error per step) instead of being amplified by the ratio of the
dominant to the recessive solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .series import DEFAULT_DEGREE, PowerSeries, estimate_trust_radius

DEFAULT_R_MAX = 0.999
_COVER_FRAC = 0.75
_STEP_FRAC = 0.5
_MAX_STEPS = 500


class ContinuationError(RuntimeError):
    """Trust radius collapse or out-of-range evaluation."""


def _recurrence(a, f0, df0, degree):
    c = np.zeros(degree + 1, dtype=complex)
    c[0] = complex(f0)
    c[1] = complex(df0)
    for n in range(degree - 1):
        acc = np.dot(a[: n + 1], c[n::-1])
        c[n + 2] = -acc / ((n + 2) * (n + 1))
    return c


def solve_ivp(A, z0, f0, df0, degree=DEFAULT_DEGREE):
    """Local series solution with f(z0)=f0, f'(z0)=df0.

    Coefficients follow c_{n+2} = -(sum_k a_k c_{n-k}) / ((n+2)(n+1)) where
    a_k is the Taylor expansion of the coefficient A about z0.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if isinstance(A, str):
        A = expr.parse_expr(A)
    a_ps = expr.taylor_at(A, z0, degree)
    c = _recurrence(a_ps.coeffs, f0, df0, degree)
    trust = min(a_ps.trust_radius, estimate_trust_radius(c))
    return PowerSeries(complex(z0), c, trust)


class _Expansion:
    """All solutions of the system expanded about one center, shared trust."""

    __slots__ = ("center", "trust_radius", "jets")

    def __init__(self, center, trust_radius, coeff_arrays):
        self.center = complex(center)
        self.trust_radius = trust_radius
        self.jets = []
        for c in coeff_arrays:
            ps = PowerSeries(center, c, trust_radius)
            d1 = ps.differentiate()
            self.jets.append((ps, d1, d1.differentiate()))


class ContinuableSystem:
    """Several solutions of the same equation continued along shared centers."""

    def __init__(self, A, ics, degree=DEFAULT_DEGREE, r_max=DEFAULT_R_MAX):
        self.A = expr.parse_expr(A) if isinstance(A, str) else A
        self.ics = [(complex(f0), complex(df0)) for f0, df0 in ics]
        self.degree = degree
        self.r_max = r_max
        self._expansions = []
        self._centers = np.zeros(0, dtype=complex)
        self._trusts = np.zeros(0, dtype=float)
        self._expand_at(0.0, self.ics)

    def _expand_at(self, center, local_ics):
        a_ps = expr.taylor_at(self.A, center, self.degree)
        arrays = [_recurrence(a_ps.coeffs, f0, df0, self.degree)
                  for f0, df0 in local_ics]
        trust = min([a_ps.trust_radius] + [estimate_trust_radius(c) for c in arrays])
        if not trust > 0:
            raise ContinuationError(f"trust radius collapsed at {center}")
        e = _Expansion(center, trust, arrays)
        self._expansions.append(e)
        self._centers = np.append(self._centers, e.center)
        self._trusts = np.append(self._trusts, e.trust_radius)
        return e

    def _covering(self, z, frac=_COVER_FRAC):
        d = np.abs(z - self._centers)
        ok = d <= frac * self._trusts
        if not ok.any():
            return None
        idx = np.flatnonzero(ok)
        best = idx[np.argmin(d[idx] / self._trusts[idx])]
        return self._expansions[best]

    def _continue_to(self, z):
        cur = self._expansions[0]
        steps = 0
        while abs(z - cur.center) > _COVER_FRAC * cur.trust_radius:
            steps += 1
            if steps > _MAX_STEPS:
                raise ContinuationError(
                    f"continuation to {z} exceeded {_MAX_STEPS} steps "
                    "(trust radius collapse near a coefficient singularity?)"
                )
            dist = abs(z - cur.center)
            step = min(_STEP_FRAC * cur.trust_radius, dist)
            new_center = cur.center + step * (z - cur.center) / dist
            cached = self._covering(new_center, frac=_STEP_FRAC)
            if cached is not None and abs(z - cached.center) < dist:
                cur = cached
                continue
            ics = [(ps.evaluate(new_center), d1.evaluate(new_center))
                   for ps, d1, _ in cur.jets]
            cur = self._expand_at(new_center, ics)
        return cur

    def jet(self, index, z, order=2):
        z = complex(z)
        if order < 0 or order > 2:
            raise ValueError("order must be in [0, 2]")
        if abs(z) > self.r_max * (1 + 1e-12):
            raise ContinuationError(f"|z|={abs(z)} exceeds r_max={self.r_max}")
        cur = self._covering(z)
        if cur is None:
            cur = self._continue_to(z)
        return [cur.jets[index][k].evaluate(z) for k in range(order + 1)]


class _SolutionView:
    """One solution of a shared system, evaluable with derivatives."""

    def __init__(self, system, index):
        self._system = system
        self._index = index

    @property
    def A(self):
        return self._system.A

    @property
    def f0(self):
        return self._system.ics[self._index][0]

    @property
    def df0(self):
        return self._system.ics[self._index][1]

    @property
    def r_max(self):
        return self._system.r_max

    @property
    def degree(self):
        return self._system.degree

    def jet(self, z, order=2):
        return self._system.jet(self._index, z, order)

    def __call__(self, z):
        return self._system.jet(self._index, z, 0)[0]

    def jet3(self, z):
        """Order-3 jet; f'' and f''' recovered from the equation itself."""
        f, df = self.jet(z, 1)
        a, da = expr.eval_jet(self.A, z, 1)
        return [f, df, -a * f, -da * f - a * df]


class ContinuableSolution(_SolutionView):
    """Standalone solution handle with its own continuation cache."""

    def __init__(self, A, f0, df0, degree=DEFAULT_DEGREE, r_max=DEFAULT_R_MAX):
        super().__init__(ContinuableSystem(A, [(f0, df0)], degree, r_max), 0)


class _Combination:
    """alpha*f1 + beta*f2 evaluated by linearity on the shared system."""

    def __init__(self, basis, alpha, beta):
        self.basis = basis
        self.alpha = complex(alpha)
        self.beta = complex(beta)

    @property
    def A(self):
        return self.basis.coefficient

    @property
    def f0(self):
        return self.alpha * self.basis.f1.f0 + self.beta * self.basis.f2.f0

    @property
    def df0(self):
        return self.alpha * self.basis.f1.df0 + self.beta * self.basis.f2.df0

    @property
    def r_max(self):
        return self.basis.r_max

    def jet(self, z, order=2):
        j1 = self.basis.f1.jet(z, order)
        j2 = self.basis.f2.jet(z, order)
        return [self.alpha * a + self.beta * b for a, b in zip(j1, j2)]

    def __call__(self, z):
        return self.jet(z, 0)[0]


@dataclass
class SolutionBasis:
    """Fundamental pair (f1, f2) with a pinned constant Wronskian."""

    coefficient: expr.ExprAst
    f1: _SolutionView
    f2: _SolutionView
    wronskian_target: complex

    @property
    def r_max(self):
        return self.f1.r_max

    def jet(self, which, z, order=2):
        if which in ("f1", 1):
            return self.f1.jet(z, order)
        if which in ("f2", 2):
            return self.f2.jet(z, order)
        raise ValueError("which must be 'f1'/1 or 'f2'/2")

    def wronskian(self, z):
        v1, d1 = self.f1.jet(z, 1)
        v2, d2 = self.f2.jet(z, 1)
        return v1 * d2 - d1 * v2

    def solution(self, alpha, beta):
        """The solution alpha*f1 + beta*f2 (shares the continuation cache)."""
        return _Combination(self, alpha, beta)


def make_basis(A, wronskian_target=1.0, ics=None, degree=DEFAULT_DEGREE,
               r_max=DEFAULT_R_MAX):
    """Build a basis; default normalization f1(0)=1, f1'(0)=0, f2(0)=0,
    f2'(0)=wronskian_target.  Explicit ``ics`` = ((f1_0, f1'_0), (f2_0, f2'_0))
    override it, and the Wronskian target is then computed from them."""
    if ics is None:
        ics = ((1.0, 0.0), (0.0, wronskian_target))
        target = complex(wronskian_target)
    else:
        (a0, a1), (b0, b1) = ics
        target = complex(a0 * b1 - a1 * b0)
        if target == 0:
            raise ValueError("initial conditions give a degenerate (zero-Wronskian) pair")
    system = ContinuableSystem(A, list(ics), degree=degree, r_max=r_max)
    return SolutionBasis(A, _SolutionView(system, 0), _SolutionView(system, 1), target)


# ---------------------------------------------------------------------------
# Möbius transfer of the equation


def _phi_ast(kappa):
    kappa = complex(kappa)
    num = expr.BinOp("-", expr.Const(kappa), expr.Var())
    den = expr.BinOp("-", expr.Const(1.0),
                     expr.BinOp("*", expr.Const(kappa.conjugate()), expr.Var()))
    return expr.BinOp("/", num, den), den


class MobiusTransferred:
    """The pulled-back equation g'' + B g = 0 under z = phi_kappa(zeta).

    B(zeta) = A(phi(zeta)) * phi'(zeta)^2; the Schwarzian of a Möbius map
    vanishes, so no extra term appears.  ``transform_solution`` realizes
    g(zeta) = gamma * f(phi(zeta)) * phi'(zeta)^(-1/2) with the branch fixed
    by the principal square root at zeta = 0; since
    phi'(zeta) = (|kappa|^2-1)/(1 - conj(kappa) zeta)^2, the branch is the
    globally analytic c*(1 - conj(kappa) zeta) with c = 1/sqrt(phi'(0)).
    """

    def __init__(self, A, kappa):
        kappa = complex(kappa)
        if abs(kappa) >= 1:
            raise ValueError("kappa must lie in the open unit disc")
        self.kappa = kappa
        self.A = A = expr.parse_expr(A) if isinstance(A, str) else A
        phi, den = _phi_ast(kappa)
        self.phi_ast = phi
        d = abs(kappa) ** 2 - 1.0
        self.dphi_ast = expr.BinOp("/", expr.Const(d), expr.Pow(den, 2))
        dphi_sq = expr.BinOp("/", expr.Const(d * d), expr.Pow(den, 4))
        self.B = expr.BinOp("*", expr.substitute(A, phi), dphi_sq)

    def phi(self, zeta):
        k = self.kappa
        return (k - zeta) / (1 - k.conjugate() * zeta)

    def dphi(self, zeta):
        k = self.kappa
        return (abs(k) ** 2 - 1) / (1 - k.conjugate() * zeta) ** 2

    def d2phi(self, zeta):
        k = self.kappa
        return 2 * k.conjugate() * (abs(k) ** 2 - 1) / (1 - k.conjugate() * zeta) ** 3

    def transform_solution(self, f, gamma=1.0):
        return _TransferredSolution(self, f, complex(gamma))


class _TransferredSolution:
    """g(zeta) = gamma * f(phi(zeta)) * c * (1 - conj(kappa) zeta)."""

    def __init__(self, transfer, f, gamma):
        self.transfer = transfer
        self.f = f
        self.gamma = gamma
        self.c = 1.0 / np.sqrt(complex(transfer.dphi(0.0)))

    def jet(self, zeta, order=2):
        t = self.transfer
        kbar = t.kappa.conjugate()
        w = t.phi(zeta)
        dphi = t.dphi(zeta)
        d2phi = t.d2phi(zeta)
        fj = self.f.jet(w, order)
        lin = 1 - kbar * zeta
        pref = self.gamma * self.c
        out = [pref * fj[0] * lin]
        if order >= 1:
            out.append(pref * (fj[1] * dphi * lin - kbar * fj[0]))
        if order >= 2:
            out.append(pref * (fj[2] * dphi ** 2 * lin
                               + fj[1] * (d2phi * lin - 2 * kbar * dphi)))
        return out

    def __call__(self, zeta):
        return self.jet(zeta, 0)[0]


def mobius_transfer(A, kappa):
    return MobiusTransferred(A, kappa)
