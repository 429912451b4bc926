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

Each expansion keeps one coefficient matrix for all solutions and their
first two derivatives, so values and derivatives at a batch of points are
one matrix product with the powers of z - center (Corliss & Chang, 1982).
``jet`` evaluates an array in blocks that way, with a power matrix built by
doubling (powers m+1..2m are powers 1..m times power m: six wide multiplies
for degree 64), and a point, after a cover lookup of its own, with a vector
of powers from one running product through the same reduction as a
one-element array; each continuation step uses the same product.  On a
system of one expansion a point's lookup is one ratio |z - center|/trust.
A point equals the one-element array bit for bit, a longer one to rounding,
as its powers and its product round otherwise.
A combination alpha*f1 + beta*f2 weights the coefficient rows before that
product, so it costs one cover lookup and one product, as a single solution
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr, geometry
from .series import TrustRadiusError, estimate_trust_radius

DEFAULT_R_MAX = 0.999
# Taylor degree of every expansion, of A and of the solutions alike.
_DEGREE = 64
_COVER_FRAC = 0.75
_STEP_FRAC = 0.5
_MAX_STEPS = 500
_MAX_ORDER = 2
# Cells (points x (expansions + degree + 1)) of one evaluation block: the
# temporaries of a batch grow with its points, not with points x degree.
_BLOCK_CELLS = 1 << 16


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


class _Expansion:
    """All solutions of the system expanded about one center, shared trust.

    ``rows[i, k, n]`` is the n-th Taylor coefficient of the k-th derivative
    of solution i, so f_i^(k)(z) = sum_n rows[i, k, n] (z - center)^n.
    """

    __slots__ = ("center", "trust_radius", "rows")

    def __init__(self, center, trust_radius, coeffs):
        self.center = complex(center)
        self.trust_radius = trust_radius
        n = coeffs.shape[1]
        self.rows = np.zeros((len(coeffs), _MAX_ORDER + 1, n), dtype=complex)
        self.rows[:, 0] = coeffs
        for d in range(1, _MAX_ORDER + 1):
            self.rows[:, d, :-1] = self.rows[:, d - 1, 1:] * np.arange(1, n)

    def jet(self, z, order, index):
        """Derivatives 0..order at z, a point or a 1-d array, of solution
        ``index`` or of the weight vector ``index`` over the solutions: shape
        (order + 1,) + z's shape.  A point's powers, and a one-element
        array's, are one running product over 65 entries; a longer array's
        are built by doubling, one multiply of the powers so far per power of
        two, since numpy's accumulate runs a scalar loop per cell.  Weights
        combine the coefficient rows before the product with the powers;
        np.dot reaches the BLAS reduction of ``@`` at less call cost."""
        powers = np.empty((_DEGREE + 1,) + getattr(z, "shape", ()), complex)
        if powers.size == _DEGREE + 1:
            powers[...] = z - self.center
            powers[0] = 1.0
            np.multiply.accumulate(powers, out=powers)
        else:
            powers[0] = 1.0
            powers[1] = z - self.center
            m = 1
            while m < _DEGREE:  # powers m+1..2m: powers 1..m times power m
                np.multiply(powers[1:m + 1], powers[m],
                            out=powers[m + 1:2 * m + 1])
                m *= 2
        if isinstance(index, np.ndarray):
            return np.dot((self.rows[:, :order + 1].T @ index).T, powers)
        return np.dot(self.rows[index, :order + 1], powers)


class ContinuableSystem:
    """Several solutions of the same equation continued along shared centers."""

    def __init__(self, A, ics, r_max=DEFAULT_R_MAX):
        self.A = expr.parse_expr(A) if isinstance(A, str) else A
        self.r_max = r_max
        self._expansions = []
        self._centers = np.zeros(0, dtype=complex)
        self._trusts = np.zeros(0, dtype=float)
        self._expand_at(0.0, ics)

    def _expand_at(self, center, local_ics):
        # overflow near a pole of A, or of the solutions, is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                a_ps = expr.taylor_at(self.A, center, _DEGREE)
            except TrustRadiusError as exc:
                raise ContinuationError(
                    f"trust radius collapsed at {center} (singularity of A?)"
                ) from exc
            coeffs = np.array([_recurrence(a_ps.coeffs, f0, df0, _DEGREE)
                               for f0, df0 in local_ics])
            if not np.isfinite(coeffs).all():
                raise ContinuationError(f"the solutions overflow at {center}")
            trust = min([a_ps.trust_radius]
                        + [estimate_trust_radius(c) for c in coeffs])
        if not trust > 0:
            raise ContinuationError(f"trust radius collapsed at {center}")
        e = _Expansion(center, trust, coeffs)
        self._expansions.append(e)
        self._centers = np.append(self._centers, e.center)
        self._trusts = np.append(self._trusts, e.trust_radius)
        return e

    def _cover(self, zs, frac=_COVER_FRAC):
        """Per point of zs, the expansion with the smallest |z - c|/trust, and
        whether that ratio is at most frac (the point is then covered)."""
        ratio = np.abs(zs[:, None] - self._centers) / self._trusts
        return ratio.argmin(axis=1), ratio.min(axis=1) <= frac

    def _continue_to(self, z):
        cur = self._expansions[0]
        steps = 0
        while abs(z - cur.center) / cur.trust_radius > _COVER_FRAC:
            steps += 1
            if steps > _MAX_STEPS:
                raise ContinuationError(
                    f"continuation to {z} exceeded {_MAX_STEPS} steps "
                    "(trust radius collapse near a coefficient singularity?)"
                )
            dist = abs(z - cur.center)
            step = min(_STEP_FRAC * cur.trust_radius, dist)
            new_center = cur.center + step * (z - cur.center) / dist
            at = np.array([new_center])
            (cached,), (found,) = self._cover(at, frac=_STEP_FRAC)
            if found and abs(z - self._expansions[cached].center) < dist:
                cur = self._expansions[cached]
                continue
            cur = self._expand_at(new_center, [cur.jet(new_center, 1, i)
                                               for i in range(len(cur.rows))])

    def _jet_block(self, index, zs, order):
        best, covered = self._cover(zs)
        if not covered.all():
            # continue in array order, re-checking the cover as it grows
            for i in np.flatnonzero(~covered):
                if not self._cover(zs[i:i + 1])[1][0]:
                    self._continue_to(complex(zs[i]))
            best, _ = self._cover(zs)
        if (best == best[0]).all():
            return self._expansions[best[0]].jet(zs, order, index)
        out = np.empty((order + 1, len(zs)), dtype=complex)
        for e in np.unique(best):
            sel = best == e
            out[:, sel] = self._expansions[e].jet(zs[sel], order, index)
        return out

    def _jet_point(self, index, z, order):
        """Derivatives 0..order at the point z, as a list.  On a system of
        one expansion the cover lookup is one ratio; numpy's ratio and
        argmin over all centres, as an array's, decide a point within 1e-14
        relative of the cover boundary and every point of a larger system."""
        bound = self.r_max * (1 + 1e-12)
        # abs(z) may differ from numpy's modulus in the last bit, so numpy's,
        # as the array path reports it, decides a point near the bound
        if not abs(z) <= bound * (1 - 1e-14):
            r = np.abs(z)
            if not r <= bound:
                raise ContinuationError(f"|z|={r} exceeds r_max={self.r_max}")
        if len(self._expansions) == 1:
            # abs may differ from numpy's modulus in the last bit
            e = self._expansions[0]
            if abs(z - e.center) / e.trust_radius <= _COVER_FRAC * (1 - 1e-14):
                return e.jet(z, order, index).tolist()
        ratio = np.abs(z - self._centers) / self._trusts
        best = ratio.argmin()
        if not ratio[best] <= _COVER_FRAC:
            self._continue_to(z)
            best = (np.abs(z - self._centers) / self._trusts).argmin()
        return self._expansions[best].jet(z, order, index).tolist()

    def jet(self, index, z, order=2):
        """Values and derivatives 0..order at z of solution ``index``, or of
        the combination whose weight vector over the solutions is ``index``.

        A point (a Python or numpy scalar, or a 0-d array) gives a list of
        complex numbers from a cover lookup of its own and a vector of powers,
        an array of points one array of its shape per order from blocks that
        share a power matrix.  A point equals the one-element array bit for
        bit; in a longer array its numbers may differ in the last bits, as
        the block's powers and product round otherwise.
        Points that no expansion covers are continued to in array order, so
        an array creates the same expansions as its points taken one at a
        time.
        """
        if order < 0 or order > _MAX_ORDER:
            raise ValueError("order must be in [0, 2]")
        if isinstance(z, (complex, float, int, np.number)):
            return self._jet_point(index, complex(z), order)
        zs = np.asarray(z, dtype=complex)
        if not zs.ndim:
            return self._jet_point(index, complex(zs), order)
        flat = zs.reshape(-1)
        r = np.abs(flat).max(initial=0.0)
        if not r <= self.r_max * (1 + 1e-12):
            raise ContinuationError(f"|z|={r} exceeds r_max={self.r_max}")
        out = np.empty((order + 1, flat.size), dtype=complex)
        step = max(1, _BLOCK_CELLS // (len(self._expansions) + _DEGREE + 1))
        for i in range(0, flat.size, step):
            out[:, i:i + step] = self._jet_block(index, flat[i:i + step], order)
        return list(out.reshape((order + 1,) + zs.shape))


class ContinuableSolution:
    """A solution of f'' + A f = 0: ``ContinuableSolution(A, f0, df0)``
    continues f(0) = f0, f'(0) = df0 on a system of its own; a basis hands out
    f1, f2 and alpha*f1 + beta*f2 as handles on its shared system.  A handle
    holds one solution index or one weight vector over the solutions, so each
    of its evaluations is one system call."""

    def __init__(self, A, f0, df0):
        self._system = ContinuableSystem(A, [(f0, df0)])
        self._index = 0

    @classmethod
    def _on(cls, system, index):
        """The handle of solution ``index`` of ``system``, or of the sum of
        weight * solution when ``index`` is a weight vector."""
        handle = cls.__new__(cls)
        handle._system = system
        handle._index = index
        return handle

    def jet(self, z, order=2):
        """Derivatives 0..order at a point or an ndarray, as the system's jet."""
        return self._system.jet(self._index, z, order)

    def __call__(self, z):
        return self.jet(z, 0)[0]


@dataclass
class SolutionBasis:
    """Fundamental pair (f1, f2) with a pinned constant Wronskian."""

    f1: ContinuableSolution
    f2: ContinuableSolution
    wronskian_target: complex

    def jet(self, which, z, order=2):
        if which == 1:
            return self.f1.jet(z, order)
        if which == 2:
            return self.f2.jet(z, order)
        raise ValueError("which must be 1 or 2")

    def wronskian(self, z):
        v1, d1 = self.f1.jet(z, 1)
        v2, d2 = self.f2.jet(z, 1)
        return v1 * d2 - d1 * v2

    def solution(self, alpha, beta):
        """The solution alpha*f1 + beta*f2 (shares the continuation cache)."""
        return ContinuableSolution._on(
            self.f1._system, np.array([alpha, beta], dtype=complex))


def make_basis(A, ics=((1.0, 0.0), (0.0, 1.0)), r_max=DEFAULT_R_MAX):
    """Build the basis with ``ics`` = ((f1_0, f1'_0), (f2_0, f2'_0)), by
    default f1(0)=1, f1'(0)=0, f2(0)=0, f2'(0)=1; the Wronskian target is
    f1_0 f2'_0 - f1'_0 f2_0."""
    (a0, a1), (b0, b1) = ics
    target = complex(a0 * b1 - a1 * b0)
    if target == 0:
        raise ValueError("initial conditions give a degenerate (zero-Wronskian) pair")
    system = ContinuableSystem(A, list(ics), r_max=r_max)
    return SolutionBasis(ContinuableSolution._on(system, 0),
                         ContinuableSolution._on(system, 1), target)


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
    g(zeta) = f(phi(zeta)) * phi'(zeta)^(-1/2) with the branch fixed
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
        d = abs(kappa) ** 2 - 1.0
        dphi_sq = expr.BinOp("/", expr.Const(d * d), expr.Pow(den, 4))
        self.B = expr.BinOp("*", expr.substitute(A, phi), dphi_sq)

    def phi(self, zeta):
        return geometry.phi(self.kappa, zeta)

    def dphi(self, zeta):
        k = self.kappa
        return (abs(k) ** 2 - 1) / (1 - k.conjugate() * zeta) ** 2

    def d2phi(self, zeta):
        k = self.kappa
        return 2 * k.conjugate() * (abs(k) ** 2 - 1) / (1 - k.conjugate() * zeta) ** 3

    def transform_solution(self, f):
        return _TransferredSolution(self, f)


class _TransferredSolution:
    """g(zeta) = f(phi(zeta)) * c * (1 - conj(kappa) zeta)."""

    def __init__(self, transfer, f):
        self.transfer = transfer
        self.f = f
        self.c = 1.0 / np.sqrt(complex(transfer.dphi(0.0)))

    def jet(self, zeta, order=2):
        t = self.transfer
        kbar = t.kappa.conjugate()
        w = t.phi(zeta)
        dphi = t.dphi(zeta)
        d2phi = t.d2phi(zeta)
        fj = self.f.jet(w, order)
        lin = 1 - kbar * zeta
        c = self.c
        out = [c * fj[0] * lin]
        if order >= 1:
            out.append(c * (fj[1] * dphi * lin - kbar * fj[0]))
        if order >= 2:
            out.append(c * (fj[2] * dphi ** 2 * lin
                            + fj[1] * (d2phi * lin - 2 * kbar * dphi)))
        return out

    def __call__(self, zeta):
        return self.jet(zeta, 0)[0]


def mobius_transfer(A, kappa):
    return MobiusTransferred(A, kappa)
