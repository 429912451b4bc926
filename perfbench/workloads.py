"""The benchmark's workloads: seeded inputs, set-up, operations and oracles.

A workload is built in two steps.  The constructor makes every input from
the seed with the standard library's generator, so the same seed gives the
same inputs on any machine.  ``setup`` imports discde, parses the
coefficients and builds what the operations reuse; the benchmark times it
as ``setup_s``.  ``operations`` is then the fixed list of (label, callable)
pairs that one round runs in order.  Every callable does one operation and
checks its output against an oracle: closed forms for constant
coefficients, the ODE itself, the brute-force scan the stopping module
provides for its descent, or the structure of the written report.

Parameters are drawn by strata (each operation's parameter from its own
slice of the range), so that two seeds give different inputs of about the
same total cost.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 2.0 * math.pi


@dataclass
class Outcome:
    """Result of one operation as the oracle judged it."""

    ok: bool                 # completed, and the output passed the oracle
    wrong: bool = False      # an output was produced but failed the oracle
    checks: int = 0          # checks the program reported (verify only)
    checks_failed: int = 0   # of those, reported FAIL
    bytes_written: int = 0
    note: str = ""


def _fail(note):
    return Outcome(False, note=note)


def _wrong(note):
    return Outcome(False, wrong=True, note=note)


def _import_discde(src):
    import discde

    if Path(discde.__file__).resolve().parent != (src / "discde").resolve():
        raise RuntimeError(f"imported discde from {discde.__file__}, "
                           f"not from {src}")


def _strata(rng, n, lo, hi):
    """n values in [lo, hi), one from each of n equal slices, shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _match_sets(found, expected, tol):
    """Whether two point lists agree one to one within tol."""
    if len(found) != len(expected):
        return False
    left = list(found)
    for z in expected:
        best = min(range(len(left)), key=lambda i: abs(left[i] - z))
        if abs(left[best] - z) > tol * max(1.0, abs(z)):
            return False
        left.pop(best)
    return True


# ---------------------------------------------------------------------------


class ZerosWarm:
    """find_zeros + jensen_check on alpha f1 + beta f2 for A = k^2.

    With f1(0)=1, f1'(0)=0, f2(0)=0, f2'(0)=1 the solution is
    alpha cos(kz) + beta sin(kz)/k, whose zeros are (w0 + n pi)/k with
    tan(w0) = -alpha k / beta.  A draw with a closed-form zero within
    MARGIN of the circle |z| = R is redrawn: such a zero is in or out of
    the disc by rounding, which no locator can be asked to decide.
    """

    name = "zeros-warm"
    R = 0.5
    R_MAX = 0.97
    K_MIN, K_MAX = 4.0, 11.0   # k above ~9.5 needs several expansions
    BASES = 4
    PER_BASIS = 6
    MARGIN = 0.02
    ZERO_TOL = 1e-8
    JENSEN_TOL = 1e-6

    def __init__(self, seed, src, workdir):
        rng = random.Random(seed)
        self.src = src
        width = (self.K_MAX - self.K_MIN) / self.BASES
        self.ks = [self.K_MIN + width * (j + rng.random())
                   for j in range(self.BASES)]
        self.cases = []
        for j, k in enumerate(self.ks):
            for m in range(self.PER_BASIS):
                for _ in range(1000):
                    alpha = cmath.rect(
                        1.0, TWO_PI * (m + rng.random()) / self.PER_BASIS)
                    # |beta| ~ k keeps both terms of the solution in play
                    beta = cmath.rect(k * 4.0 ** rng.uniform(-1.0, 1.0),
                                      rng.uniform(0.0, TWO_PI))
                    near = self.closed_form_zeros(k, alpha, beta,
                                                  self.R + self.MARGIN)
                    if all(abs(abs(z) - self.R) > self.MARGIN for z in near):
                        break
                else:
                    raise RuntimeError(f"no admissible draw for k={k}")
                inside = [z for z in near if abs(z) < self.R]
                self.cases.append((j, k, alpha, beta, inside))
        rng.shuffle(self.cases)

    @staticmethod
    def closed_form_zeros(k, alpha, beta, radius):
        w0 = cmath.atan(-alpha * k / beta)
        n_max = int(k * radius / math.pi) + 2 + int(abs(w0.real) / math.pi)
        zs = [(w0 + n * math.pi) / k for n in range(-n_max, n_max + 1)]
        return [z for z in zs if abs(z) < radius]

    def setup(self):
        _import_discde(self.src)
        from discde import expr, ode, zeros

        self.zeros = zeros
        self.bases = []
        for k in self.ks:
            basis = ode.make_basis(expr.parse_expr(repr(k * k)),
                                   r_max=self.R_MAX)
            # fill the continuation cache that every operation then reads
            for r in (0.3, 0.6, 0.9, 0.95):
                for t in range(64):
                    basis.jet(1, cmath.rect(r, TWO_PI * t / 64), 1)
            self.bases.append(basis)

    def operations(self):
        return [(f"k={k:.3f} alpha={alpha:.3f} beta={beta:.3f}",
                 self._op(self.bases[j], alpha, beta, expected))
                for j, k, alpha, beta, expected in self.cases]

    def _op(self, basis, alpha, beta, expected):
        zeros = self.zeros
        R = self.R

        def op():
            solution = basis.solution(alpha, beta)
            f_jet = lambda z: solution.jet(z, 1)  # noqa: E731
            found = list(zeros.find_zeros(f_jet, R).zeros)
            if not _match_sets(found, expected, self.ZERO_TOL):
                return _wrong(f"zeros {found} != closed form {expected}")
            gap = zeros.jensen_check(f_jet, found, R)
            if not abs(gap) <= self.JENSEN_TOL:
                return _wrong(f"Jensen gap {gap}")
            return Outcome(True)

        return op


# ---------------------------------------------------------------------------


class ContinuationCold:
    """A fresh basis for A = c/(1 - u z)^2 per operation, then order-2 jets
    on |z| = 0.97.  The pole 1/u lies just outside the disc, so the
    continuation re-expands many times and every expansion is new.

    Oracles: the ODE residual |f'' + A f| relative to |f''| + |A f| with A
    evaluated here from c and u, and the drift of the Wronskian
    f1 f2' - f1' f2 from its target 1.
    """

    name = "continuation-cold"
    N_OPS = 160
    RADIUS = 0.97
    POINTS = 4
    RESIDUAL_TOL = 1e-9
    WRONSKIAN_TOL = 1e-9

    def __init__(self, seed, src, workdir):
        rng = random.Random(seed)
        self.src = src
        self.cases = []
        n = self.N_OPS
        u_abs = _strata(rng, n, 0.85, 0.98)
        c_abs = _strata(rng, n, 0.5, 2.0)
        for i in range(n):
            phase = TWO_PI * (i + rng.random()) / n
            u = cmath.rect(u_abs[i], phase)
            c = cmath.rect(c_abs[i], rng.uniform(0.0, TWO_PI))
            text = (f"({c.real!r}+({c.imag!r})*i)"
                    f"/(1-({u.real!r}+({u.imag!r})*i)*z)^2")
            # the first point faces the pole at 1/u, the rest are anywhere
            points = [cmath.rect(self.RADIUS, -phase)] + [
                cmath.rect(self.RADIUS, rng.uniform(0.0, TWO_PI))
                for _ in range(self.POINTS - 1)]
            self.cases.append((text, c, u, points))

    def setup(self):
        _import_discde(self.src)
        from discde import expr, ode

        self.ode = ode
        self.asts = [expr.parse_expr(text) for text, _, _, _ in self.cases]

    def operations(self):
        return [(f"u={u:.3f}", self._op(ast, c, u, points))
                for ast, (_, c, u, points) in zip(self.asts, self.cases)]

    def _op(self, ast, c, u, points):
        ode = self.ode

        def op():
            basis = ode.make_basis(ast, r_max=self.RADIUS)
            for z in points:
                f1 = basis.f1.jet(z, 2)
                f2 = basis.f2.jet(z, 2)
                a = c / (1 - u * z) ** 2
                for f, _, dd in (f1, f2):
                    scale = abs(dd) + abs(a * f)
                    if not abs(dd + a * f) <= self.RESIDUAL_TOL * scale:
                        return _wrong(f"ODE residual at {z}")
                w = f1[0] * f2[1] - f1[1] * f2[0]
                if not abs(w - 1.0) <= self.WRONSKIAN_TOL:
                    return _wrong(f"Wronskian drift {abs(w - 1.0)} at {z}")
            return Outcome(True)

        return op


# ---------------------------------------------------------------------------


class StoppingDescent:
    """Dyadic stopping-time descents.

    (a) The flat |w'| = 1 descent of build_g0 to generation G_FLAT: no
        square can be selected, so exactly 2^(G_FLAT-1) squares stay
        unresolved and the run is all square geometry.
    (b) For A = k^2, |w'| = 1/|f2|^2 of the canonical quotient (f2 is
        cos(kz)), with (C0, eps0) = (1.5, 0.2), since the default constants
        select no square for most coefficients: build_g0 and four
        refinements, checked for maximality against exhaustive_g0, nesting
        and disjointness; then the non-tangential maximal function of 1/w'
        and its weak-L^p fit, checked against |cos(kz)|^2 in closed form.

    |w'| needs only f2, so the pair is built with make_basis.
    quotient_from_coefficient would also locate the poles of w, which is
    zero finding, not stopping, and raises ContinuationError for a few k
    whose pole lies just inside r_max (perfbench/README.md).
    """

    name = "stopping-descent"
    G_FLAT = 18
    G = 12
    EXHAUSTIVE_G = 10
    C0 = 1.5
    EPS0 = 0.2
    K_MIN, K_MAX = 2.5, 10.0
    N_K = 6
    NT_THETA = 256
    NT_RMAX = 0.995
    NT_RADII = 16
    NT_CHECKED = 16
    NT_TOL = 1e-7

    def __init__(self, seed, src, workdir):
        rng = random.Random(seed)
        self.src = src
        width = (self.K_MAX - self.K_MIN) / self.N_K
        self.ks = [self.K_MIN + width * (j + rng.random())
                   for j in range(self.N_K)]
        self.order = [None] + list(range(self.N_K))  # None: the flat descent
        rng.shuffle(self.order)

    def setup(self):
        _import_discde(self.src)
        from discde import expr, ode, stopping

        self.stopping = stopping
        # z_Q of a generation-G square lies at 1 - 1.5 * 2^-G
        r_need = max(0.996, 1.0 - 1.4 * 2.0 ** (-self.G))
        self.bases = []
        for k in self.ks:
            # the pair of the canonical quotient w = f1/f2: f2(0)=1, f2'(0)=0
            basis = ode.make_basis(expr.parse_expr(repr(k * k)),
                                   ics=((0.0, 1.0), (1.0, 0.0)), r_max=r_need)
            for r in (0.5, 0.9, 0.99, r_need):
                for t in range(128):
                    basis.jet(2, cmath.rect(r, TWO_PI * t / 128), 0)
            self.bases.append(basis)

    def operations(self):
        return [(f"flat G={self.G_FLAT}", self._flat) if j is None
                else (f"k={self.ks[j]:.3f}", self._forest(j))
                for j in self.order]

    @staticmethod
    def _wprime(basis):
        def wprime_abs(z):
            f2 = basis.jet(2, z, 0)[0]
            return math.inf if f2 == 0 else 1.0 / abs(f2) ** 2

        return wprime_abs

    def _flat(self):
        forest = self.stopping.build_g0(lambda z: 1.0,
                                        max_generation=self.G_FLAT)
        selected = len(forest.generations[0])
        unresolved = len(forest.unresolved[0])
        if selected or unresolved != 2 ** (self.G_FLAT - 1):
            return _wrong(f"flat descent: {selected} selected, "
                          f"{unresolved} unresolved")
        return Outcome(True)

    def _forest(self, j):
        stopping = self.stopping
        k = self.ks[j]
        wprime_abs = self._wprime(self.bases[j])

        def op():
            forest = stopping.build_g0(wprime_abs, self.C0, self.EPS0, self.G)
            for _ in range(4):
                stopping.refine_generation(forest)
            oracle = sorted(stopping.exhaustive_g0(
                wprime_abs, self.C0, self.EPS0, self.EXHAUSTIVE_G))
            got = sorted(node.square for node in forest.generations[0]
                         if node.square.generation <= self.EXHAUSTIVE_G)
            if got != oracle:
                return _wrong("G0 differs from the exhaustive scan")
            for gen in forest.generations[1:]:
                for node in gen:
                    if not node.square.is_descendant_of(node.parent):
                        return _wrong(f"{node.square} not below its parent")
            for gen in forest.generations:
                if not _disjoint([node.square for node in gen]):
                    return _wrong("overlapping squares in one generation")
            thetas, samples = stopping.nontangential_max_inv(
                wprime_abs, alpha=2.0, n_theta=self.NT_THETA,
                r_max=self.NT_RMAX, n_radii=self.NT_RADII)
            step = self.NT_THETA // self.NT_CHECKED
            for i in range(0, self.NT_THETA, step):
                points = stopping.stolz_sample(thetas[i], 2.0, self.NT_RMAX,
                                               self.NT_RADII)
                exact = max(abs(cmath.cos(k * z)) ** 2 for z in points)
                if not abs(samples[i] - exact) <= self.NT_TOL * exact:
                    return _wrong(f"maximal function at theta={thetas[i]}: "
                                  f"{samples[i]} != {exact}")
            try:
                stopping.weak_lp_fit(samples)
            except ValueError:
                pass  # a degenerate tail is reported as a skip, as in S5
            return Outcome(True)

        return op


def _disjoint(squares):
    """No square of the list equals or contains another."""
    keys = {(sq.generation, sq.index) for sq in squares}
    if len(keys) != len(squares):
        return False
    for n, j in keys:
        while n > 1:
            n, j = n - 1, (j + 1) // 2
            if (n, j) in keys:
                return False
    return True


# ---------------------------------------------------------------------------


class VerifySuites:
    """``discde verify S --coefficient=A --out DIR`` through cli.main for
    every suite S1-S7 and coefficient, the report read back.

    The coefficient is passed as ``--coefficient=<A>`` because argparse
    reads a separate ``-4*z/...`` as a flag.  An operation fails when cli.main
    raises, exits 2, exits without writing the report, or writes a report
    that does not parse or disagrees with its exit code; a check the report
    marks FAIL is tallied as a failed check, not a failed operation.
    """

    name = "verify-suites"
    SUITES = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")
    COEFFICIENTS = ("1", "25", "0.5/(1-z)", "-4*z/(1-z)^4")

    def __init__(self, seed, src, workdir):
        self.src = src
        self.workdir = workdir
        self.cases = [(s, a) for a in self.COEFFICIENTS for s in self.SUITES]
        random.Random(seed).shuffle(self.cases)

    def setup(self):
        _import_discde(self.src)
        from discde import cli, expr

        self.cli = cli
        for a in self.COEFFICIENTS:
            expr.parse_expr(a)

    def operations(self):
        return [(f"{s} {a}", self._op(s, a)) for s, a in self.cases]

    def _op(self, suite, coefficient):
        def op():
            out = tempfile.mkdtemp(prefix="verify-", dir=self.workdir)
            try:
                return self._verify(suite, coefficient, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return op

    def _verify(self, suite, coefficient, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = self.cli.main(["verify", suite,
                                    f"--coefficient={coefficient}",
                                    "--out", out])
        except Exception as exc:  # escaped cli.main: a failed operation
            return _fail(f"raised {type(exc).__name__}: {exc}")
        if rc not in (0, 1):
            return _fail(f"exit {rc}: {stderr.getvalue().strip()}")
        path = Path(out) / f"report_{suite}.json"
        if not path.is_file() or path.stat().st_size == 0:
            return _fail(f"exit {rc} without a report: "
                         f"{stderr.getvalue().strip()}")
        size = path.stat().st_size
        try:
            report = json.loads(path.read_text())
            checks = report["checks"]
            statuses = [c["passed"] for c in checks]
            anchors_ok = all(str(c["anchor"]).strip() and c["name"]
                             for c in checks)
        except (ValueError, KeyError, TypeError) as exc:
            return _wrong(f"unreadable report: {exc}")
        failed = sum(1 for p in statuses if p is False)
        printed_fail = sum(1 for line in stdout.getvalue().splitlines()
                           if line.endswith(": FAIL"))
        consistent = (
            report.get("suite") == suite and checks and anchors_ok
            and all(p in (True, False, None) for p in statuses)
            and report.get("ok") == (failed == 0)
            and rc == (0 if failed == 0 else 1)
            and printed_fail == failed)
        if not consistent:
            return _wrong(f"report inconsistent with exit {rc}")
        return Outcome(True, checks=len(checks), checks_failed=failed,
                       bytes_written=size)


WORKLOADS = {w.name: w for w in (ZerosWarm, ContinuationCold,
                                 StoppingDescent, VerifySuites)}
