"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Oracles are closed forms: trigonometric solutions for constant coefficients,
exp(-(1+z)/(1-z)) for the boundary-singular coefficient, the Koebe function
for extremal Schwarzian/pre-Schwarzian values, and exact arithmetic for the
derived constants.
"""

import cmath
import math

import numpy as np
import pytest

from discde import expr
from discde.functionals import fp_norm, growth_norm, normality_sigma
from discde.geometry import phi, rho_p
from discde.ode import ContinuableSolution, make_basis, mobius_transfer
from discde.schwarzian import (
    pre_schwarzian_bound_check,
    quotient_from_coefficient,
    roth_critical_points,
    roth_map,
    roth_value_map,
    schwarzian,
)
from discde.stopping import (
    build_g0,
    exhaustive_g0,
    predicted_p,
    refine_generation,
    nontangential_max_inv,
    weak_lp_fit,
)
from discde.zeros import find_zeros, jensen_check

TEST_COEFFICIENTS = ["0", "1", "-4*z/(1-z)^4", "25", "1/(1-z)"]


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert passed, detail


def test_criterion_01_residual_and_wronskian():
    worst_res = 0.0
    worst_wr = 0.0
    for coeff in TEST_COEFFICIENTS:
        node = expr.parse_expr(coeff)
        basis = make_basis(node)
        for r in (0.3, 0.6, 0.9):
            for k in range(64):
                z = r * cmath.exp(2j * math.pi * k / 64)
                a = expr.evaluate(node, z)
                for which in (1, 2):
                    v, d1, d2 = basis.jet(which, z, 2)
                    scale = max(1.0, abs(d2), abs(a * v))
                    worst_res = max(worst_res, abs(d2 + a * v) / scale)
        # Wronskian drift out to |z| = 0.95, relative to the conditioning
        # scale of the determinant (|f1 f2'| + |f1' f2|)
        for k in range(32):
            z = 0.95 * cmath.exp(2j * math.pi * k / 32)
            v1, d1 = basis.jet(1, z, 1)
            v2, d2 = basis.jet(2, z, 1)
            scale = max(1.0, abs(v1 * d2) + abs(d1 * v2))
            worst_wr = max(worst_wr, abs(basis.wronskian(z) - 1.0) / scale)
    ok = worst_res <= 1e-8 and worst_wr <= 1e-8
    report(1, ok, f"residual {worst_res:.2e}, wronskian drift {worst_wr:.2e}")


def test_criterion_02_closed_form_and_divergence():
    f = ContinuableSolution(expr.parse_expr("-4*z/(1-z)^4"),
                            cmath.exp(-1), -2 * cmath.exp(-1))
    worst = 0.0
    for r in (0.1, 0.3, 0.5):
        for k in range(32):
            z = r * cmath.exp(2j * math.pi * k / 32)
            target = cmath.exp(-(1 + z) / (1 - z))
            worst = max(worst, abs(f(z) - target) / abs(target))
    rep = growth_norm(lambda zs: -4 * zs / (1 - zs) ** 4, 2.0,
                      radii=(0.5, 0.9, 0.99), refine=False)
    per = dict(rep.per_radius)
    ratio = per[0.99] / per[0.9]
    # the circle maximum sits at theta = 0: 4r(1+r)^2/(1-r)^2 ~ 16/(1-r)^2
    within = all(
        0.5 <= per[r] / (16 / (1 - r) ** 2) <= 2.0 for r in (0.9, 0.99)
    )
    ok = worst <= 1e-8 and ratio >= 50 and within
    report(2, ok, f"match {worst:.2e}, growth ratio {ratio:.1f}, "
                  f"16/(1-r)^2 agreement {within}")


def test_criterion_03_schwarzian_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for coeff in TEST_COEFFICIENTS:
        node = expr.parse_expr(coeff)
        q = quotient_from_coefficient(coeff, r_max=0.9)
        n = 0
        while n < 200:
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if abs(z) >= 0.85 or q.near_pole(z):
                continue
            worst = max(worst, abs(q.schwarzian_at(z)
                                   - 2 * expr.evaluate(node, z)))
            n += 1
    koebe_worst = 0.0
    for k in range(100):
        z = 0.5 * cmath.exp(2j * math.pi * k / 100) * (0.3 + 0.007 * k)
        jet = (z / (1 - z) ** 2, (1 + z) / (1 - z) ** 3,
               (4 + 2 * z) / (1 - z) ** 4, (18 + 6 * z) / (1 - z) ** 5)
        koebe_worst = max(koebe_worst,
                          abs(schwarzian(jet) + 6 / (1 - z**2) ** 2))
    ok = worst <= 1e-7 and koebe_worst <= 1e-9
    report(3, ok, f"S_w - 2A residual {worst:.2e}, Koebe {koebe_worst:.2e}")


def test_criterion_04_jensen_gap():
    worst = 0.0
    # five bases whose solutions have no zeros on |z| = 0.9 or 0.95
    # (the Jensen identity requires a zero-free integration circle; the
    # exp(-(1+z)/(1-z)) solution has zeros of modulus exactly 0.95)
    for coeff in ("0", "1", "25", "100", "1/(1-z)"):
        basis = make_basis(coeff, ics=((0.0, 1.0), (1.0, 0.0)), r_max=0.97)
        f = basis.f1
        jet = lambda z: f.jet(z, 1)
        seq = find_zeros(jet, 0.96, deflate_origin=True)
        for r in (0.9, 0.95):
            inner = [z for z in seq.zeros
                     if z != 0 and abs(abs(z) - r) > 1e-3 and abs(z) < r]

            def deflated(z, f=f):
                z = np.where(z == 0, 1e-7, z)
                v, d = f.jet(z, 1)
                return v / z, (d * z - v) / (z * z)

            gap = jensen_check(deflated, inner, r)
            worst = max(worst, abs(gap))
    ok = worst <= 1e-6
    report(4, ok, f"max Jensen gap {worst:.2e} over 5 bases x 2 radii")


def test_criterion_05_mobius_transfer_zeros():
    basis = make_basis("25", ics=((0.0, 1.0), (1.0, 0.0)), r_max=0.98)
    f = basis.f1  # sin(5z)/5, zeros at k pi / 5
    zeros = [k * math.pi / 5 for k in (-1, 0, 1)]
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        kappa = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        t = mobius_transfer("25", kappa)
        g = t.transform_solution(f)
        predicted = [phi(kappa, z) for z in zeros if abs(phi(kappa, z)) < 0.85]
        located = find_zeros(lambda z: g.jet(z, 1), 0.9).zeros
        for p in predicted:
            gap = min(abs(p - z) for z in located)
            worst = max(worst, gap)
    ok = worst <= 1e-7
    report(5, ok, f"transfer zero mismatch {worst:.2e} over 10 kappa")


def test_criterion_06_blaschke_family_constant():
    fitted = {}
    for c in (100.0, 50.0, 25.0):
        root = math.sqrt(c)
        basis = make_basis(repr(c), ics=((0.0, 1.0), (1.0, 0.0)), r_max=0.97)
        seq = find_zeros(lambda z: basis.f1.jet(z, 1), 0.95,
                         deflate_origin=True)
        zeros = list(seq.zeros)
        # oracle: sin(root z)/root vanishes at k pi / root
        expected = sorted(k * math.pi / root
                          for k in range(-int(0.95 * root / math.pi),
                                         int(0.95 * root / math.pi) + 1))
        assert len(zeros) == len(expected)
        sup_sum = max(
            sum(1 - rho_p(zn, zk) for zn in zeros if zn != zk)
            for zk in zeros
        )
        f1 = fp_norm(lambda zs, c=c: c * np.ones_like(zs), 1.0).value
        fitted[c] = sup_sum / f1
    ratios = [fitted[100.0] / fitted[50.0], fitted[50.0] / fitted[25.0]]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    report(6, ok, "fitted K by c: "
           + ", ".join(f"{c:g}->{k:.4f}" for c, k in fitted.items())
           + f"; halving ratios {[round(r, 3) for r in ratios]}")


def test_criterion_07_factorization():
    worst_resid = 0.0
    worst_branch = 0.0
    from discde.schwarzian import factorize

    for coeff in ("1", "0.25", "-1"):
        q = quotient_from_coefficient(coeff, r_max=0.9)
        assert not q.poles
        for alpha, beta in ((1.0, 0.5), (1 - 0.5j, 0.2)):
            fac = factorize(q, alpha, beta)
            for z in (0.2, -0.4, 0.5j, 0.3 - 0.3j, -0.2 + 0.45j):
                target = (alpha * q.basis.jet(1, z, 0)[0]
                          + beta * q.basis.jet(2, z, 0)[0])
                worst_resid = max(worst_resid,
                                  abs(fac.reconstruct(z) - target))
                worst_branch = max(
                    worst_branch,
                    abs(cmath.exp(fac.log_g(z)) ** 2 * q.wprime(z) - 1),
                )
    ok = worst_resid <= 1e-8 and worst_branch <= 1e-8
    report(7, ok, f"gW-f residual {worst_resid:.2e}, "
                  f"branch error {worst_branch:.2e}")


def test_criterion_08_pre_schwarzian_bound():
    samples = [r * cmath.exp(2j * math.pi * k / 64)
               for r in (0.0, 0.5, 0.9, 0.99, 0.999) for k in range(64)]

    def koebe_h(a):
        return (4 + 2 * a) / (1 - a**2)

    value, bound, ok_koebe, arg = pre_schwarzian_bound_check(
        koebe_h, 1.0, 1.0, samples)
    near_equality = value >= 6.0 * 0.99 and abs(arg.imag) < 1e-9
    ok_quotients = True
    inner = [z for z in samples if abs(z) <= 0.9]
    for coeff in ("1", "-1", "0.25"):
        q = quotient_from_coefficient(coeff, r_max=0.95)
        v, b, ok_q, _ = pre_schwarzian_bound_check(
            q.log_wprime_derivative, 1.0, 1.0, inner, poles=q.poles)
        ok_quotients = ok_quotients and ok_q
    ok = ok_koebe and near_equality and ok_quotients
    report(8, ok, f"Koebe sup {value:.4f} of bound {bound}, "
                  f"quotient bounds hold: {ok_quotients}")


def test_criterion_09_stopping_time():
    q = quotient_from_coefficient("25", r_max=1 - 1.4 * 2.0**-12)

    def wprime_abs(z):
        f2 = q.basis.jet(2, z, 0)[0]
        return np.inf if f2 == 0 else 1.0 / abs(f2) ** 2

    c0, eps0 = 1.5, 0.2
    forest = build_g0(wprime_abs, c0, eps0, max_generation=12)
    oracle = sorted(exhaustive_g0(wprime_abs, c0, eps0, 12))
    got = sorted(n.square for n in forest.generations[0])
    scan_equal = got == oracle
    for _ in range(5):
        refine_generation(forest)
    nested = all(
        node.square.is_descendant_of(node.parent)
        for gen in forest.generations[1:] for node in gen
    )
    disjoint = all(
        not (a.square.is_descendant_of(b.square)
             or b.square.is_descendant_of(a.square))
        for gen in forest.generations
        for i, a in enumerate(gen) for b in gen[i + 1:]
    )
    exact_p = predicted_p(2.0, 0.125) == 0.25
    _, samples = nontangential_max_inv(wprime_abs, alpha=2.0, n_theta=256,
                                       r_max=0.995, n_radii=16)
    emp_p, _, _ = weak_lp_fit(samples)
    one_sided = emp_p >= predicted_p(c0, eps0)
    ok = scan_equal and nested and disjoint and exact_p and one_sided
    report(9, ok, f"scan equal {scan_equal}, nested {nested}, disjoint "
                  f"{disjoint}, p(2,1/8)=0.25 {exact_p}, empirical "
                  f"{emp_p:.3f} >= predicted {predicted_p(c0, eps0):.3f}")


def test_criterion_10_roth():
    crit = sorted(roth_critical_points(),
                  key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    target = sorted((cmath.exp(2j * math.pi * k / 3) for k in range(3)),
                    key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    crit_err = max(abs(a - b) for a, b in zip(crit, target))
    rng = np.random.default_rng(99)
    all_hit = True
    for _ in range(200):
        w = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        roots = roth_value_map(w)
        if not roots or min(abs(roth_map(z) - w) for z in roots) > 1e-6 * max(1, abs(w)):
            all_hit = False
    ok = crit_err <= 1e-12 and all_hit
    report(10, ok, f"critical point error {crit_err:.2e}, "
                   f"200-sample surjectivity {all_hit}")


def test_criterion_11_normality_pipeline():
    basis = make_basis("1", ics=((0.0, 1.0), (1.0, 0.0)), r_max=0.97)
    f = basis.f1  # sine
    sigma = normality_sigma(lambda z: f.jet(z, 1), n_theta=48,
                            radii=(0.0, 0.5, 0.75, 0.875, 0.9375))
    seq = find_zeros(lambda z: f.jet(z, 1), 0.95, deflate_origin=True)
    cond2 = max(((1 - abs(z) ** 2) * abs(f.jet(z, 1)[1]) for z in seq.zeros),
                default=0.0)
    cond3 = max(
        abs(f(z + 0.3 * (1 - abs(z)) * 0.9 * cmath.exp(2j * math.pi * k / 8)))
        for z in seq.zeros for k in range(8)
    )
    c = 0.3
    rule = c * c * 1.0 / (1 - c) ** 2  # ||A||_{H^infty_2} = 1 for A = 1
    finite = all(map(math.isfinite, (sigma.value, cond2, cond3)))
    ok = finite and rule < 1 and abs(rule - 9 / 49) < 1e-12
    report(11, ok, f"sigma {sigma.value:.3f}, zero-derivative sup "
                   f"{cond2:.3f}, disc sup {cond3:.3f}, rule {rule:.4f} < 1")


def test_criterion_12_inequality_chain():
    from discde.functionals import weighted_area_integral

    ok = True
    details = []
    for coeff in ("1", "0.25", "0.5/(1-z)"):
        node = expr.parse_expr(coeff)
        a_eval = lambda zs, node=node: expr.eval_array(node, zs)
        norm_a = growth_norm(a_eval, 2.0).value
        left = weighted_area_integral(a_eval, 2.0, 3.0)
        middle = norm_a * weighted_area_integral(a_eval, 1.0, 1.0)
        right = norm_a**1.5 * weighted_area_integral(a_eval, 0.5, 0.0)
        tol = 1e-9 * max(1.0, middle, right)
        chain = left <= middle + tol and middle <= right + tol
        ok = ok and chain
        details.append(f"{coeff}: {left:.4f} <= {middle:.4f} <= {right:.4f}")
    report(12, ok, "; ".join(details))
