import cmath
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde.cli import main
from discde.ode import ContinuableSystem, make_basis
from discde.schwarzian import (
    PoleError,
    QuotientMap,
    bjest_check,
    factorize,
    pre_schwarzian_bound_check,
    quotient_from_coefficient,
    roth_critical_points,
    roth_map,
    roth_value_map,
    schwarzian,
    stopping_wprime_abs,
)
from discde.zeros import ZeroLocationError, analytic_log

# the package exports the function ``schwarzian`` over this module's name
SCHWARZIAN_MODULE = importlib.import_module("discde.schwarzian")


def koebe_jet3(z):
    return (z / (1 - z) ** 2, (1 + z) / (1 - z) ** 3,
            (4 + 2 * z) / (1 - z) ** 4, (18 + 6 * z) / (1 - z) ** 5)


def mobius_jet3(a, b, c, d, z):
    den = c * z + d
    w = (a * z + b) / den
    det = a * d - b * c
    return (w, det / den**2, -2 * c * det / den**3, 6 * c * c * det / den**4)


def test_schwarzian_of_mobius_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) < 1e-3:
            continue
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert abs(schwarzian(mobius_jet3(a, b, c, d, z))) < 1e-9


def test_koebe_schwarzian_closed_form():
    assert abs(schwarzian(koebe_jet3(0.0)) + 6) < 1e-12
    for z in (0.3, -0.2 + 0.4j, 0.5j):
        assert abs(schwarzian(koebe_jet3(z)) + 6 / (1 - z**2) ** 2) < 1e-9


def test_quotient_schwarzian_identity():
    q = quotient_from_coefficient("1", r_max=0.9)
    for z in (0.3 + 0.2j, -0.5, 0.6j):
        assert abs(q.schwarzian_at(z) - 2.0) <= 1e-8


def test_quotient_wprime_representation():
    q = quotient_from_coefficient("25", r_max=0.9)
    z = 0.11 + 0.07j
    f2 = q.basis.jet(2, z, 0)[0]
    assert abs(q.wprime(z) * f2 * f2 - 1) < 1e-10


def test_quotient_poles_are_f2_zeros():
    # f2 = cos(5z) vanishes at (k+1/2) pi/5
    q = quotient_from_coefficient("25", r_max=0.96)
    moduli = sorted(abs(p) for p in q.poles)
    expected = sorted([math.pi / 10, math.pi / 10,
                       3 * math.pi / 10, 3 * math.pi / 10])
    assert len(moduli) == 4
    assert max(abs(a - b) for a, b in zip(moduli, expected)) < 1e-9
    with pytest.raises(PoleError):
        q(q.poles[0])


def test_quotient_poles_are_not_settable():
    basis = quotient_from_coefficient("1", r_max=0.9).basis
    with pytest.raises(TypeError):
        QuotientMap(basis, poles=[0.5])


def test_schwarzian_mobius_invariance_of_quotient():
    # post-composing with a Mobius map leaves the Schwarzian unchanged
    q = quotient_from_coefficient("1", r_max=0.9)
    a, b, c, d = 1.0, 2.0, 0.5, 2.0
    z = 0.25 - 0.15j
    w, w1, w2, w3 = q.jet3(z)
    den = c * w + d
    det = a * d - b * c
    m1 = det / den**2
    m2 = -2 * c * det / den**3
    m3 = 6 * c * c * det / den**4
    # Faa di Bruno for the composition (M o w)
    c1 = m1 * w1
    c2 = m2 * w1**2 + m1 * w2
    c3 = m3 * w1**3 + 3 * m2 * w1 * w2 + m1 * w3
    composed = ((a * w + b) / den, c1, c2, c3)
    assert abs(schwarzian(composed) - schwarzian((w, w1, w2, w3))) < 1e-8


def test_transfer_cocycle_identities():
    # h = (log (w o phi)')' pulled back: h'(z) = (w''/w')(phi) phi' and
    # h'' - h'^2/2 = S_w(phi) phi'^2 + (w''/w') (phi) phi''
    from discde.ode import mobius_transfer

    q = quotient_from_coefficient("1", r_max=0.9)
    rng = np.random.default_rng(11)
    for _ in range(5):
        zeta = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        kappa = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        t = mobius_transfer("1", kappa)
        z = t.phi(zeta)
        dphi, d2phi = t.dphi(zeta), t.d2phi(zeta)
        w, w1, w2, w3 = q.jet3(z)
        s_w = schwarzian((w, w1, w2, w3))
        h1 = (w2 / w1) * dphi
        # derivative of h1 in zeta
        hp = ((w3 / w1 - (w2 / w1) ** 2) * dphi**2 + (w2 / w1) * d2phi)
        lhs = hp - h1 * h1 / 2
        rhs = s_w * dphi**2 + (w2 / w1) * d2phi - h1 * h1 / 2 \
            + (w2 / w1) ** 2 * dphi**2 / 2
        # equivalently: S_{w o phi} = S_w(phi) phi'^2 since S_phi = 0
        assert abs(lhs - (s_w * dphi**2 + (w2 / w1) * d2phi
                          - ((w2 / w1) * dphi) ** 2 / 2
                          + (w2 / w1) ** 2 * dphi**2 / 2)) < 1e-8
        assert abs(hp - (w2 / w1) * d2phi
                   - (w3 / w1 - (w2 / w1) ** 2) * dphi**2) < 1e-10


def test_log_branch_exponential():
    f_jet = lambda z: (np.exp(z), np.exp(z))
    for z in (0.5, 0.9j, -0.7 + 0.2j, -0.9):
        assert abs(analytic_log(f_jet, z) - z) < 1e-9
        assert abs(cmath.exp(analytic_log(f_jet, z)) - cmath.exp(z)) < 1e-9


def test_log_branch_winds_continuously():
    # f(z) = exp(4z): log should follow 4z, not principal values
    thetas = 2 * math.pi * np.arange(128) / 128
    circle = 0.9 * np.exp(1j * thetas)
    logs = analytic_log(lambda z: (np.exp(4 * z), 4 * np.exp(4 * z)), circle)
    assert np.max(np.abs(logs.imag)) > math.pi  # past the principal branch
    assert np.max(np.abs(logs - 4 * circle)) < 1e-12


def test_log_branch_rejects_zero_crossing():
    f = lambda z: (z - 0.5, 1.0)
    with pytest.raises(ZeroLocationError, match="0 or not finite"):
        analytic_log(f, 0.5)  # the zero on the circle
    with pytest.raises(ZeroLocationError, match="winding number 1"):
        analytic_log(f, np.array([0.1, -0.7j]))  # the zero inside it
    with pytest.raises(ZeroLocationError, match="1 zeros"):
        analytic_log(lambda z: (z * np.exp(z), (1 + z) * np.exp(z)), 0.5)


@given(st.floats(0.5, 6.0), st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
@settings(max_examples=25, deadline=None)
def test_log_of_cosine_solution(k, frac, theta):
    # A = k^2 has f2 = cos kz, zero-free on |z| < pi/(2k)
    f2 = make_basis(repr(k * k), ics=((0.0, 1.0), (1.0, 0.0)), r_max=0.97).f2
    radius = min(0.95, math.pi / (2 * k)) * frac
    zs = radius * np.exp(1j * (theta + np.array([0.0, 1.0, 2.5, 4.0])))
    zs[0] *= 0.3
    values = f2.jet(zs, 0)[0]
    assert np.max(np.abs(np.exp(analytic_log(lambda z: f2.jet(z, 1), zs))
                         - values)) <= 1e-12 * np.max(np.abs(values))


def test_bjest_evaluator_calls():
    f2 = quotient_from_coefficient("0.5/(1-z)", r_max=0.95).basis.f2
    calls = []

    def f_jet(z):
        calls.append(np.size(z))
        return f2.jet(z, 1)

    bjest_check(f_jet, lambda zs: 0.5 / (1 - zs), 0.9)
    assert len(calls) <= 8


def test_quotient_methods_elementwise():
    q = quotient_from_coefficient("25", r_max=0.9)
    zs = np.array([0.1 + 0.05j, -0.2, 0.45j, 0.6 - 0.3j, -0.5 - 0.5j])
    for method in (q, q.wprime, q.log_wprime_derivative,
                   q.schwarzian_at, q.near_pole):
        batch = np.asarray(method(zs))
        single = np.array([method(z) for z in zs])
        assert batch.shape == zs.shape
        assert np.allclose(batch, single, rtol=1e-12, atol=0)
    batch = np.array(q.jet3(zs))
    single = np.array([q.jet3(z) for z in zs]).T
    assert np.allclose(batch, single, rtol=1e-12, atol=0)
    near = np.array([q.poles[0] + 1e-4, 0.1])
    assert q.near_pole(near).tolist() == [True, False]
    with pytest.raises(PoleError):
        q(near)


def test_factorize_reconstruction():
    q = quotient_from_coefficient("1", r_max=0.9)
    for alpha, beta in ((1.0, 0.5), (2.0, 0.0), (1 - 1j, 0.25)):
        fac = factorize(q, alpha, beta)
        for z in (0.2, 0.4j, -0.5 + 0.3j):
            f = (alpha * q.basis.jet(1, z, 0)[0]
                 + beta * q.basis.jet(2, z, 0)[0])
            assert abs(fac.reconstruct(z) - f) < 1e-8
            assert abs(cmath.exp(fac.log_g(z)) ** 2 * q.wprime(z) - 1) < 1e-8


def test_factorize_dependent_solution():
    q = quotient_from_coefficient("1", r_max=0.9)
    fac = factorize(q, 0.0, 2.0)
    assert fac.constant_marker == 2.0
    assert fac.log_w_factor_prime is None
    z = 0.3
    assert abs(fac.reconstruct(z) - 2 * q.basis.jet(2, z, 0)[0]) < 1e-9


def test_factorize_requires_zero_free_f2():
    q = quotient_from_coefficient("25", r_max=0.9)  # cos(5z) vanishes
    with pytest.raises(PoleError):
        factorize(q, 1.0, 0.0)


def test_stopping_wprime_abs_locates_no_poles(monkeypatch, tmp_path):
    """|w'| = 1/|f2|^2 needs f2 alone: neither the quotient's pole search
    nor find_zeros may run, for the closure nor for S5 and stoptime."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pole search ran")

    monkeypatch.setattr(SCHWARZIAN_MODULE, "find_zeros", refuse)
    monkeypatch.setattr(QuotientMap, "__post_init__", refuse)
    wprime_abs = stopping_wprime_abs("25", 12)
    zs = [0.0, 0.3 - 0.2j, 0.9j, -0.99, 0.9996 + 0.0001j]
    got = wprime_abs(np.array(zs))
    assert main(["verify", "S5", "--coefficient=25",
                 "--out", str(tmp_path)]) == 0
    assert main(["stoptime", "--coefficient=25", "--c0", "1.5",
                 "--eps0", "0.2", "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    f2 = quotient_from_coefficient("25", r_max=1 - 1.4 * 2.0**-12).basis.f2
    assert got.tolist() == (1 / np.abs(f2(np.array(zs))) ** 2).tolist()
    assert len(f2._system._expansions) == 1


@pytest.mark.parametrize("command", [
    ["verify", "S5"], ["stoptime", "--c0", "1.5", "--eps0", "0.2"]])
def test_stopping_commands_make_no_point_jets(monkeypatch, tmp_path, command):
    """S5 and stoptime read |w'| on arrays of points, never point by point."""
    points = []
    point_jet = ContinuableSystem._jet_point

    def counted(self, index, z, order):
        points.append(z)
        return point_jet(self, index, z, order)

    monkeypatch.setattr(ContinuableSystem, "_jet_point", counted)
    assert main(command + ["--coefficient=25", "--out", str(tmp_path)]) == 0
    assert points == []


def test_pre_schwarzian_bound_koebe():
    def h(a):
        return (4 + 2 * a) / (1 - a**2)
    samples = [r * cmath.exp(1j * t)
               for r in (0.0, 0.5, 0.9, 0.99, 0.999)
               for t in np.linspace(0, 2 * math.pi, 64, endpoint=False)]
    value, bound, ok, arg = pre_schwarzian_bound_check(h, 1.0, 1.0, samples)
    assert ok and bound == 6.0
    assert value > 6.0 * 0.99  # equality approached along the real axis
    assert abs(arg.imag) < 1e-9


def test_pre_schwarzian_nan_fails_closed():
    calls = []

    def h(a):
        calls.append(a)
        return float("nan")

    value, bound, ok, _ = pre_schwarzian_bound_check(h, 1.0, 1.0, [0.1, 0.2])
    assert math.isnan(value) and bound == 6.0 and not ok
    assert len(calls) == 1
    assert pre_schwarzian_bound_check(h, 1.0, 1.0, []) == (-np.inf, 6.0,
                                                          True, 0j)


def test_pre_schwarzian_rejects_near_pole_samples():
    with pytest.raises(ValueError):
        pre_schwarzian_bound_check(lambda a: 0.0, 1.0, 0.5, [0.45],
                                   poles=[0.5])


def test_bjest_exponential():
    lhs, (t1, t2), ratio = bjest_check(
        lambda z: (np.exp(z), np.exp(z)),
        lambda zs: np.zeros_like(zs), 0.9)
    # log f = z: Parseval gives mean |z|^2 = r^2, matching the first term
    assert lhs == pytest.approx(0.81, abs=1e-8)
    assert t1 == pytest.approx(0.81)
    assert t2 == 0.0
    assert ratio == pytest.approx(1.0, rel=1e-6)


def test_bjest_trivial():
    lhs, terms, ratio = bjest_check(lambda z: (1.0, 0.0),
                                    lambda zs: np.zeros_like(zs), 0.5)
    assert lhs == 0.0 and ratio == 0.0


def test_roth_map_values():
    assert roth_map(1.0) == pytest.approx(1.5)
    crit = roth_critical_points()
    assert sorted(round(abs(c), 12) for c in crit) == [1.0, 1.0, 1.0]
    for c in crit:
        # R'(z) = 1 - z^-3 vanishes at cube roots of unity
        assert abs(1 - c ** (-3)) < 1e-12


def test_roth_preimages():
    roots = roth_value_map(0.0)
    assert len(roots) == 3
    for z in roots:
        assert abs(abs(z) - 2 ** (-1 / 3)) < 1e-10
        assert abs(roth_map(z)) < 1e-10


def test_roth_infinity():
    assert roth_value_map(math.inf) == [math.inf]


def test_roth_surjective_sampling():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        roots = roth_value_map(w)
        assert roots
        assert min(abs(roth_map(z) - w) for z in roots) < 1e-6 * max(1, abs(w))


def test_analytic_log_at_subnormal_radius_is_log_f0():
    # 1/R overflows for a subnormal R, so the circle would give NaN
    zs = 2.2250738585e-313 * np.array([0.3, 1j, -1.0])
    logs = analytic_log(lambda z: (2 * np.exp(z), 2 * np.exp(z)), zs)
    assert np.all(logs == np.log(2.0))
