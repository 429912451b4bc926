import cmath
import math
from functools import cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from discde import expr
from discde.ode import (
    DEFAULT_R_MAX,
    ContinuableSolution,
    ContinuableSystem,
    ContinuationError,
    _Expansion,
    make_basis,
    mobius_transfer,
)

COEFFICIENTS = ["0", "1", "-4*z/(1-z)^4", "25", "1/(1-z)"]


def residual_scale(a_node, jet2, z):
    v, d1, d2 = jet2
    return abs(d2 + expr.evaluate(a_node, z) * v) / max(
        1.0, abs(d2), abs(expr.evaluate(a_node, z) * v)
    )


@pytest.mark.parametrize("coeff", COEFFICIENTS)
def test_equation_residual_on_circles(coeff):
    node = expr.parse_expr(coeff)
    f = ContinuableSolution(node, 1.0, 0.5)
    worst = 0.0
    for r in (0.3, 0.6, 0.9):
        for k in range(64):
            z = r * cmath.exp(2j * math.pi * k / 64)
            worst = max(worst, residual_scale(node, f.jet(z, 2), z))
    assert worst <= 1e-8


@pytest.mark.parametrize("coeff", COEFFICIENTS)
def test_wronskian_constant(coeff):
    basis = make_basis(coeff)
    worst = 0.0
    for r in (0.5, 0.8, 0.95):
        for k in range(16):
            z = r * cmath.exp(2j * math.pi * k / 16)
            v1, d1 = basis.jet(1, z, 1)
            v2, d2 = basis.jet(2, z, 1)
            scale = max(1.0, abs(v1 * d2) + abs(d1 * v2))
            worst = max(worst, abs(basis.wronskian(z) - 1.0) / scale)
    assert worst <= 1e-8


def test_trig_solution():
    basis = make_basis("1")
    for z in (0.2, 0.5j, -0.3 + 0.4j):
        v1, _ = basis.jet(1, z, 1)
        assert abs(v1 - cmath.cos(z)) < 1e-12


def test_singular_closed_form():
    # f(z) = exp(-(1+z)/(1-z)) solves the equation with A = -4z/(1-z)^4
    f = ContinuableSolution(expr.parse_expr("-4*z/(1-z)^4"),
                            cmath.exp(-1), -2 * cmath.exp(-1))
    for z in (0.1, 0.25j, -0.5, 0.3 - 0.3j, 0.5):
        target = cmath.exp(-(1 + z) / (1 - z))
        assert abs(f(z) - target) <= 1e-8 * abs(target)


def test_combination_linearity():
    basis = make_basis("25")
    f = basis.solution(2.0, -1.0j)
    z = 0.4 + 0.1j
    direct = 2.0 * basis.jet(1, z, 0)[0] - 1.0j * basis.jet(2, z, 0)[0]
    assert abs(f(z) - direct) < 1e-12


def test_mobius_transfer_coefficient_value():
    t = mobius_transfer("1", 0.5)
    # B(0) = A(phi(0)) phi'(0)^2 = 1 * (|k|^2-1)^2 = 0.5625
    assert abs(expr.evaluate(t.B, 0.0) - 0.5625) < 1e-12


def test_transferred_solution_satisfies_pulled_back_equation():
    kappa = 0.4 - 0.2j
    t = mobius_transfer("25", kappa)
    basis = make_basis("25")
    g = t.transform_solution(basis.f1)
    for zeta in (0.1, -0.3j, 0.2 + 0.2j):
        v, _, d2 = g.jet(zeta, 2)
        b = expr.evaluate(t.B, zeta)
        assert abs(d2 + b * v) <= 1e-7 * max(1.0, abs(b * v))


def test_degenerate_ics_rejected():
    with pytest.raises(ValueError):
        make_basis("1", ics=((1.0, 2.0), (2.0, 4.0)))


# ---------------------------------------------------------------------------
# batched evaluation: one jet for a point or an array


BATCH_CASES = [
    # (coefficient, closed forms of the order-2 jets of f1 and f2 or None)
    ("25", lambda z: ([np.cos(5 * z), -5 * np.sin(5 * z), -25 * np.cos(5 * z)],
                      [np.sin(5 * z) / 5, np.cos(5 * z), -5 * np.sin(5 * z)])),
    ("0.5/(1-z)", None),
    ("2/(1-(0.7316+0.6061*i)*z)^2", None),  # |u| = 0.95: pole near the disc
]


def _assert_jets_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    for k in range(got.shape[0]):  # per derivative order
        floor = rtol * max(1.0, np.max(np.abs(want[k]), initial=0.0))
        np.testing.assert_allclose(got[k], want[k], rtol=rtol, atol=floor)


@pytest.mark.parametrize("coeff, closed", BATCH_CASES)
@given(st.lists(st.complex_numbers(max_magnitude=0.97, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=40))
@settings(max_examples=12, deadline=None)
def test_array_jet_matches_pointwise(coeff, closed, points):
    zs = np.array(points, dtype=complex)
    batched = ContinuableSystem(coeff, [(1, 0), (0, 1)], r_max=0.97)
    pointwise = ContinuableSystem(coeff, [(1, 0), (0, 1)], r_max=0.97)
    for i in (0, 1):
        got = batched.jet(i, zs, 2)
        assert len(got) == 3 and all(g.shape == zs.shape for g in got)
        want = np.array([pointwise.jet(i, z, 2) for z in points]).T
        _assert_jets_close(got, want, 1e-12)
        if closed is not None:
            _assert_jets_close(got, closed(zs)[i], 1e-10)
    # the array continued its uncovered points in order: same expansions
    assert ([e.center for e in batched._expansions]
            == [e.center for e in pointwise._expansions])


def test_jet_point_returns_scalars_and_array_keeps_shape():
    basis = make_basis("25")
    v, d = basis.jet(1, 0.3 + 0.1j, 1)
    assert type(v) is complex and type(d) is complex
    grid = np.full((2, 3), 0.3 + 0.1j)
    values = basis.solution(1.0, 2.0).jet(grid, 2)
    assert [a.shape for a in values] == [(2, 3)] * 3
    assert basis.jet(2, np.zeros(0), 1)[0].shape == (0,)
    v2 = basis.f2.jet(0.3 + 0.1j, 0)
    assert abs(values[0][0, 0] - (v + 2.0 * v2[0])) < 1e-12


def test_pole_inside_disc_is_a_continuation_error():
    # the continuation to 0.6 runs into the pole at 0.5, where the Taylor
    # coefficients of A overflow
    basis = make_basis("1/(z-0.5)")
    with pytest.raises(ContinuationError):
        basis.f1.jet(0.6, 1)


@pytest.mark.parametrize("evaluate", [
    lambda basis: (basis.jet(1, 0.99 - 0.02j, 0), basis.jet(1, 0.993, 0)),
    lambda basis: basis.jet(1, np.array([0.99 - 0.02j, 0.993]), 0),
], ids=["point-then-point", "two-point-array"])
def test_overflowing_solutions_are_a_continuation_error(evaluate):
    # near the boundary pole of the Koebe coefficient the Taylor rows of the
    # solutions overflow to NaN, which the trust estimate does not reject
    # (min() drops a NaN that is not first); such an expansion must not be
    # kept to serve NaN values inside r_max
    basis = make_basis("-4*z/(1-z)^4")
    with pytest.raises(ContinuationError, match="overflow"):
        evaluate(basis)
    assert all(np.isfinite(e.rows).all()
               for e in basis.f1._system._expansions)


# ---------------------------------------------------------------------------
# combination handles: one system call with the weights in the product


KOEBE_CIRCLE = 0.9 * np.exp(2j * np.pi * np.arange(256) / 256)


@pytest.mark.parametrize("coeff, z", [
    ("25", 0.3 + 0.1j),
    ("25", np.linspace(-0.8, 0.8, 17) + 0.2j),
    ("25", np.array([[0.1, -0.5j, 0.7], [0.0, 0.4 + 0.4j, -0.9]])),
    ("-4*z/(1-z)^4", KOEBE_CIRCLE),
])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_combination_handle_is_the_weighted_sum(coeff, z, order):
    basis = make_basis(coeff)
    alpha, beta = 0.7 - 0.2j, 1.3 + 0.4j
    got = basis.solution(alpha, beta).jet(z, order)
    f1, f2 = basis.f1.jet(z, order), basis.f2.jet(z, order)
    want = [alpha * a + beta * b for a, b in zip(f1, f2)]
    assert len(got) == order + 1
    assert all(np.shape(g) == np.shape(z) for g in got)
    if not np.ndim(z):
        assert all(type(g) is complex for g in got)
    _assert_jets_close(got, want, 1e-13)


def test_koebe_circle_spans_several_expansions():
    # the case above on |z| = 0.9 weights the rows of more than one expansion
    basis = make_basis("-4*z/(1-z)^4")
    basis.f1.jet(KOEBE_CIRCLE, 0)
    best, covered = basis.f1._system._cover(KOEBE_CIRCLE)
    assert covered.all() and len(np.unique(best)) > 1


def test_combination_handle_is_one_system_call(monkeypatch):
    basis = make_basis("25")
    calls = []
    jet = ContinuableSystem.jet

    def counted(self, index, z, order=2):
        calls.append(index)
        return jet(self, index, z, order)

    monkeypatch.setattr(ContinuableSystem, "jet", counted)
    handle = basis.solution(2.0, -1.0j)
    handle.jet(np.linspace(0, 0.9, 50), 2)
    handle(0.3j)
    assert len(calls) == 2


@pytest.mark.parametrize("z", [0.3 - 0.6j,
                               0.95 * np.exp(1j * np.linspace(0, 6, 40))])
def test_single_solution_handles_are_the_system_jet_bitwise(z):
    basis = make_basis("-4*z/(1-z)^4")
    system = basis.f1._system
    for i, handle in ((0, basis.f1), (1, basis.f2)):
        want = system.jet(i, z, 2)
        assert np.array_equal(handle.jet(z, 2), want)
    own = ContinuableSolution("25", 1.0, 0.5)
    twin = ContinuableSystem("25", [(1.0, 0.5)])
    assert np.array_equal(own.jet(z, 2), twin.jet(0, z, 2))


# ---------------------------------------------------------------------------
# a point: one cover lookup of its own, the numbers of a one-element array


POINT_CASES = [
    ("25", np.array([0.3 + 0.1j, -0.7j, 0.95, -0.2 + 0.9j])),
    ("0.5/(1-z)", np.array([0.9, 0.5 + 0.5j, -0.99j, 0.97 + 0.1j, 0.0])),
    ("-4*z/(1-z)^4", KOEBE_CIRCLE[::8]),
]


def _handles(basis):
    return basis.f1, basis.f2, basis.solution(0.7 - 0.2j, 1.3 + 0.4j)


@pytest.mark.parametrize("coeff, points", POINT_CASES)
def test_point_jet_is_the_one_element_array_bitwise(coeff, points):
    by_point, by_array = make_basis(coeff), make_basis(coeff)
    for z in points:
        for order in (0, 1, 2):
            for p, a in zip(_handles(by_point), _handles(by_array)):
                got = p.jet(complex(z), order)
                want = [w[0] for w in a.jet(np.array([z]), order)]
                assert got == want  # exact, not close
    assert ([e.center for e in by_point.f1._system._expansions]
            == [e.center for e in by_array.f1._system._expansions])


@pytest.mark.parametrize("z", [0.3 + 0.1j, 0.3, 0, np.complex128(0.3 + 0.1j),
                               np.float64(-0.5), np.array(0.2j)])
def test_scalar_kinds_take_the_point_lookup(z, monkeypatch):
    system = make_basis("25").f1._system

    def no_block(*args):
        raise AssertionError("a point went through the array blocks")

    monkeypatch.setattr(system, "_jet_block", no_block)
    values = system.jet(1, z, 2)
    assert len(values) == 3 and all(type(v) is complex for v in values)


@pytest.mark.parametrize("z", [0.9995, -1.0 + 0.5j, 2.7573518615022516 *
                               cmath.exp(0.3j), complex(math.nan, 0.1),
                               complex(0.1, math.inf)])
def test_point_beyond_r_max_raises_the_array_message(z):
    system = ContinuableSystem("25", [(1, 0), (0, 1)])
    with pytest.raises(ContinuationError) as from_array:
        system.jet(0, np.array([z]), 1)
    with pytest.raises(ContinuationError) as from_point:
        system.jet(0, z, 1)
    assert str(from_point.value) == str(from_array.value)
    assert len(system._expansions) == 1


def test_points_continued_one_at_a_time_leave_the_array_centres():
    # a shuffled sweep of the Koebe circle and inward rays, each point
    # continued to when first seen
    rng = np.random.default_rng(5)
    points = np.concatenate([KOEBE_CIRCLE, 0.97 * np.exp(2j * np.pi *
                             rng.uniform(size=40))])
    rng.shuffle(points)
    by_point = ContinuableSystem("-4*z/(1-z)^4", [(1, 0), (0, 1)])
    by_array = ContinuableSystem("-4*z/(1-z)^4", [(1, 0), (0, 1)])
    for z in points:
        by_point.jet(0, complex(z), 0)
        by_array.jet(0, np.array([z]), 0)
    centres = [e.center for e in by_point._expansions]
    assert len(centres) > 10
    assert centres == [e.center for e in by_array._expansions]


# the modulus bound of a jet at the default r_max, and points uniform in the
# unit disc or within 1e-13 relative of that bound
R_MAX_BOUND = DEFAULT_R_MAX * (1 + 1e-12)
DISC_POINTS = st.builds(lambda u, t: math.sqrt(u) * cmath.exp(2j * math.pi * t),
                        st.floats(0, 1), st.floats(0, 1))
BOUND_POINTS = st.builds(
    lambda d, t: R_MAX_BOUND * (1 + d) * cmath.exp(2j * math.pi * t),
    st.floats(-1e-13, 1e-13), st.floats(0, 1))
# A = 100 has one expansion until a point leaves its cover, |z| <= 0.75 of
# its trust radius (0.915 < r_max); points within 1e-13 relative of that
COVER_BOUND = 0.75 * make_basis("100").f1._system._trusts[0]
COVER_POINTS = st.builds(
    lambda d, t: COVER_BOUND * (1 + d) * cmath.exp(2j * math.pi * t),
    st.floats(-1e-13, 1e-13), st.floats(0, 1))


def _jet_bytes_or_message(handle, z, order):
    try:
        return np.array(handle.jet(z, order)).tobytes()
    except ContinuationError as exc:
        return str(exc)


@settings(max_examples=45, deadline=None)
@example(coeff="100", points=[
    COVER_BOUND * (1 + d) * cmath.exp(1j * t)
    for d, t in ((-1e-13, 0.3), (-4e-15, 1.1), (4e-15, 2.9), (1e-13, -0.7))])
@given(coeff=st.sampled_from(["0.5/(1-z)", "-4*z/(1-z)^4", "100"]),
       points=st.lists(st.one_of(DISC_POINTS, BOUND_POINTS, COVER_POINTS),
                       min_size=1, max_size=4))
def test_point_agrees_with_the_one_element_array(coeff, points):
    # same floats, same accept or reject, same message, same centres
    by_point, by_array = make_basis(coeff), make_basis(coeff)
    for z in points:
        for order in (0, 1, 2):
            for p, a in zip(_handles(by_point), _handles(by_array)):
                assert (_jet_bytes_or_message(p, z, order)
                        == _jet_bytes_or_message(a, np.array([z]), order))
    assert ([e.center for e in by_point.f1._system._expansions]
            == [e.center for e in by_array.f1._system._expansions])


# ---------------------------------------------------------------------------
# an array's power matrix by doubling, against the running product


_KERNEL = _Expansion.jet


def _accumulate_kernel(bounds):
    """The array kernel with its powers from np.multiply.accumulate; it keeps
    sum_n |c_n| |z - c|^n per order of each point in ``bounds``.  A point
    keeps the kernel under test."""
    def jet(self, z, order, index):
        if not np.ndim(z):
            return _KERNEL(self, z, order, index)
        powers = np.empty((self.rows.shape[-1], len(z)), complex)
        powers[...] = z - self.center
        powers[0] = 1.0
        np.multiply.accumulate(powers, out=powers)
        if isinstance(index, np.ndarray):
            rows = (self.rows[:, :order + 1].T @ index).T
        else:
            rows = self.rows[index, :order + 1]
        bounds.update(zip(z.tolist(), np.dot(np.abs(rows), np.abs(powers)).T))
        return np.dot(rows, powers)
    return jet


@settings(max_examples=8, deadline=None)
@given(coeff=st.sampled_from(["25", "0.5/(1-z)", "-4*z/(1-z)^4"]),
       size=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1),
       order=st.integers(0, 2),
       index=st.sampled_from([0, 1, np.array([0.7 - 0.2j, 1.3 + 0.4j])]))
def test_array_powers_by_doubling_match_the_running_product(
        coeff, size, seed, order, index):
    rng = np.random.default_rng(seed)
    zs = 0.95 * np.sqrt(rng.uniform(size=size)) * np.exp(
        2j * np.pi * rng.uniform(size=size))
    system = ContinuableSystem(coeff, [(1, 0), (0, 1)])
    reference = ContinuableSystem(coeff, [(1, 0), (0, 1)])
    got = np.array(system.jet(index, zs, order))
    bounds = {}
    with patch.object(_Expansion, "jet", _accumulate_kernel(bounds)):
        want = np.array(reference.jet(index, zs, order))
    scale = np.array([bounds[z] for z in zs.tolist()]).T
    assert (np.abs(got - want) <= 1e-13 * scale).all()
    assert ([e.center for e in system._expansions]
            == [e.center for e in reference._expansions])


# ---------------------------------------------------------------------------
# a (1, 1) array holds its point's numbers, as a (1,) array does above


@pytest.mark.parametrize("coeff, z", [("25", 0.3 + 0.1j),
                                      ("0.5/(1-z)", 0.97 + 0.1j),
                                      ("-4*z/(1-z)^4", -0.9j)])
def test_one_element_arrays_hold_the_point_bytes(coeff, z):
    by_array = ContinuableSystem(coeff, [(1, 0), (0, 1)])
    by_point = ContinuableSystem(coeff, [(1, 0), (0, 1)])
    for index in (0, 1, np.array([0.7 - 0.2j, 1.3 + 0.4j])):
        for order in (0, 1, 2):
            got = by_array.jet(index, np.full((1, 1), z), order)
            want = by_point.jet(index, z, order)
            assert len(got) == order + 1
            for g, w in zip(got, want):
                assert g.shape == (1, 1) and g.dtype == complex
                assert g.tobytes() == np.array(w).tobytes()
    assert ([e.center for e in by_array._expansions]
            == [e.center for e in by_point._expansions])


@pytest.mark.parametrize("z", [0.9995, -1.0 + 0.5j, 2.7573518615022516 *
                               cmath.exp(0.3j), complex(math.nan, 0.1),
                               complex(0.1, math.inf), complex(math.inf, 0)])
def test_one_element_array_beyond_r_max_raises_the_point_message(z):
    system = ContinuableSystem("25", [(1, 0), (0, 1)])
    with pytest.raises(ContinuationError) as from_point:
        system.jet(0, z, 1)
    with pytest.raises(ContinuationError) as from_one:
        system.jet(0, np.full((1, 1), z), 1)
    assert str(from_one.value) == str(from_point.value)
    assert len(system._expansions) == 1


# Coefficients inside the paper's hypotheses, each with its r_max and the
# argument of its pole.  The 13 query points are the origin and, at 0.7,
# 0.9 and 0.98 of r_max, the points at angles +-0.03 and +-2.1 from the
# pole's ray.  The Koebe coefficient stays out: its continued values
# depend on the order of the queries (2.7e-6 relative on these points
# with r_max 0.99).
IN_HYPOTHESES = {"0.5/(1-z)": (0.999, 0.0),
                 "2/(1-(0.7316+0.6061*i)*z)^2": (0.97, -0.6917),
                 "-0.25/(1-z)^2": (0.999, 0.0)}


def _query_points(coeff):
    r_max, toward = IN_HYPOTHESES[coeff]
    return [0j] + [s * r_max * cmath.exp(1j * (toward + t))
                   for s in (0.7, 0.9, 0.98) for t in (0.03, -0.03, 2.1, -2.1)]


@cache
def _fresh_jets(coeff):
    """(f1, f1') at each query point, each from a basis of its own."""
    r_max = IN_HYPOTHESES[coeff][0]
    return [make_basis(coeff, r_max=r_max).jet(1, z, 1)
            for z in _query_points(coeff)]


@settings(max_examples=60, deadline=None)
@given(coeff=st.sampled_from(sorted(IN_HYPOTHESES)),
       order=st.permutations(range(13)))
def test_values_do_not_depend_on_the_order_of_queries(coeff, order):
    points, fresh = _query_points(coeff), _fresh_jets(coeff)
    shared = make_basis(coeff, r_max=IN_HYPOTHESES[coeff][0])
    for k in order:
        v, d = shared.jet(1, points[k], 1)
        fv, fd = fresh[k]
        assert max(abs(v - fv), abs(d - fd)) <= 1e-13 * max(abs(fv), abs(fd))
