import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from discde.geometry import generation_squares, stolz_contains
from discde.stopping import (
    Elementwise,
    StoppingForest,
    StoppingNode,
    ThresholdUnderflowError,
    build_g0,
    distribution_function,
    dump_distribution_csv,
    dump_forest_jsonl,
    exhaustive_g0,
    nontangential_max_inv,
    predicted_p,
    refine_generation,
    stolz_sample,
    stopping_threshold,
    weak_lp_fit,
)


def _pointwise(fn):
    return fn


# a test of a |w'| runs it as a plain callable on points and as an
# evaluator on arrays
KINDS = (_pointwise, Elementwise)


def test_threshold_values():
    assert stopping_threshold(2.0, 0.125) == pytest.approx(2.0**-8)
    with pytest.raises(ValueError):
        stopping_threshold(0.5, 0.1)
    with pytest.raises(ValueError):
        stopping_threshold(2.0, 0.3)  # above 1/4
    with pytest.raises(ThresholdUnderflowError):
        stopping_threshold(10.0, 0.001)


def test_g0_trivial_cases():
    small = stopping_threshold(2.0, 0.125) / 2
    for kind in KINDS:
        assert build_g0(kind(lambda z: 1.0), 2.0, 0.125).generations[0] == []
        # constant below threshold: the two second-generation squares
        g0 = build_g0(kind(lambda z: small), 2.0, 0.125).generations[0]
        assert len(g0) == 2
        assert all(node.square.generation == 2 for node in g0)
        # NaN fails every square
        nan = build_g0(kind(lambda z: math.nan), 2.0, 0.125, 6)
        assert nan.generations[0] == [] and len(nan.unresolved[0]) == 32


def test_refine_constant_gives_empty_next():
    small = stopping_threshold(2.0, 0.125) / 2
    forest = build_g0(lambda z: small, 2.0, 0.125)
    assert refine_generation(forest) == []
    assert all(node.decay_pass for node in forest.generations[0])


def test_exhaustive_scan_equivalence():
    for kind in KINDS:
        wp = kind(lambda z: abs(1 - z) ** 4)
        for c0, eps0 in ((1.5, 0.2), (2.0, 0.125)):
            forest = build_g0(wp, c0, eps0, max_generation=12)
            oracle = sorted(exhaustive_g0(wp, c0, eps0, 12))
            got = sorted(node.square for node in forest.generations[0])
            assert got == oracle


# Square-by-square depth-first descent, the reference for the descent by
# generations: a stack of squares, one |w'| call per square popped.


def _descent_reference(wprime_abs, roots, threshold, max_generation,
                       min_generation=2):
    selected, unresolved = [], []
    stack = list(roots)[::-1]
    while stack:
        sq = stack.pop()
        if sq.generation > max_generation:
            unresolved.append(sq)
            continue
        if sq.generation >= min_generation:
            value = wprime_abs(sq.z_q)
            if value <= threshold:
                selected.append((sq, value))
                continue
        if sq.generation >= max_generation:
            unresolved.append(sq)
            continue
        stack.extend(sq.children()[::-1])
    return selected, unresolved


def _build_g0_reference(wprime_abs, c0, eps0, max_generation):
    threshold = stopping_threshold(c0, eps0)
    forest = StoppingForest(wprime_abs, c0, eps0, max_generation)
    selected, unresolved = _descent_reference(
        wprime_abs, generation_squares(2), threshold, max_generation)
    forest.generations.append([StoppingNode(sq, v, 0) for sq, v in selected])
    forest.unresolved.append(unresolved)
    return forest


def _refine_reference(forest):
    n = len(forest.generations) - 1
    next_gen, unresolved_here = [], []
    for node in forest.generations[n]:
        threshold = forest.eps0 * node.wprime_abs
        selected, unresolved = _descent_reference(
            forest.wprime_abs, list(node.square.children()), threshold,
            forest.max_generation, min_generation=node.square.generation + 1)
        children_length = sum(sq.ell for sq, _ in selected)
        node.decay_pass = children_length <= 0.5 * node.square.ell + 1e-15
        node.truncated = bool(unresolved)
        unresolved_here.extend(unresolved)
        for sq, v in selected:
            next_gen.append(StoppingNode(sq, v, n + 1, parent=node.square))
    forest.generations.append(next_gen)
    forest.unresolved.append(unresolved_here)
    return next_gen


def _hashed_wprime(seed, calls, mix=(0.02, 0.02, 0, 0.02, 0)):
    """A seeded hash u of z: NaN, 0, -0.0, inf and negative values in the
    shares of ``mix`` (by default about 2 % each of NaN, 0 and inf), the
    others positive, with magnitude 10^(6u - 4) in [1e-4, 1e2]; every
    argument is appended to calls."""
    edges = np.cumsum(mix).tolist()

    def wprime_abs(z):
        calls.append(z)
        u = hash((seed, z.real, z.imag)) % 2**20 / 2**20
        kind = sum(u >= e for e in edges)
        if kind < 4:
            return (math.nan, 0.0, -0.0, math.inf)[kind]
        return (-1 if kind == 4 else 1) * 10.0 ** (6 * u - 4)

    return wprime_abs


def _node_key(node):
    return (node.square, node.wprime_abs, node.generation, node.parent,
            node.truncated, node.decay_pass)


@given(seed=st.integers(0, 2**32), c0=st.floats(1.05, 4.0),
       eps0_frac=st.floats(0.05, 0.95), max_generation=st.integers(2, 12),
       refinements=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_descent_by_generations_matches_depth_first_reference(
        seed, c0, eps0_frac, max_generation, refinements):
    eps0 = eps0_frac * min(0.25, 1 / c0)
    calls, ref_calls = [], []
    forest = build_g0(_hashed_wprime(seed, calls), c0, eps0, max_generation)
    ref = _build_g0_reference(_hashed_wprime(seed, ref_calls), c0, eps0,
                              max_generation)
    for _ in range(refinements):
        refine_generation(forest)
        _refine_reference(ref)
    assert ([[_node_key(node) for node in gen] for gen in forest.generations]
            == [[_node_key(node) for node in gen] for gen in ref.generations])
    assert ([rows.tolist() for rows in forest.unresolved]
            == [[[sq.generation, sq.index] for sq in squares]
                for squares in ref.unresolved])
    assert Counter(calls) == Counter(ref_calls)


def _assert_one_call_per_generation(kind, calls, generations):
    """An Elementwise evaluator was called once per dyadic generation, on
    the 1-d complex array of its 2^(n-1) centres; a plain one per centre."""
    sizes = [2 ** (n - 1) for n in generations]
    if kind is Elementwise:
        assert [(type(zs), zs.dtype, zs.shape) for zs in calls] == [
            (np.ndarray, np.complex128, (size,)) for size in sizes]
    else:
        assert len(calls) == sum(sizes)


@pytest.mark.parametrize("G", [2, 3, 18])
def test_flat_descent_calls_every_square_once(G):
    for kind in KINDS:
        calls = []
        forest = build_g0(kind(lambda z: calls.append(z) or 1.0),
                          max_generation=G)
        _assert_one_call_per_generation(kind, calls, range(2, G + 1))
        assert forest.generations[0] == []
        rows = forest.unresolved[0]
        assert rows.shape == (2 ** (G - 1), 2)
        assert np.array_equal(rows[:, 0], np.full(2 ** (G - 1), G))
        assert np.array_equal(rows[:, 1], np.arange(1, 2 ** (G - 1) + 1))


def test_flat_refinement_calls_every_square_once():
    small = stopping_threshold(2.0, 0.125) / 2
    for kind in KINDS:
        forest = build_g0(lambda z: small, 2.0, 0.125, max_generation=8)
        calls = []
        forest.wprime_abs = kind(lambda z: calls.append(z) or 1.0)
        assert refine_generation(forest) == []
        # the two second-generation owners descend together
        _assert_one_call_per_generation(kind, calls, range(3, 9))


def test_refining_an_empty_generation_appends_no_rows():
    forest = build_g0(lambda z: 1.0, 2.0, 0.125, max_generation=6)
    assert refine_generation(forest) == []
    assert forest.unresolved[-1].shape == (0, 2)


def test_node_at_max_generation_is_refined_without_a_call():
    small = stopping_threshold(2.0, 0.125) / 2
    for kind in KINDS:
        forest = build_g0(lambda z: small, 2.0, 0.125, max_generation=2)
        calls = []
        forest.wprime_abs = kind(lambda z: calls.append(z) or small)
        assert refine_generation(forest) == [] and calls == []
        assert all(node.truncated and node.decay_pass
                   for node in forest.generations[0])
        assert forest.unresolved[-1].tolist() == [
            [3, 1], [3, 2], [3, 3], [3, 4]]


@pytest.mark.parametrize("value", [1.0, stopping_threshold(2.0, 0.125) / 2])
def test_unresolved_rows_own_their_two_columns(value):
    # no view that keeps the owner column of the descent's rows alive
    forest = build_g0(lambda z: value, 2.0, 0.125, max_generation=8)
    refine_generation(forest)
    assert sum(len(rows) for rows in forest.unresolved) == 128
    for rows in forest.unresolved:
        assert rows.base is None and rows.shape[1] == 2


def test_max_generation_beyond_double_precision_is_rejected():
    # a generation-55 center rounds onto the unit circle
    with pytest.raises(ValueError, match="max_generation"):
        build_g0(lambda z: 1.0, max_generation=55)


def test_forest_nesting_and_disjointness():
    for kind in KINDS:
        wp = kind(lambda z: abs(1 - z) ** 4)
        forest = build_g0(wp, 1.5, 0.2, max_generation=14)
        for _ in range(5):
            refine_generation(forest)
        for gen_idx, gen in enumerate(forest.generations[1:], 1):
            for node in gen:
                assert node.square.is_descendant_of(node.parent)
                assert node.generation == gen_idx
        for gen in forest.generations:
            squares = [n.square for n in gen]
            for i in range(len(squares)):
                for j in range(i + 1, len(squares)):
                    assert squares[i] != squares[j]
                    assert not squares[i].is_descendant_of(squares[j])
                    assert not squares[j].is_descendant_of(squares[i])


def test_length_decay_implies_geometric_sum():
    wp = lambda z: abs(1 - z) ** 4
    forest = build_g0(wp, 1.5, 0.2, max_generation=14)
    for _ in range(3):
        refine_generation(forest)
    sums = forest.length_sums()
    all_pass = all(
        node.decay_pass
        for gen in forest.generations[:-1] for node in gen
        if node.decay_pass is not None
    )
    if all_pass:
        for n, s in enumerate(sums):
            assert s <= sums[0] / 2**n + 1e-12


@pytest.mark.parametrize("alpha, r_max, n_radii",
                         [(2.0, 0.999, 24), (1.5, 0.99, 10), (3.0, 0.9997, 40)])
def test_stolz_sample_matches_pointwise_reference(alpha, r_max, n_radii):
    for theta in 2 * math.pi * np.arange(32) / 32:
        expected = []
        depths = np.arange(1, n_radii + 1)
        for r in 1 - (1 - r_max) ** (depths / n_radii):
            half_width = math.sqrt(max(alpha * alpha - 1, 0.0)) * (1 - r)
            for t in np.linspace(-half_width, half_width, 5):
                z = complex(r * np.exp(1j * (theta + t)))
                if abs(z - np.exp(1j * theta)) <= alpha * (1 - abs(z)):
                    expected.append(z)
        expected.append(complex(r_max * np.exp(1j * theta)))
        points = stolz_sample(theta, alpha, r_max, n_radii)
        assert points == expected
        assert all(type(z) is complex for z in points)
    zs = np.array([0.9, 0.9j, 0.5, -0.99, 0.999 + 0.01j])
    assert stolz_contains(0.0, 2.0, zs).tolist() == [
        bool(stolz_contains(0.0, 2.0, z)) for z in zs]


def test_nontangential_max_constant():
    for kind in KINDS:
        _, samples = nontangential_max_inv(kind(lambda z: 2.0), n_theta=16,
                                           n_radii=4)
        assert np.allclose(samples, 0.5)


def test_nontangential_max_boundary_singularity():
    for kind in KINDS:
        wp = kind(lambda z: abs(1 - z) ** 2)
        thetas, samples = nontangential_max_inv(wp, alpha=2.0, n_theta=64,
                                                r_max=0.999, n_radii=24)
        assert samples[0] == pytest.approx(1e6, rel=4.0)
        _, wider = nontangential_max_inv(wp, alpha=3.0, n_theta=64,
                                         r_max=0.999, n_radii=24)
        assert np.all(wider >= samples - 1e-12)


def test_nontangential_max_is_nan_where_a_sample_value_is_nan():
    for kind in KINDS:
        # |w'| is NaN on a disc about 0.99: the sup at theta = 0 is unknown,
        # not the 1.0 of the points around it
        wp = kind(lambda z: np.where(abs(z - 0.99) < 0.2, math.nan, 1.0))
        thetas, samples = nontangential_max_inv(wp, n_theta=64, n_radii=8)
        assert math.isnan(samples[0])
        far = np.abs(np.exp(1j * thetas) - 1) > 0.5
        assert np.all(samples[far] == 1.0)


def test_nontangential_max_is_inf_where_a_sample_value_is_zero():
    for kind in KINDS:
        wp = kind(lambda z: np.where(abs(z + 0.99) < 0.2, 0.0, 1.0))
        thetas, samples = nontangential_max_inv(wp, n_theta=64, n_radii=8)
        assert samples[32] == math.inf  # theta = pi
        far = np.abs(np.exp(1j * thetas) + 1) > 0.5
        assert np.all(samples[far] == 1.0)


def _quartic(z):
    """|1 - z|^4 from real products and sums, which a point and an array
    round alike; NaN on a disc about 0.8 and 0 on a disc about 0.9i."""
    d, p, q = 1 - z, z - 0.8, z - 0.9j
    s = d.real * d.real + d.imag * d.imag
    return np.where(p.real * p.real + p.imag * p.imag < 0.01, math.nan,
                    np.where(q.real * q.real + q.imag * q.imag < 0.01, 0.0,
                             s * s))


@pytest.mark.parametrize("c0, eps0", [(1.5, 0.2), (2.0, 0.125)])
def test_elementwise_evaluator_gives_the_pointwise_bits(c0, eps0):
    points, arrays = [], []
    pointwise = lambda z: points.append(z) or _quartic(z)
    elementwise = Elementwise(lambda zs: arrays.append(zs) or _quartic(zs))

    def same_points():  # the arrays hold the points in call order
        assert all(zs.ndim == 1 and zs.dtype == np.complex128
                   for zs in arrays)
        assert np.concatenate(arrays).tolist() == points
        n = len(arrays)
        points.clear()
        arrays.clear()
        return n

    forests = [build_g0(wp, c0, eps0, max_generation=14)
               for wp in (pointwise, elementwise)]
    assert same_points() == 13  # squares far from 1 reach generation 14
    for _ in range(4):
        for forest in forests:
            refine_generation(forest)
        same_points()
    want, got = ([[_node_key(node) for node in gen]
                  for gen in forest.generations] for forest in forests)
    assert got == want and len(want[0]) > 0
    assert ([rows.tolist() for rows in forests[0].unresolved]
            == [rows.tolist() for rows in forests[1].unresolved])
    want, got = (exhaustive_g0(wp, c0, eps0, 10)
                 for wp in (pointwise, elementwise))
    assert got == want
    assert same_points() == 9  # generations 2..10
    want, got = (nontangential_max_inv(wp, n_theta=64, n_radii=24)[1]
                 for wp in (pointwise, elementwise))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).any() and np.isinf(got).any()
    assert same_points() == 1


# Angle-by-angle maximal function, the reference for the single sweep: one
# Stolz sample per angle, |w'| point by point until a NaN.


def _stolz_sample_reference(theta, alpha, r_max, n_radii):
    depths = np.arange(1, n_radii + 1)
    radii = 1 - (1 - r_max) ** (depths / n_radii)
    half_width = math.sqrt(max(alpha * alpha - 1, 0.0)) * (1 - radii)
    offsets = np.linspace(-half_width, half_width, 5, axis=1)
    zs = (radii[:, None] * np.exp(1j * (theta + offsets))).ravel()
    points = zs[stolz_contains(theta, alpha, zs)].tolist()
    points.append(complex(r_max * np.exp(1j * theta)))
    return points


def _nontangential_reference(wprime_abs, alpha, n_theta, r_max, n_radii):
    thetas = 2 * math.pi * np.arange(n_theta) / n_theta
    out = np.empty(n_theta)
    for i, theta in enumerate(thetas):
        best = 0.0
        for z in _stolz_sample_reference(theta, alpha, r_max, n_radii):
            v = wprime_abs(z)
            if v != v:
                best = math.nan
                break
            inv = np.inf if v == 0 else 1.0 / v
            if inv > best:
                best = inv
        out[i] = best
    return thetas, out


# shares of (NaN, 0, -0.0, inf, negative) among hashed |w'| values
WPRIME_MIXES = [(0, 0, 0, 0, 0), (0.003, 0.003, 0.003, 0.003, 0.02),
                (0.02, 0.02, 0.02, 0.02, 0.3), (0, 0, 0, 0.001, 0.999)]


@given(seed=st.integers(0, 2**32), mix=st.sampled_from(WPRIME_MIXES),
       n_theta=st.integers(0, 64),
       alpha=st.floats(1, 4, exclude_min=True),
       r_max=st.floats(0.5, 0.9997), n_radii=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
@example(seed=1, mix=WPRIME_MIXES[2], n_theta=64, alpha=2.0, r_max=0.999,
         n_radii=24)
@example(seed=2, mix=WPRIME_MIXES[3], n_theta=8, alpha=1.5, r_max=0.99,
         n_radii=4)
def test_single_sweep_matches_the_angle_by_angle_loop(
        seed, mix, n_theta, alpha, r_max, n_radii):
    calls = []
    thetas, samples = nontangential_max_inv(
        _hashed_wprime(seed, calls, mix), alpha, n_theta, r_max, n_radii)
    want_thetas, want = _nontangential_reference(
        _hashed_wprime(seed, [], mix), alpha, n_theta, r_max, n_radii)
    assert thetas.tobytes() == want_thetas.tobytes()
    assert samples.tobytes() == want.tobytes()
    # one call per sample point, angle by angle, also after a NaN
    per_angle = [_stolz_sample_reference(theta, alpha, r_max, n_radii)
                 for theta in want_thetas]
    every_point = [z for sample in per_angle for z in sample]
    assert calls == every_point
    points, starts = stolz_sample(want_thetas, alpha, r_max, n_radii)
    assert points.tolist() == every_point
    lengths = np.array([len(sample) for sample in per_angle], dtype=int)
    assert starts.tolist() == (np.cumsum(lengths) - lengths).tolist()


@pytest.mark.parametrize("alpha", [math.inf, 1e200, 2e154, math.nan, 1.0])
def test_stolz_aperture_without_a_finite_square_is_rejected(alpha):
    with pytest.raises(ValueError, match="aperture alpha"):
        stolz_sample(0.0, alpha, 0.99)
    with pytest.raises(ValueError, match="aperture alpha"):
        nontangential_max_inv(lambda z: 1.0, alpha=alpha, n_theta=4)
    with pytest.raises(ValueError, match="aperture alpha"):
        nontangential_max_inv(lambda z: 1.0, alpha=alpha, n_theta=0)


def test_largest_finite_aperture_keeps_its_sample():
    alpha = 1e154  # alpha^2 = 1e308 is finite
    points = stolz_sample(0.5, alpha, 0.99, 4)
    assert points == _stolz_sample_reference(0.5, alpha, 0.99, 4)


def test_predicted_p():
    assert predicted_p(2.0, 0.125) == 0.25
    assert predicted_p(2.0, 0.25) == pytest.approx(1 / 3)


def test_weak_lp_fit_recovers_exponent():
    # deterministic samples with measure{ > lam } = 2 pi lam^(-1/2)
    n = 4096
    u = (np.arange(n) + 0.5) / n
    samples = u**-2.0
    p, c, diag = weak_lp_fit(samples)
    assert p == pytest.approx(0.5, abs=0.12)
    assert diag["points"] > 50


def test_weak_lp_fit_rejects_nan_and_keeps_poles():
    u = (np.arange(400) + 0.5) / 400
    with_nan = np.concatenate([u**-2.0, np.full(20, np.nan)])
    with pytest.raises(ValueError, match="20 of 420 samples are NaN"):
        weak_lp_fit(with_nan)
    p, _, _ = weak_lp_fit(np.concatenate([u**-2.0, np.full(20, np.inf)]))
    assert math.isfinite(p)


def test_weak_lp_fit_rejects_constant():
    with pytest.raises(ValueError):
        weak_lp_fit(np.ones(512))


@pytest.mark.parametrize("n_finite", [5, 0])
def test_weak_lp_fit_needs_eight_finite_samples(n_finite):
    # poles count above every lambda, but the window needs finite samples
    samples = np.r_[np.full(300, np.inf), np.arange(1.0, n_finite + 1)]
    with pytest.raises(ValueError, match=f"{n_finite} of {300 + n_finite} "
                                         "samples are finite"):
        weak_lp_fit(samples)


def test_distribution_function():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    measure = distribution_function(samples, [2.5])
    assert measure[0] == pytest.approx(2 * math.pi * 2 / 4)


def test_forest_jsonl_round_trip(tmp_path):
    wp = lambda z: abs(1 - z) ** 4
    forest = build_g0(wp, 1.5, 0.2, max_generation=12)
    refine_generation(forest)
    path = tmp_path / "forest.jsonl"
    dump_forest_jsonl(forest, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == sum(len(g) for g in forest.generations)
    assert all({"generation", "square", "wprime_at_center", "parent",
                "decay_pass", "truncated"} <= set(r) for r in records)


def test_distribution_csv(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(1, 100, size=512)
    path = tmp_path / "dist.csv"
    dump_distribution_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,measure"
    assert len(lines) > 64


def test_distribution_csv_cells_are_plain_floats(tmp_path):
    path = tmp_path / "dist.csv"
    dump_distribution_csv(np.random.default_rng(1).uniform(1, 100, 256), path)
    cells = [c for line in path.read_text().splitlines()[1:]
             for c in line.split(",")]
    assert cells and not any("np." in c for c in cells)
    assert all(math.isfinite(float(c)) for c in cells)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
def test_distribution_csv_needs_a_finite_positive_sample(tmp_path, bad):
    path = tmp_path / "dist.csv"
    with pytest.raises(ValueError, match="0 of 300 samples are finite"):
        dump_distribution_csv(np.full(300, bad), path)
    assert list(tmp_path.iterdir()) == []
