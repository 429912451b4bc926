import json
import math

import numpy as np
import pytest

from discde.geometry import stolz_contains
from discde.stopping import (
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


def test_threshold_values():
    assert stopping_threshold(2.0, 0.125) == pytest.approx(2.0**-8)
    with pytest.raises(ValueError):
        stopping_threshold(0.5, 0.1)
    with pytest.raises(ValueError):
        stopping_threshold(2.0, 0.3)  # above 1/4
    with pytest.raises(ThresholdUnderflowError):
        stopping_threshold(10.0, 0.001)


def test_g0_trivial_cases():
    assert build_g0(lambda z: 1.0, 2.0, 0.125).generations[0] == []
    # constant below threshold: the two second-generation squares
    small = stopping_threshold(2.0, 0.125) / 2
    g0 = build_g0(lambda z: small, 2.0, 0.125).generations[0]
    assert len(g0) == 2
    assert all(node.square.generation == 2 for node in g0)


def test_refine_constant_gives_empty_next():
    small = stopping_threshold(2.0, 0.125) / 2
    forest = build_g0(lambda z: small, 2.0, 0.125)
    assert refine_generation(forest) == []
    assert all(node.decay_pass for node in forest.generations[0])


def test_exhaustive_scan_equivalence():
    wp = lambda z: abs(1 - z) ** 4
    for c0, eps0 in ((1.5, 0.2), (2.0, 0.125)):
        forest = build_g0(wp, c0, eps0, max_generation=12)
        oracle = sorted(exhaustive_g0(wp, c0, eps0, 12))
        got = sorted(node.square for node in forest.generations[0])
        assert got == oracle


def test_forest_nesting_and_disjointness():
    wp = lambda z: abs(1 - z) ** 4
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
    _, samples = nontangential_max_inv(lambda z: 2.0, n_theta=16, n_radii=4)
    assert np.allclose(samples, 0.5)


def test_nontangential_max_boundary_singularity():
    wp = lambda z: abs(1 - z) ** 2
    thetas, samples = nontangential_max_inv(wp, alpha=2.0, n_theta=64,
                                            r_max=0.999, n_radii=24)
    assert samples[0] == pytest.approx(1e6, rel=4.0)
    _, wider = nontangential_max_inv(wp, alpha=3.0, n_theta=64,
                                     r_max=0.999, n_radii=24)
    assert np.all(wider >= samples - 1e-12)


def test_nontangential_max_is_nan_where_a_sample_value_is_nan():
    # |w'| is NaN on a disc about 0.99: the sup at theta = 0 is unknown,
    # not the 1.0 of the points around it
    wp = lambda z: math.nan if abs(z - 0.99) < 0.2 else 1.0
    thetas, samples = nontangential_max_inv(wp, n_theta=64, n_radii=8)
    assert math.isnan(samples[0])
    far = np.abs(np.exp(1j * thetas) - 1) > 0.5
    assert np.all(samples[far] == 1.0)


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
