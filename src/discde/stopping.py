"""Dyadic stopping-time generations for the derivative of a solution
quotient, the non-tangential maximal function of 1/w', and weak-L^p tail
fitting of its boundary distribution.

The construction is parametric in (C0, eps0): generation 0 collects the
maximal dyadic squares of at least second generation whose top-half center
satisfies |w'(z_Q)| <= C0^(-1/eps0), and each later generation refines with
the threshold eps0 * |w'(z_Q)| of its father.  The per-square length-decay
test (children's lengths summing to at most half the father's) is recorded
as data, not asserted, since suitable constants need not exist for every
parameter choice.

A descent runs one dyadic generation at a time over integer rows
(generation, index, owner); its squares come out in depth-first order, and
unresolved squares stay rows.  The maximal function is one pass too: the
Stolz samples of all angles come from one array expression, and each
angle's sup is one segment of a maximum reduction.

|w'| is read on a whole generation of top-half centers, or on all Stolz
points, at once.  An ``Elementwise`` evaluator is called once on that 1-d
array; any other callable is called once per point, as a Python complex
number.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._files import write_atomic
from .geometry import (CarlesonSquare, maximal_squares, stolz_contains,
                       top_half_centers)

TWO_PI = 2.0 * math.pi

DEFAULT_C0 = 2.0
DEFAULT_EPS0 = 0.125

_TINY = np.finfo(float).tiny

# lambda grid of weak_lp_fit and dump_distribution_csv: the top decades
_DECADES = 2.0
_POINTS_PER_DECADE = 64

# points per list of Python complex numbers for a pointwise |w'|
_CHUNK = 4096


class ThresholdUnderflowError(ValueError):
    """C0^(-1/eps0) underflows double precision."""


def stopping_threshold(c0, eps0):
    if not c0 > 1:
        raise ValueError("C0 must exceed 1")
    if not 0 < eps0 < min(0.25, 1.0 / c0):
        raise ValueError("eps0 must lie in (0, min(1/4, 1/C0))")
    log_thr = -math.log(c0) / eps0
    if log_thr < math.log(_TINY):
        raise ThresholdUnderflowError(
            f"C0^(-1/eps0) = exp({log_thr:.1f}) underflows"
        )
    return math.exp(log_thr)


@dataclass
class StoppingNode:
    square: CarlesonSquare
    wprime_abs: float
    generation: int          # forest generation (not dyadic generation)
    parent: CarlesonSquare | None = None
    truncated: bool = False
    decay_pass: bool | None = None  # filled when the node is refined

    def to_record(self):
        return {
            "generation": self.generation,
            "square": [self.square.generation, self.square.index],
            "wprime_at_center": self.wprime_abs,
            "parent": None if self.parent is None
            else [self.parent.generation, self.parent.index],
            "decay_pass": self.decay_pass,
            "truncated": self.truncated,
        }


class Elementwise:
    """A |w'| evaluator that takes a 1-d array of points and returns their
    values (or one value for all of them); calling it calls ``fn``."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, z):
        return self.fn(z)


def _wprime_values(wprime_abs, zs):
    """|w'| at the 1-d complex array zs, as a float array of its shape: one
    call on zs for an Elementwise evaluator, otherwise one call per point,
    listed a chunk at a time.  No call for no points."""
    if isinstance(wprime_abs, Elementwise) and len(zs):
        return np.broadcast_to(np.asarray(wprime_abs(zs), dtype=float),
                               zs.shape)
    points = itertools.chain.from_iterable(
        zs[i:i + _CHUNK].tolist() for i in range(0, len(zs), _CHUNK))
    return np.fromiter(map(wprime_abs, points), float, count=len(zs))


def _maximal_descent(wprime_abs, gen, idx, owner, thresholds, max_generation):
    """Maximal dyadic squares strictly below the squares (gen, idx) with
    |w'(z_Q)| <= thresholds[owner].

    One generation at a time: the frontier's centers in one array
    expression, |w'| read on all of them (one call of an Elementwise
    evaluator, else one call per center), and the squares that fail (NaN
    fails) split again, up to max_generation.  Returns the selected rows
    (generation, index, owner), their values and the unresolved rows, each
    by owner and left end: the squares of one owner are disjoint, so that
    is depth-first order.
    """
    rows = np.column_stack((gen, idx, owner)).astype(np.int64)
    found, values, unresolved = [rows[:0]], [np.empty(0)], [rows[:0]]
    while len(rows):
        rows = np.repeat(rows, 2, axis=0)
        rows[:, 0] += 1
        rows[:, 1] = 2 * rows[:, 1] - np.tile([1, 0], len(rows) // 2)
        deep = rows[:, 0] > max_generation
        unresolved.append(rows[deep])
        rows = rows[~deep]
        zs = top_half_centers(rows[:, 0], rows[:, 1])
        v = _wprime_values(wprime_abs, zs)
        hit = v <= thresholds[rows[:, 2]]
        found.append(rows[hit])
        values.append(v[hit])
        rows = rows[~hit]
        last = rows[:, 0] >= max_generation
        unresolved.append(rows[last])
        rows = rows[~last]
    found, values, unresolved = map(np.concatenate, (found, values, unresolved))

    def depth_first(rows):  # argsort by owner, then by left end
        shift = rows[:, 0].max(initial=0) - rows[:, 0]
        return np.lexsort(((rows[:, 1] - 1) << shift, rows[:, 2]))

    order = depth_first(found)
    return found[order], values[order], unresolved[depth_first(unresolved)]


@dataclass
class StoppingForest:
    """Generations G_0, G_1, ... of stopping squares for one |w'|."""

    # callable z -> |w'(z)|, or an Elementwise one on arrays of z
    wprime_abs: object
    c0: float = DEFAULT_C0
    eps0: float = DEFAULT_EPS0
    max_generation: int = 20
    generations: list = field(default_factory=list)  # list of [StoppingNode]
    # (generation, index) rows per build step
    unresolved: list = field(default_factory=list)

    def __post_init__(self):
        stopping_threshold(self.c0, self.eps0)  # validates (c0, eps0)
        if self.max_generation > 54:  # deeper z_Q round onto |z| = 1
            raise ValueError("max_generation exceeds 54")

    def length_sums(self):
        return [sum(node.square.ell for node in gen) for gen in self.generations]

    def all_nodes(self):
        return [node for gen in self.generations for node in gen]


def build_g0(wprime_abs, c0=DEFAULT_C0, eps0=DEFAULT_EPS0,
             max_generation=20):
    """Generation 0: maximal dyadic squares (second generation or deeper)
    with |w'(z_Q)| <= C0^(-1/eps0)."""
    threshold = stopping_threshold(c0, eps0)
    forest = StoppingForest(wprime_abs, c0, eps0, max_generation)
    selected, values, unresolved = _maximal_descent(
        wprime_abs, [1], [1], [0], np.array([threshold]), max_generation)
    forest.generations.append([
        StoppingNode(CarlesonSquare(g, j), v, 0)
        for (g, j, _), v in zip(selected.tolist(), values.tolist())
    ])
    forest.unresolved.append(unresolved[:, :2].copy())
    return forest


def refine_generation(forest):
    """Build generation n+1 by refining every square of the newest, n, with
    threshold eps0 * |w'(z_Q)|, in one descent for all of them; records the
    per-square length-decay result."""
    if not forest.generations:
        raise ValueError("generation 0 has not been built")
    n = len(forest.generations) - 1
    nodes = forest.generations[n]
    thresholds = forest.eps0 * np.array([node.wprime_abs for node in nodes],
                                        dtype=float)
    selected, values, unresolved = _maximal_descent(
        forest.wprime_abs, [node.square.generation for node in nodes],
        [node.square.index for node in nodes], np.arange(len(nodes)),
        thresholds, forest.max_generation)
    next_gen, lengths = [], [0] * len(nodes)
    for (g, j, k), v in zip(selected.tolist(), values.tolist()):
        sq = CarlesonSquare(g, j)
        lengths[k] += sq.ell
        next_gen.append(StoppingNode(sq, v, n + 1, parent=nodes[k].square))
    truncated = np.bincount(unresolved[:, 2], minlength=len(nodes)) > 0
    for node, length, cut in zip(nodes, lengths, truncated.tolist()):
        node.decay_pass = length <= 0.5 * node.square.ell + 1e-15
        node.truncated = cut
    forest.generations.append(next_gen)
    forest.unresolved.append(unresolved[:, :2].copy())
    return next_gen


def exhaustive_g0(wprime_abs, c0, eps0, max_generation):
    """Brute-force oracle for build_g0: test all dyadic squares up to
    max_generation, keep those meeting the threshold, filter for maximality."""
    threshold = stopping_threshold(c0, eps0)
    hits = []
    for n in range(2, max_generation + 1):
        idx = np.arange(1, 2 ** (n - 1) + 1)
        v = _wprime_values(wprime_abs, top_half_centers(n, idx))
        hits.extend(CarlesonSquare(n, j) for j in idx[v <= threshold].tolist())
    return maximal_squares(hits)


# ---------------------------------------------------------------------------
# non-tangential maximal function


def stolz_sample(theta, alpha, r_max, n_radii=24):
    """Quasi-uniform sample of the Stolz region at e^(i theta): dyadic radii
    with angular windows proportional to the aperture at each depth, five
    angles per radius, radius by radius, then r_max e^(i theta).

    A scalar theta gives the points as a list of complex numbers.  A 1-d
    array of angles gives all their samples from one array expression, as
    (points, starts): the points angle by angle in one array, and the index
    of each angle's first point; each angle's points are those of its
    scalar call, bit for bit.  ValueError unless alpha > 1 and alpha^2 is
    finite.
    """
    if not alpha > 1:
        raise ValueError("aperture alpha must exceed 1")
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"aperture alpha = {alpha} has no finite square")
    thetas = np.asarray(theta, dtype=float)[..., None]
    depths = np.arange(1, n_radii + 1)
    radii = 1 - (1 - r_max) ** (depths / n_radii)
    half_width = math.sqrt(alpha * alpha - 1) * (1 - radii)
    offsets = np.linspace(-half_width, half_width, 5, axis=1).ravel()
    zs = np.repeat(radii, 5) * np.exp(1j * (thetas + offsets))
    zs = np.concatenate((zs, r_max * np.exp(1j * thetas)), axis=-1)
    inside = stolz_contains(thetas, alpha, zs)
    inside[..., -1] = True
    points = zs[inside]
    if np.ndim(theta) == 0:
        return points.tolist()
    counts = inside.sum(axis=1)
    return points, np.cumsum(counts) - counts


def nontangential_max_inv(wprime_abs, alpha=2.0, n_theta=512, r_max=0.999,
                          n_radii=24):
    """Sampled theta -> sup over the Stolz region of 1/|w'|.

    One pass: the samples of all angles are built at once, |w'| is read on
    all of them in angle order (one call of an Elementwise evaluator, else
    one call per point), and each angle takes the largest 1/|w'| of its
    points (inf where |w'| is 0), floored at 0.  Returns
    (thetas, samples) as arrays; a lower bound per theta, or NaN where |w'|
    is NaN at a point of the sample, since the sup is then unknown.
    """
    if n_theta < 0:
        raise ValueError("n_theta must be >= 0")
    thetas = TWO_PI * np.arange(n_theta) / n_theta
    points, starts = stolz_sample(thetas, alpha, r_max, n_radii)
    v = _wprime_values(wprime_abs, points)
    with np.errstate(divide="ignore"):
        inv = np.where(v == 0, np.inf, 1.0 / v)
    peak = np.maximum.reduceat(inv, starts)  # NaN propagates
    return thetas, np.where(peak <= 0, 0.0, peak)  # NaN is kept, -0.0 is 0


# ---------------------------------------------------------------------------
# weak-L^p fit


def predicted_p(c0, eps0):
    """p = 1/log2(C0/eps0)."""
    if not c0 > 1 or not 0 < eps0 < 1:
        raise ValueError("need C0 > 1 and eps0 in (0, 1)")
    return 1.0 / math.log2(c0 / eps0)


def distribution_function(samples, lambdas):
    """Lebesgue measure (in theta) of {samples > lambda} on a uniform grid."""
    samples = np.asarray(samples, dtype=float)
    cell = TWO_PI / len(samples)
    return np.array([cell * np.count_nonzero(samples > lam) for lam in lambdas])


def weak_lp_fit(samples):
    """Fit measure{samples > lambda} ~ C * lambda^(-p) over the top decades.

    Least squares of log-measure against log-lambda on a geometric lambda
    grid spanning the top ``_DECADES`` of the sample range.  Returns
    (p, C, diagnostics dict).  Infinite samples (poles) count above every
    lambda; a NaN sample, or fewer than 8 finite ones, raises ValueError.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 256:
        raise ValueError("need at least 256 samples")
    n_nan = int(np.count_nonzero(np.isnan(samples)))
    if n_nan:
        raise ValueError(f"{n_nan} of {len(samples)} samples are NaN")
    finite = samples[np.isfinite(samples)]
    if len(finite) < 8:
        raise ValueError(f"{len(finite)} of {len(samples)} samples are "
                         "finite; the fit needs at least 8")
    top = float(np.max(finite))
    if top <= 0 or float(np.min(finite)) == top:
        raise ValueError("degenerate (constant) samples")
    # anchor the window where exceedance counts are resolved (>= 8 samples
    # above the top), not at the raw maximum where counts quantize to 0/1
    lam_hi = float(np.sort(finite)[-8]) * (1 - 1e-12)
    lam_lo = lam_hi / 10.0 ** _DECADES
    n_pts = int(_POINTS_PER_DECADE * _DECADES)
    lambdas = np.geomspace(lam_lo, lam_hi, n_pts)
    measure = distribution_function(samples, lambdas)
    keep = measure > 0
    if np.count_nonzero(keep) < 8:
        raise ValueError("distribution collapses over the fit window")
    x = np.log(lambdas[keep])
    y = np.log(measure[keep])
    slope, intercept = np.polyfit(x, y, 1)
    p = -float(slope)
    c = float(math.exp(intercept))
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return p, c, {
        "lambda_range": (float(lam_lo), float(lam_hi)),
        "points": int(np.count_nonzero(keep)),
        "rms_residual": resid,
    }


# ---------------------------------------------------------------------------
# dumps


def dump_forest_jsonl(forest, path):
    def write(fh):
        for node in forest.all_nodes():
            fh.write(json.dumps(node.to_record(), sort_keys=True) + "\n")

    write_atomic(path, write)


def dump_distribution_csv(samples, path):
    """measure{samples > lambda} below the largest finite sample, as CSV;
    ValueError, and no file, when no sample is finite and positive."""
    samples = np.asarray(samples, dtype=float)
    finite = samples[np.isfinite(samples)]
    if not np.any(finite > 0):
        raise ValueError(f"0 of {len(samples)} samples are finite and positive")
    top = float(np.max(finite))
    lambdas = np.geomspace(top / 10.0 ** _DECADES, top * (1 - 1e-12),
                           int(_POINTS_PER_DECADE * _DECADES))
    measure = distribution_function(samples, lambdas)
    rows = [["lambda", "measure"]] + list(zip(lambdas.tolist(),
                                              measure.tolist()))
    write_atomic(path, lambda fh: csv.writer(fh).writerows(rows), newline="")
