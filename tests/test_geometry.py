import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discde.geometry import (
    TWO_PI,
    CarlesonSquare,
    generation_squares,
    maximal_squares,
    phi,
    rho_p,
    rho_p_to_set,
    stolz_contains,
    top_half_centers,
    unit_roots,
)

in_disc = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                             allow_infinity=False)


@given(in_disc, in_disc, in_disc)
@settings(max_examples=100, deadline=None)
def test_rho_p_mobius_invariant(a, z1, z2):
    assert rho_p(phi(a, z1), phi(a, z2)) == pytest.approx(rho_p(z1, z2),
                                                          abs=1e-10)


@given(in_disc)
@settings(max_examples=50, deadline=None)
def test_phi_involution(a):
    z = 0.3 - 0.4j
    assert abs(phi(a, phi(a, z)) - z) < 1e-12


def test_rho_p_to_empty_set():
    assert rho_p_to_set(0.5, []) == 1.0


def test_generation_counts():
    assert len(generation_squares(1)) == 1
    assert len(generation_squares(5)) == 16


def test_square_arc_lengths():
    q = CarlesonSquare(2, 1)
    assert q.ell == pytest.approx(math.pi)
    assert q.inner_radius == pytest.approx(0.5)
    assert abs(q.z_q - 0.625j) < 1e-12


def test_children_partition_father():
    q = CarlesonSquare(3, 2)
    c1, c2 = q.children()
    assert c1.is_descendant_of(q) and c2.is_descendant_of(q)
    assert c1.generation == c2.generation == q.generation + 1
    assert c1.theta_lo == pytest.approx(q.theta_lo)
    assert c2.theta_hi == pytest.approx(q.theta_hi)
    assert c1.theta_hi == pytest.approx(c2.theta_lo)


def test_descendants():
    q = CarlesonSquare(2, 2)
    deep = CarlesonSquare(6, 17)
    assert deep.is_descendant_of(q)
    assert not deep.is_descendant_of(CarlesonSquare(2, 1))
    assert not q.is_descendant_of(q)


def test_top_half_centers_are_z_q_elementwise():
    squares = [sq for n in range(2, 11) for sq in generation_squares(n)]
    gen = np.array([sq.generation for sq in squares])
    idx = np.array([sq.index for sq in squares])
    assert top_half_centers(gen, idx).tolist() == [sq.z_q for sq in squares]
    assert (top_half_centers(5, np.arange(1, 17)).tolist()
            == [sq.z_q for sq in generation_squares(5)])


def test_maximal_squares_against_pairwise_test():
    q, grand = CarlesonSquare(3, 2), CarlesonSquare(5, 6)
    other = CarlesonSquare(3, 1)
    assert maximal_squares([grand, other, q]) == [other, q]
    rng = random.Random(3)
    pool = [sq for n in range(2, 7) for sq in generation_squares(n)]
    for _ in range(50):
        sample = rng.sample(pool, 12)
        expected = [sq for sq in sample
                    if not any(sq.is_descendant_of(o) for o in sample)]
        assert maximal_squares(sample) == expected


def test_root_square_covers_circle():
    q = CarlesonSquare(1, 1)
    assert (q.theta_lo, q.theta_hi) == (0.0, 2 * math.pi)
    assert q.inner_radius == 0.0


def test_stolz_membership():
    assert stolz_contains(0.0, 2.0, 0.9)
    assert not stolz_contains(0.0, 2.0, 0.9j)
    with pytest.raises(ValueError):
        stolz_contains(0.0, 1.0, 0.5)


@pytest.mark.parametrize("n", [1, 8, 64, 1 << 10, 4096])
def test_unit_roots_are_one_cached_read_only_array(n):
    roots = unit_roots(n)
    assert unit_roots(n) is roots
    assert roots.tobytes() == np.exp(1j * TWO_PI * np.arange(n) / n).tobytes()
    with pytest.raises(ValueError):
        roots[0] = 0.0
    with pytest.raises(ValueError):
        roots *= 2.0
    assert roots[0] == 1.0
