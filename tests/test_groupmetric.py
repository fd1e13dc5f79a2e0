"""Exact semimetrics on total bijections of a finite workspace."""

import math
import random
from fractions import Fraction as F

import pytest

from urylab import (AutoMap, FiniteMetricSpace, GroupDistance,
                    PreconditionError, dist_L, dist_S, dist_hat, dist_n)
from urylab.errors import StructuralError
from urylab.gen import line_space, random_permutation_map, random_space
from urylab.groupmetric import RADIUS_BOUND


def small_space():
    # basepoint p0, p1 nearby, p2 far
    return line_space([0, F(1, 2), 3], ["p0", "p1", "p2"])


def swap_near():
    space = small_space()
    return AutoMap.identity(space), AutoMap(space, (1, 0, 2))


def test_dist_L_zero_on_equal_maps():
    f, _ = swap_near()
    assert dist_L(f, f) == 1   # log 1 = 0


def test_dist_L_identity_vs_g_is_lip_g():
    f, g = swap_near()
    assert dist_L(f, g) == g.lip()


def test_dist_L_left_invariance_exact():
    rng = random.Random(17)
    space = random_space(rng, 7)
    for _ in range(25):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        h = random_permutation_map(rng, space)
        assert dist_L(h.compose(f), h.compose(g)) == dist_L(f, g)


def test_dist_n_single_displaced_point():
    f, g = swap_near()
    c = small_space().d(0, 1)
    for n in (1, 2, 5):
        assert dist_n(f, g, n) == c


def test_dist_n_point_outside_ball():
    space = small_space()
    f = AutoMap.identity(space)
    g = AutoMap(space, (0, 2, 1))     # moves only p1 <-> p2, d(p1, p0) = 1/2
    moved = space.d(1, 2)
    assert dist_n(f, g, 1) == moved   # p1 inside B(p0, 1)
    # with basepoint at p2 nothing inside B(p2, 1) moves
    f2 = AutoMap(space, (0, 1, 2), basepoint=2)
    g2 = AutoMap(space, (1, 0, 2), basepoint=2)
    assert dist_n(f2, g2, 1) == 0


def test_dist_S_geometric_series_collapses():
    # all points within B(x0, 1): d_S equals the displacement itself
    space = line_space([0, F(1, 4), F(1, 2)])
    f = AutoMap.identity(space)
    g = AutoMap(space, (1, 0, 2))
    c = space.d(0, 1)
    assert dist_S(f, g) == c


def test_dist_S_closed_form_matches_truncated_series():
    rng = random.Random(23)
    space = random_space(rng, 8)
    n0 = math.floor(max(space.d(i, 0) for i in range(8))) + 1
    for _ in range(15):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        direct = sum((dist_n(f, g, n) / F(2 ** n) for n in range(1, n0 + 40)),
                     F(0))
        tail_cap = dist_n(f, g, n0) * F(1, 2 ** (n0 + 39))
        assert 0 <= dist_S(f, g) - direct <= tail_cap


def stabilized_scan(f, g):
    """The series by radius: dist_n for n < n0, then a geometric tail from
    n0, the first radius whose ball holds every point."""
    space, x0 = f.space, f.basepoint
    n0 = math.floor(max(space.d(i, x0) for i in range(space.n))) + 1
    head = sum((dist_n(f, g, n) / F(2) ** n for n in range(1, n0)), F(0))
    return head + dist_n(f, g, n0) * F(2) ** (1 - n0)


def test_dist_S_sorted_pass_matches_the_radius_scan():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(1, 12)
        c = rng.choice((F(1, 4), 1, 5))
        drawn = random_space(rng, n, den=rng.choice((1, 3, 8)))
        space = FiniteMetricSpace.from_rows(
            drawn.labels, [[c * v for v in row] for row in drawn.dist])
        base = rng.randrange(n)
        f, g = (AutoMap(space, random_permutation_map(rng, space).images, base)
                for _ in range(2))
        assert dist_S(f, g) == stabilized_scan(f, g)


def far_pair(radius):
    """Basepoint a; b and c at ``radius`` from a and 1 apart, swapped by f."""
    space = FiniteMetricSpace.from_rows(
        ("a", "b", "c"), ((0, radius, radius), (radius, 0, 1),
                          (radius, 1, 0)))
    return AutoMap(space, (0, 2, 1)), AutoMap.identity(space)


def test_dist_S_bounds_the_radius_of_a_rise():
    f, g = far_pair(RADIUS_BOUND - 1)      # the rise sits at radius 2^16
    assert dist_S(f, g) == F(1, 2 ** (RADIUS_BOUND - 1))
    f, g = far_pair(RADIUS_BOUND)
    with pytest.raises(PreconditionError, match="radius 65537"):
        dist_S(f, g)
    # b enters at radius 2 and moves by R; c, far out, moves by R too, which
    # is no rise, so the bound does not apply to it
    R = 10 ** 400
    space = FiniteMetricSpace.from_rows(
        ("a", "b", "c"), ((0, 1, R), (1, 0, R), (R, R, 0)))
    f, g = AutoMap(space, (0, 2, 1)), AutoMap.identity(space)
    assert dist_S(f, g) == F(R, 2)


def test_display_survives_float_overflow():
    huge = F(10 ** 400)
    assert GroupDistance(F(3), F(1, 2)).display() == max(math.log(3.0), 0.5)
    assert GroupDistance(huge, F(0)).display() == pytest.approx(
        400 * math.log(10))
    assert GroupDistance(F(1), huge).display() == math.inf
    assert GroupDistance(F(1), 1 / huge).display() == 0


def test_dist_S_triangle_exact():
    rng = random.Random(29)
    space = random_space(rng, 8)
    for _ in range(40):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        h = random_permutation_map(rng, space)
        assert dist_S(f, h) <= dist_S(f, g) + dist_S(g, h)
        # multiplicative triangle for the stretch (log-scale additivity)
        assert dist_L(f, h) <= dist_L(f, g) * dist_L(g, h)
        assert dist_S(f, g) == dist_S(g, f)
        assert dist_L(f, g) == dist_L(g, f)


def test_dist_hat_zero_iff_equal():
    rng = random.Random(37)
    space = random_space(rng, 6)
    for _ in range(20):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        assert dist_hat(f, g).is_zero() == (f.images == g.images)


def test_continuity_sampling_composition_and_evaluation():
    # statistical property run: composition respects the exact estimates
    # d_S(h f, h g) <= lip(h) d_S(f, g) and d(f(x), g(x)) <= d_n(f, g)
    rng = random.Random(41)
    space = random_space(rng, 7)
    for _ in range(25):
        f = random_permutation_map(rng, space)
        g = random_permutation_map(rng, space)
        h = random_permutation_map(rng, space)
        assert dist_S(h.compose(f), h.compose(g)) <= h.lip() * dist_S(f, g)
        for n in (1, 2, 3):
            for i in range(space.n):
                if space.d(i, 0) < n:
                    assert space.d(f(i), g(i)) <= dist_n(f, g, n)


def test_mismatched_frames_rejected():
    rng = random.Random(43)
    s1, s2 = random_space(rng, 5), random_space(rng, 5)
    f = AutoMap.identity(s1)
    g = AutoMap.identity(s2)
    if s1 != s2:
        with pytest.raises(PreconditionError):
            dist_L(f, g)
    with pytest.raises(PreconditionError):
        dist_L(AutoMap.identity(s1, 0), AutoMap.identity(s1, 1))


def test_non_bijection_rejected():
    space = small_space()
    with pytest.raises(StructuralError):
        AutoMap(space, (0, 0, 2))
