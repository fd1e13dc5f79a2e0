"""Piecewise-linear modulus algebra, the germ order, and compatibility."""

import random
from fractions import Fraction as F

import pytest

from urylab import (MCSemigroup, PLFunction, PreconditionError, compatible,
                    is_modulus, linear, modulus_compose, modulus_inverse,
                    modulus_precedes, modulus_validate, star_condition)
from urylab.gen import random_compatible_pair, random_modulus

KINKED = PLFunction.from_points([(0, 0), (1, 1)], F(1, 2))


def test_compose_linear():
    assert modulus_compose(linear(2), linear(3)).value(7) == 42


def test_compose_matches_pointwise_evaluation():
    rng = random.Random(41)
    for _ in range(20):
        f, g = random_modulus(rng), random_modulus(rng)
        h = modulus_compose(f, g)
        assert is_modulus(h)
        for num in range(0, 25):
            t = F(num, 4)
            assert h.value(t) == f.value(g.value(t))


def test_inverse_of_kinked_modulus():
    inv = modulus_inverse(KINKED)
    assert inv.breakpoints == ((0, 0), (1, 1))
    assert inv.final_slope == 2
    assert inv.value(2) == 3          # 1 + 2*(2 - 1)
    assert inv.value(F(1, 2)) == F(1, 2)


def test_inverse_round_trip():
    rng = random.Random(42)
    for _ in range(20):
        m = random_modulus(rng)
        inv = m.inverse()
        for num in range(0, 17):
            t = F(num, 4)
            assert inv.value(m.value(t)) == t


def test_increasing_slopes_fail_validation():
    bad = PLFunction.from_points([(0, 0), (1, 1)], 2)  # slopes (1, 2)
    report = modulus_validate(bad)
    assert any("concavity" in msg for msg in report)


def test_subadditivity_on_breakpoint_grid():
    rng = random.Random(43)
    for _ in range(20):
        m = random_modulus(rng)
        grid = [t for t, _ in m.breakpoints] + [m.last_knot + 1, F(1, 3)]
        for s in grid:
            for t in grid:
                assert m.value(s + t) <= m.value(s) + m.value(t)


def test_precedes_reflexive_and_slope_ordered():
    assert modulus_precedes(KINKED, KINKED)
    assert modulus_precedes(linear(1), linear(2))
    assert not modulus_precedes(linear(2), linear(1))


def test_precedes_steep_germ_dominates_linear():
    steep = PLFunction.from_points(
        [(0, 0), (F(1, 16), F(1, 4)), (1, 1)], F(1, 2))
    assert modulus_precedes(linear(3), steep)
    assert not modulus_precedes(steep, linear(3))


def test_compatible_identity_pair():
    assert compatible(linear(1), linear(1)).ok


def test_compatible_linear_pair():
    report = compatible(linear(2), linear(F(1, 2)))
    assert report.ok


def test_incompatible_pair_with_witness():
    report = compatible(KINKED, linear(1))
    assert not report.ok
    s, t, lhs, rhs, direction = report.witness
    assert (s, t) == (1, 1) and lhs == 2 and rhs == 3 and direction == 1


def test_star_condition_box_only():
    hit = star_condition(KINKED, linear(1), 2)
    assert hit is not None
    s, t, lhs, rhs, _ = hit
    ainv = KINKED.inverse()
    assert lhs == ainv.value(s) + t and rhs == ainv.value(s + t)
    assert lhs < rhs
    assert star_condition(linear(2), linear(F(1, 2)), 10) is None


def test_compatible_tail_only_failure():
    # fine on small boxes, broken only by tail slopes: alpha almost flat
    alpha = PLFunction.from_points([(0, 0), (1, 1)], F(1, 8))
    beta = PLFunction.from_points([(0, 0), (1, 4)], 1)
    report = compatible(alpha, beta)
    assert not report.ok
    s, t, lhs, rhs, _ = report.witness
    assert lhs < rhs  # exact violation at the constructed tail point


def test_tail_only_failure_refuted_in_both_orders():
    # both box checks pass and only the tail slopes fail (9/4 * 3/8 < 1);
    # the tail test is symmetric, so either order reports a direction-1
    # witness refuting alpha_inv(s) + beta(t) >= alpha_inv(s+t) as given
    p = PLFunction.from_points([(0, 0), (F(3, 2), 6)], F(9, 4))
    q = PLFunction.from_points([(0, 0), (F(3, 2), F(15, 4))], F(3, 8))
    for alpha, beta in ((p, q), (q, p)):
        report = compatible(alpha, beta)
        assert star_condition(alpha, beta, report.box) is None
        assert star_condition(beta, alpha, report.box) is None
        assert not report.ok
        s, t, lhs, rhs, direction = report.witness
        assert direction == 1
        ainv = alpha.inverse()
        assert lhs == ainv.value(s) + beta.value(t)
        assert rhs == ainv.value(s + t)
        assert lhs < rhs


def test_random_constructed_pairs_are_compatible():
    rng = random.Random(44)
    for _ in range(30):
        alpha, beta = random_compatible_pair(rng)
        assert compatible(alpha, beta).ok


def test_compatibility_grid_agrees_with_dense_scan():
    # independent oracle: dense rational scan of the box
    rng = random.Random(45)
    for _ in range(15):
        alpha, beta = random_modulus(rng), random_modulus(rng)
        report = compatible(alpha, beta, bound=3)
        ainv, binv = alpha.inverse(), beta.inverse()
        box = report.box
        violated = False
        steps = 24
        for i in range(steps + 1):
            for j in range(steps + 1):
                s, t = box * i / steps, box * j / steps
                if ainv.value(s) + beta.value(t) < ainv.value(s + t):
                    violated = True
                if binv.value(s) + alpha.value(t) < binv.value(s + t):
                    violated = True
        if violated:
            assert not report.ok
        # a clean dense scan cannot certify the tails, so no converse claim


def test_compatible_verdict_sound_beyond_the_box():
    # when the pair is declared compatible, no violation may exist anywhere,
    # including far past every breakpoint where only tail slopes matter
    rng = random.Random(46)
    checked = 0
    for _ in range(40):
        alpha, beta = random_modulus(rng), random_modulus(rng)
        report = compatible(alpha, beta)
        if not report.ok:
            s, t, lhs, rhs, direction = report.witness
            first, second = (alpha, beta) if direction == 1 else (beta, alpha)
            assert first.inverse().value(s) + second.value(t) \
                < first.inverse().value(s + t)
            continue
        checked += 1
        ainv, binv = alpha.inverse(), beta.inverse()
        box = report.box
        samples = [F(0), box / 3, box, 2 * box + F(1, 3), 10 * box + 7,
                   F(rng.randint(0, int(20 * box) + 1), 2)]
        for s in samples:
            for t in samples:
                assert ainv.value(s) + beta.value(t) >= ainv.value(s + t)
                assert binv.value(s) + alpha.value(t) >= binv.value(s + t)
    assert checked >= 5  # the generator must exercise the ok branch too


def test_semigroup_requires_doubling_generator():
    good = MCSemigroup((linear(1), linear(3)))
    assert not good.validate()
    weak = MCSemigroup((linear(1),))
    assert any("doubling" in msg for msg in weak.validate())


def test_modulus_requires_origin():
    shifted = PLFunction.from_points([(0, 1), (1, 2)], F(1, 2))
    assert any("(0, 0)" in msg for msg in modulus_validate(shifted))
    with pytest.raises(PreconditionError):
        modulus_inverse(shifted)
