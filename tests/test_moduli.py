"""Piecewise-linear modulus algebra, the germ order, and compatibility."""

import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle_utils import (box_grid_reference, knots_increase_reference,
                          lines_reference, modulus_report_reference,
                          pl_value_reference, star_on_box_reference)
from urylab import (CompatibilityReport, MCSemigroup, PLFunction,
                    PreconditionError, StructuralError, compatible,
                    is_modulus, linear, modulus_compose, modulus_inverse,
                    modulus_precedes, modulus_validate, star_condition)
from urylab.gen import random_compatible_pair, random_modulus
from urylab.moduli import require_modulus

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
        report = compatible(alpha, beta)
        ainv, binv = alpha.inverse(), beta.inverse()
        box = max(3, report.box)
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


def _probes(f):
    """Every knot, every midpoint between knots, and two tail points."""
    knots = f.knot_abscissas()
    return (list(knots) + [(a + b) / 2 for a, b in zip(knots, knots[1:])]
            + [knots[-1] + F(1, 3), 2 * knots[-1] + 5])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(1, 16))
def test_value_matches_the_two_point_formula(seed, pieces):
    m = random_modulus(random.Random(seed), pieces)
    for f in (m, m.inverse()):
        for t in _probes(f):
            assert f.value(t) == pl_value_reference(f.breakpoints,
                                                    f.final_slope, t)
    for t in _probes(m):
        assert m.inverse().value(m.value(t)) == t
    if len(m.breakpoints) > 1:
        # drop the origin, so the first segment extends back below its knot
        cut = PLFunction(m.breakpoints[1:], m.final_slope)
        first = cut.knot_abscissas()[0]
        for t in (F(0), first / 3, first):
            assert cut.value(t) == pl_value_reference(cut.breakpoints,
                                                      cut.final_slope, t)


def _rational(rng, lo, hi, big):
    """A rational in [lo, hi]; with ``big``, over a 200-300-digit denominator."""
    den = rng.randrange(10 ** 200, 10 ** 300) if big else rng.randint(1, 8)
    return F(rng.randint(lo * den, hi * den), den)


def _rough_increasing_pl(rng, big):
    """Strictly increasing knots with any values and tail slope: the first
    knot may sit off the origin, there may be one breakpoint only, and
    pieces may fall or stay flat."""
    t = _rational(rng, 0, 2, big) if rng.random() < 0.5 else F(0)
    points = []
    for _ in range(rng.randint(1, 5)):
        points.append((t, _rational(rng, -2, 4, big)))
        t += _rational(rng, 1, 2, big)
    return PLFunction(tuple(points), _rational(rng, -2, 2, big))


def _evaluated_family(rng):
    """A valid modulus, its inverse, a composition and a multiple of it, the
    modulus stretched by rationals of 200-300-digit denominators, and two
    general PL functions, one of them over such denominators."""
    m = random_modulus(rng, rng.randint(1, 16))
    c, e = _rational(rng, 1, 3, True), _rational(rng, 1, 3, True)
    stretched = PLFunction(tuple((c * t, e * v) for t, v in m.breakpoints),
                           e / c * m.final_slope)
    return (m, m.inverse(), m.compose(random_modulus(rng, 4)),
            m.scale(_rational(rng, 1, 3, False)), stretched,
            stretched.inverse(), _rough_increasing_pl(rng, False),
            _rough_increasing_pl(rng, True))


def _evaluation_points(rng, f):
    """0, an int, every knot, a random rational inside each gap between
    knots, one below a first knot off the origin, and two past the last."""
    knots = f.knot_abscissas()
    inside = [a + (b - a) * F(rng.randint(1, 999), 1000)
              for a, b in zip(knots, knots[1:])]
    below = [knots[0] * F(rng.randint(1, 999), 1000)] if knots[0] else []
    past = [knots[-1] + F(rng.randint(1, 10 ** 6), rng.randint(1, 1000)),
            knots[-1] + _rational(rng, 1, 2, True)]
    return [F(0), 3, *knots, *inside, *below, *past]


def _evaluation_matches_the_reference(rng):
    """value against the two-point formula, and slopes, first_slope and
    knot_abscissas against the breakpoints; returns the kinds of function
    seen, for coverage counts."""
    kinds = set()
    for f in _evaluated_family(rng):
        ts = _evaluation_points(rng, f)
        want = {t: pl_value_reference(f.breakpoints, f.final_slope, F(t))
                for t in ts}
        for t in ts:
            got = f.value(t)
            assert type(got) is F and got == want[t]
        slopes = tuple((v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1)
                       in zip(f.breakpoints, f.breakpoints[1:]))
        assert f.slopes() == (*slopes, f.final_slope)
        assert all(type(x) is F for x in f.slopes())
        assert f.first_slope == f.slopes()[0]
        assert f.knot_abscissas() == tuple(t for t, _ in f.breakpoints)
        for t in (-1, -F(1, 10 ** 250)):
            with pytest.raises(PreconditionError,
                               match=r"^moduli are defined on \[0, oo\)$"):
                f.value(t)
        if f.knot_abscissas()[0] > 0:
            kinds.add("below")
        if len(f.breakpoints) == 1:
            kinds.add("single")
        if min(f.slopes()) <= 0:
            kinds.add("nonpositive")
        if max(t.denominator for t in f.knot_abscissas()) > 10 ** 199:
            kinds.add("big")
    return kinds


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_value_slopes_and_knots_match_the_reference(seed):
    _evaluation_matches_the_reference(random.Random(seed))


def test_the_evaluation_reference_reaches_every_kind():
    rng = random.Random(53)
    seen = Counter()
    for _ in range(100):
        seen.update(_evaluation_matches_the_reference(rng))
    # a first knot off the origin, a single breakpoint, a nonpositive
    # slope, and knots over 200-300-digit denominators
    for kind in ("below", "single", "nonpositive", "big"):
        assert seen[kind] >= 20, seen
    # the grid's value calls on big integers: three-piece moduli whose
    # knots sit over 143- to 254-digit denominators, failing inside the box
    d, e = 3 ** 300, 7 ** 300
    a1, a2, b1, b2 = 1 + F(1, d), 3 + F(2, d), F(e - 1, 2 * e), 2 + F(2, e)
    alpha = PLFunction.from_points(
        [(0, 0), (a1, 2 * a1), (a2, a1 + a2)], F(1, 2))
    beta = PLFunction.from_points(
        [(0, 0), (b1, 3 * b1), (b2, b1 + 2 * b2)], 1)
    assert all(10 ** 100 < t.denominator < 10 ** 300
               for f in (alpha, beta, alpha.inverse(), beta.inverse())
               for t in f.knot_abscissas()[1:])
    report = compatible(alpha, beta)
    hit = (star_on_box_reference(alpha, beta, report.box, 1)
           or star_on_box_reference(beta, alpha, report.box, 2))
    assert hit is not None and (report.ok, report.witness) == (False, hit)


def _lines_family(rng):
    """A seeded modulus and a composition of two, each scaled by a factor
    over a 100-300-digit denominator, and the inverses of all four (their
    intercepts are negative)."""
    den = rng.randrange(10 ** 100, 10 ** 300)
    c = F(rng.randint(den, 3 * den), den)
    m = random_modulus(rng, rng.randint(1, 16))
    comp = m.compose(random_modulus(rng, 4))
    fs = (m, comp, m.scale(c), comp.scale(c))
    return fs + tuple(f.inverse() for f in fs)


def test_lines_match_the_fraction_reference():
    # lines through the origin past the first segment (one of them after a
    # first knot off the origin), and a single line
    through_origin = (
        PLFunction.from_points([(0, 0), (1, 2), (2, 3)], F(3, 2)),
        PLFunction.from_points([(0, 0), (1, 3), (2, 4), (4, 8)], 1),
        PLFunction.from_points([(2, 4), (3, 5)], F(5, 3)), linear(F(7, 3)))
    rng = random.Random(59)
    family = [f for _ in range(60) for f in _lines_family(rng)]
    seen = Counter()
    for f in family + list(through_origin):
        lines = f._lines
        assert lines == lines_reference(f)
        for t in _probes(f):
            assert f.value(t) == pl_value_reference(f.breakpoints,
                                                    f.final_slope, t)
        for k, (_, _, _, b, _) in enumerate(lines):
            seen["negative" if b < 0 else "positive" if b > 0
                 else "zero" if k else "zero first"] += 1
        if max(v.denominator for pt in f.breakpoints for v in pt) > 10 ** 99:
            seen["big"] += 1
    assert all(seen[kind] >= 3 for kind in
               ("negative", "positive", "zero", "zero first", "big")), seen


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(1, 16),
       product=st.sampled_from((F(1), F(15, 16), F(1, 2))))
@example(seed=3, pieces=16, product=F(15, 16))  # fails by its tails alone
def test_compatible_matches_the_reference_scan(seed, pieces, product):
    # the tail-slope product decides the verdict past the box; 1 passes,
    # 15/16 mostly fails in the tails alone and 1/2 mostly inside the box
    rng = random.Random(seed)
    p, q = random_modulus(rng, pieces), random_modulus(rng, pieces)
    q = q.scale(product / (p.final_slope * q.final_slope))
    for alpha, beta in ((p, q), (q, p)):
        report = compatible(alpha, beta)
        # the last knots of alpha, beta and of their inverses
        box = max(alpha.breakpoints[-1] + beta.breakpoints[-1])
        assert report.box == box
        hit = (star_on_box_reference(alpha, beta, box, 1)
               or star_on_box_reference(beta, alpha, box, 2))
        if hit is not None or product == 1:
            assert (report.ok, report.witness) == (hit is None, hit)
            continue
        assert not report.ok
        s, t, lhs, rhs, direction = report.witness
        assert direction == 1 and s > alpha.breakpoints[-1][1]
        inv = [(v, u) for u, v in alpha.breakpoints]
        slope = 1 / alpha.final_slope
        assert lhs == (pl_value_reference(inv, slope, s)
                       + pl_value_reference(beta.breakpoints,
                                            beta.final_slope, t))
        assert rhs == pl_value_reference(inv, slope, s + t) > lhs


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(1, 16),
       product=st.sampled_from((F(1), F(15, 16), F(1, 2))),
       reach=st.fractions(0, 2, max_denominator=16))
@example(seed=1, pieces=2, product=F(1, 2), reach=F(0))
def test_star_condition_matches_the_reference_scan(seed, pieces, product,
                                                   reach):
    # the corner gate against the full per-vertex scan, on boxes from the
    # last knot up to twice past it; with products below 1 the tails
    # fail, yet many boxes still pass and must report None
    rng = random.Random(seed)
    p, q = random_modulus(rng, pieces), random_modulus(rng, pieces)
    q = q.scale(product / (p.final_slope * q.final_slope))
    bound = reach * max(p.breakpoints[-1] + q.breakpoints[-1])
    for alpha, beta in ((p, q), (q, p)):
        box = max(bound, alpha.breakpoints[-1][1], beta.breakpoints[-1][0])
        assert star_condition(alpha, beta, bound) \
            == star_on_box_reference(alpha, beta, box, 1)


def _deficit(alpha, beta, s, t):
    """g(s, t) = alpha^-1(s) + beta(t) - alpha^-1(s + t), by the two-point
    formula."""
    inv = [(v, u) for u, v in alpha.breakpoints]
    slope = 1 / alpha.final_slope
    return (pl_value_reference(inv, slope, s)
            + pl_value_reference(beta.breakpoints, beta.final_slope, t)
            - pl_value_reference(inv, slope, s + t))


def _final_piece_start(alpha):
    """sigma: where alpha^-1's last affine piece starts, read off alpha's
    breakpoints as the ordinate of the first breakpoint from which alpha
    keeps its tail slope (0 when alpha is linear)."""
    points = alpha.breakpoints
    k = len(points) - 1
    while k > 0 and (points[k][1] - points[k - 1][1]) \
            == alpha.final_slope * (points[k][0] - points[k - 1][0]):
        k -= 1
    return points[k][1]


def test_a_box_witness_sits_on_the_far_edge_at_the_first_minimum():
    # g(s, t) = alpha^-1(s) + beta(t) - alpha^-1(s + t) is nonincreasing in
    # s and concave in t with g(s, 0) = 0, so on [0, S]^2 every t < S has
    # g(s, t) > g(S, S) once g(S, S) < 0: the worst vertex lies on t = S,
    # at the first s where g(s, S) reaches g(S, S).  When S is at least
    # alpha^-1's last knot (every box star_condition and compatible build),
    # alpha^-1(s + S) runs on the last affine piece, so g(s, S) falls
    # strictly until s reaches that piece's start sigma and is constant
    # after: the witness is (sigma, S) in closed form.
    rng = random.Random(49)
    witnesses = pinned = 0
    for k in range(120):
        p, q = random_modulus(rng, 6), random_modulus(rng, 6)
        q = q.scale((F(1), F(15, 16), F(1, 2))[k % 3]
                    / (p.final_slope * q.final_slope))
        reach = F(rng.randint(1, 32), 16)
        for alpha, beta in ((p, q), (q, p)):
            box = reach * max(alpha.breakpoints[-1] + beta.breakpoints[-1])
            hit = star_on_box_reference(alpha, beta, box, 1)
            if hit is None:
                continue
            witnesses += 1
            corner = _deficit(alpha, beta, box, box)
            s_coords, _ = box_grid_reference(alpha, beta, box)
            s, t, lhs, rhs, _ = hit
            assert t == box and lhs - rhs == corner < 0
            assert s == next(x for x in s_coords
                             if _deficit(alpha, beta, x, box) == corner)
            if box >= alpha.breakpoints[-1][1]:
                pinned += 1
                assert s == _final_piece_start(alpha)
    assert witnesses >= 40 and pinned >= 40, (witnesses, pinned)


def test_compatible_exactly_when_the_tail_slopes_multiply_to_one():
    # g(s, t) is nonincreasing in s, so its infimum is the s -> oo limit
    # beta(t) - t/final_slope(alpha), which is nonnegative for every t
    # exactly when the tail slopes multiply to at least 1
    rng = random.Random(48)
    products = (None, F(1), F(15, 16), F(17, 16), F(1, 2), F(2))
    for k in range(60):
        alpha, beta = random_modulus(rng, 8), random_modulus(rng, 8)
        product = products[k % len(products)]
        if product is not None:
            beta = beta.scale(product / (alpha.final_slope * beta.final_slope))
        assert compatible(alpha, beta).ok \
            == (alpha.final_slope * beta.final_slope >= 1)


def test_cached_tables_leave_equality_hash_and_repr_alone():
    m = random_modulus(random.Random(47), 8)
    fresh = PLFunction(m.breakpoints, m.final_slope)
    m.value(F(1, 3))
    m.inverse().value(F(5, 2))
    m.slopes()
    assert modulus_validate(m) == ()
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    inv = PLFunction(fresh.inverse().breakpoints, fresh.inverse().final_slope)
    assert m.inverse() == inv and repr(m.inverse()) == repr(inv)
    with pytest.raises(FrozenInstanceError):
        m.final_slope = F(1)
    with pytest.raises(FrozenInstanceError):
        m.breakpoints = fresh.breakpoints


def test_an_invalid_modulus_reports_the_same_tuple_twice():
    bad = PLFunction.from_points([(1, 1), (2, 2), (3, 2)], F(3, 2))
    fresh = PLFunction(bad.breakpoints, bad.final_slope)
    first = modulus_validate(bad)
    assert first == (
        "first breakpoint is (1, 1), not (0, 0)",
        "values are not strictly increasing",
        "nonpositive slope 0 on piece 1",
        "concavity violated between pieces 1 and 2: slope rises 0 -> 3/2")
    assert modulus_validate(bad) is first
    assert bad == fresh and hash(bad) == hash(fresh)
    assert repr(bad) == repr(fresh)
    with pytest.raises(PreconditionError, match="^beta is not a valid "
                       "modulus: first breakpoint is"):
        require_modulus(bad, "beta")


def _rough_pl(rng):
    """Breakpoints and a tail slope that may break any modulus invariant.

    Each piece keeps the last slope, lowers it, raises it, or sets it to 0
    or below; a step may repeat or reverse a knot, and the first breakpoint
    may leave the origin.  One draw in five has denominators of a few
    hundred digits.
    """
    big = rng.random() < 0.2

    def rational(lo, hi):
        den = rng.randrange(10 ** 100, 10 ** 200) if big else rng.randint(1, 8)
        return F(rng.randint(lo * den, hi * den), den)

    t = v = F(0)
    if rng.random() < 0.15:
        t, v = rational(0, 2), rational(-1, 2)
    points = [(t, v)]
    slope = rational(1, 4)

    def next_slope(slope):
        roll = rng.random()
        if roll < 0.08:
            return F(0)
        if roll < 0.14:
            return -rational(0, 2)
        if roll < 0.3:
            return slope + rational(0, 1)
        if roll < 0.5:
            return slope
        return slope * rational(0, 1)

    for _ in range(rng.randint(0, 5)):
        dt = rational(1, 2) if rng.random() > 0.06 else rational(-1, 0)
        t, v = t + dt, v + slope * dt
        points.append((t, v))
        slope = next_slope(slope)
    return tuple(points), slope


def _same_verdict_as_the_reference(points, tail):
    """modulus_validate against the Fraction reference; returns the kinds of
    failure seen, for coverage counts."""
    if not knots_increase_reference(points):
        with pytest.raises(StructuralError,
                           match="^breakpoint abscissas must strictly "
                                 "increase$"):
            PLFunction(points, tail)
        return {"knots"}
    f = PLFunction(points, tail)
    report = modulus_validate(f)
    assert report == modulus_report_reference(f)
    kinds = {msg.split()[0] for msg in report} or {"valid"}
    if max(x.denominator for pt in points for x in pt) > 10 ** 50:
        kinds.add("big")
    return kinds


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_modulus_validate_matches_the_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        _same_verdict_as_the_reference(*_rough_pl(rng))


def test_the_reference_comparison_reaches_every_verdict():
    rng = random.Random(51)
    seen = Counter()
    for _ in range(1500):
        seen.update(_same_verdict_as_the_reference(*_rough_pl(rng)))
    # first breakpoint off the origin, values not strictly increasing,
    # nonpositive slopes, rising slopes, knots out of order, and valid moduli
    for kind in ("first", "values", "nonpositive", "concavity", "knots",
                 "valid", "big"):
        assert seen[kind] >= 30, seen


EPS = F(1, 1000)


@pytest.mark.parametrize("points, tail, report", [
    # two equal consecutive slopes, then the second one just above
    ([(0, 0), (1, 1), (2, 2)], F(1, 2), ()),
    ([(0, 0), (1, 1), (2, 2 + EPS)], F(1, 2),
     ("concavity violated between pieces 0 and 1: "
      "slope rises 1 -> 1001/1000",)),
    # a tail slope equal to the last interior slope, then just above
    ([(0, 0), (1, 2)], 2, ()),
    ([(0, 0), (1, 2)], 2 + EPS,
     ("concavity violated between pieces 0 and 1: "
      "slope rises 2 -> 2001/1000",)),
    # the smallest slope tried is accepted, and a slope of exactly 0 is not
    ([(0, 0), (1, 1), (2, 1 + EPS)], EPS, ()),
    ([(0, 0), (1, 1), (2, 1)], F(0),
     ("values are not strictly increasing", "nonpositive slope 0 on piece 1",
      "nonpositive slope 0 on piece 2")),
    ([(0, 0), (1, 1)], F(0), ("nonpositive slope 0 on piece 1",)),
    ([(0, 0), (1, 1)], -EPS,
     ("nonpositive slope -1/1000 on piece 1",)),
    # the first breakpoint just off the origin
    ([(0, EPS), (1, 1)], F(1, 2),
     ("first breakpoint is (0, 1/1000), not (0, 0)",)),
])
def test_modulus_validate_at_each_boundary(points, tail, report):
    f = PLFunction.from_points(points, tail)
    assert modulus_validate(f) == report == modulus_report_reference(f)


def test_repeated_knots_are_refused_and_close_ones_are_not():
    with pytest.raises(StructuralError, match="must strictly increase"):
        PLFunction.from_points([(0, 0), (1, 1), (1, 2)], 1)
    close = PLFunction.from_points([(0, 0), (1, 1), (1 + EPS, 2)], 1)
    assert close.knot_abscissas() == (0, 1, 1 + EPS)


# alpha^-1 runs at slope 1/2 up to its knot (2, 1) and at 2 after it; every
# box below is [0, 2]^2, so with beta = c*t the far corner holds
# g(2, 2) = 1 + 2c - 5, which is 0 exactly at c = 2
STEEP_THEN_FLAT = PLFunction.from_points([(0, 0), (1, 2)], F(1, 2))
TINY = F(1, 10 ** 6)


def test_a_far_corner_of_exactly_zero_is_accepted():
    beta = linear(1).scale(2)
    assert star_condition(STEEP_THEN_FLAT, beta, 0) is None
    assert star_on_box_reference(STEEP_THEN_FLAT, beta, F(2), 1) is None
    assert compatible(STEEP_THEN_FLAT, beta) \
        == CompatibilityReport(True, None, F(2))


def test_a_far_corner_just_below_zero_is_refused_with_its_witness():
    beta = linear(1).scale(2 - TINY)
    hit = star_on_box_reference(STEEP_THEN_FLAT, beta, F(2), 1)
    assert hit is not None and hit[1] == 2 and hit[2] - hit[3] == -2 * TINY
    assert star_condition(STEEP_THEN_FLAT, beta, 0) == hit
    assert compatible(STEEP_THEN_FLAT, beta) \
        == CompatibilityReport(False, hit, F(2))


def test_compatible_at_a_tail_slope_product_of_exactly_one():
    # slopes 2 then 1 for both: on the box [0, 2]^2 the far corner has
    # g = 1 in both directions, so only the tails can refuse the pair
    alpha = PLFunction.from_points([(0, 0), (1, 2)], 1)
    assert compatible(alpha, alpha).ok
    below = alpha.scale(1 - TINY)
    for a, b in ((alpha, below), (below, alpha)):
        assert star_on_box_reference(a, b, F(2), 1) is None
        assert star_on_box_reference(b, a, F(2), 2) is None
        report = compatible(a, b)
        assert not report.ok and report.box == 2
        s, t, lhs, rhs, direction = report.witness
        assert direction == 1 and s > 2 and t > 2
        assert lhs - rhs == _deficit(a, b, s, t) < 0
