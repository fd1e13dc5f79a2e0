"""Amalgamation intervals, space merging, and Katetov realization."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from urylab import (FiniteMetricSpace, PreconditionError, amalgamate,
                    katetov_extend, one_point_interval, realize_point,
                    validate_space)
from urylab.amalgam import katetov_violations
from urylab.core import Ball
from urylab.gen import random_point_in_ball, random_space


def test_interval_single_shared_point():
    iv = one_point_interval([3], [1])
    assert (iv.lo, iv.hi) == (2, 4)


def test_interval_two_shared_points():
    iv = one_point_interval([1, 5], [2, 2])
    assert (iv.lo, iv.hi) == (3, 3)


def test_interval_identification_case():
    iv = one_point_interval([1], [1])
    assert (iv.lo, iv.hi) == (0, 2)


def test_interval_lo_le_hi_on_random_consistent_data():
    rng = random.Random(11)
    for _ in range(50):
        space = random_space(rng, 5)
        p0, p1 = 3, 4
        z = [0, 1, 2]
        iv = one_point_interval([space.d(p0, i) for i in z],
                                [space.d(i, p1) for i in z])
        assert 0 <= iv.lo <= iv.hi
        assert iv.contains(space.d(p0, p1))


def test_interval_empty_z_rejected():
    with pytest.raises(PreconditionError):
        one_point_interval([], [])


def test_interval_non_metric_distances_name_the_ends():
    with pytest.raises(PreconditionError) as err:
        one_point_interval([1, 10], [1, 1])
    assert str(err.value) == (
        "empty amalgamation interval: lower bound 9 via shared point 1 "
        "exceeds upper bound 2 via shared point 0; the distances are not "
        "metric")


def _pair(label_a, label_b, d):
    return FiniteMetricSpace.from_rows((label_a, label_b), ((0, d), (d, 0)))


def test_amalgamate_subset_is_noop():
    x0 = random_space(random.Random(0), 4)
    sub = FiniteMetricSpace.from_rows(
        x0.labels[:2], tuple(tuple(row[:2]) for row in x0.dist[:2]))
    assert amalgamate(x0, sub) == x0


def test_amalgamate_midpoint_worked_instance():
    x0 = _pair("p0", "z", 3)
    x1 = _pair("z", "p1", 1)
    merged = amalgamate(x0, x1, policy="midpoint")
    assert merged.d(merged.index("p0"), merged.index("p1")) == 3
    assert validate_space(merged).ok


def test_amalgamate_minimal_identifies():
    x0 = _pair("p0", "z", 1)
    x1 = _pair("z", "p1", 1)
    merged = amalgamate(x0, x1, policy="minimal")
    # |X0| + |X1| - |Z| - 1: p1 merged into p0
    assert merged.n == 2 + 2 - 1 - 1


def test_amalgamate_unknown_policy_rejected():
    with pytest.raises(PreconditionError, match="unknown policy 'nearest'"):
        amalgamate(_pair("p0", "z", 3), _pair("z", "p1", 1), policy="nearest")


def test_amalgamate_disagreement_on_z_rejected():
    x0 = _pair("a", "z", 3)
    x1 = FiniteMetricSpace.from_rows(("a", "z"), ((0, 2), (2, 0)))
    with pytest.raises(PreconditionError):
        amalgamate(x0, x1)


def test_amalgamate_non_metric_input_names_the_empty_interval():
    x0 = FiniteMetricSpace.from_rows(
        ("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
    x1 = FiniteMetricSpace.from_rows(
        ("a", "b", "m"), ((0, 1, 10), (1, 0, 1), (10, 1, 0)))
    for policy in ("minimal", "midpoint", "maximal"):
        with pytest.raises(PreconditionError) as err:
            amalgamate(x0, x1, policy=policy)
        assert str(err.value) == (
            "no distance from new point 'm' to 'c': lower bound 7 via 'a' "
            "exceeds upper bound 2 via 'b'; an input is not metric")


def test_amalgamate_restriction_and_idempotence():
    rng = random.Random(5)
    for policy in ("minimal", "midpoint", "maximal"):
        for _ in range(10):
            x0 = random_space(rng, rng.randint(3, 5))
            x1 = random_space(rng, rng.randint(2, 4))
            # rename to force a single shared point with consistent metric
            x1 = FiniteMetricSpace(
                (x0.labels[0],) + tuple(f"n{i}" for i in range(1, x1.n)),
                x1.dist)
            merged = amalgamate(x0, x1, policy=policy)
            assert validate_space(merged).ok
            for la in x0.labels:
                for lb in x0.labels:
                    assert merged.d(merged.index(la), merged.index(lb)) \
                        == x0.d(x0.index(la), x0.index(lb))
            for la in x1.labels:
                for lb in x1.labels:
                    assert merged.d(merged.index(la), merged.index(lb)) \
                        == x1.d(x1.index(la), x1.index(lb))
            again = amalgamate(merged, x1, policy="minimal")
            assert again == merged


def test_katetov_extend_shortest_path():
    w = _pair("a", "b", 2)
    assert katetov_extend(w, {0: 1}) == (F(1), F(3))


def test_katetov_extend_full_support_is_identity():
    w = _pair("a", "b", 2)
    assert katetov_extend(w, {0: 1, 1: 3}) == (F(1), F(3))


def test_katetov_extend_doubling_identity():
    rng = random.Random(8)
    for _ in range(20):
        space = random_space(rng, 5)
        w0 = 4
        vals = {a: space.d(a, w0) for a in range(3)}
        g = katetov_extend(space, vals)
        assert g[w0] == min(2 * space.d(a, w0) for a in range(3))
        assert not katetov_violations(space, dict(enumerate(g)))


def test_katetov_violation_reported():
    w = _pair("a", "b", 2)
    with pytest.raises(PreconditionError):
        katetov_extend(w, {0: 1, 1: 10})


def test_realize_zero_returns_existing_point():
    w = _pair("a", "b", 2)
    space, idx = realize_point(w, {0: 0})
    assert space is w and idx == 0


def test_realize_two_zeros_rejected():
    w = _pair("a", "b", 2)
    with pytest.raises(PreconditionError):
        realize_point(w, {0: 0, 1: 0})


def test_realize_worked_extension():
    w = _pair("a", "b", 2)
    grown, q = realize_point(w, {0: 1})
    assert grown.labels == ("a", "b", "q1")
    assert grown.d(q, 0) == 1 and grown.d(q, 1) == 3
    assert validate_space(grown).ok


def test_realize_chain_construction():
    space = FiniteMetricSpace.from_rows(("p0",), ((0,),))
    step = F(3, 2)
    for k in range(1, 6):
        space, _ = realize_point(space, {space.n - 1: step})
        assert validate_space(space).ok
    assert space.d(0, space.n - 1) == 5 * step


@st.composite
def prescriptions(draw):
    """A random space and a one-point prescription on part of it.

    A prescription read off a hidden extra point is valid on any support;
    freely drawn values are often invalid.  Each draw picks one of the two.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 7))
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if draw(st.booleans()):
        full = random_space(rng, n + 1)
        space = FiniteMetricSpace(full.labels[:n],
                                  tuple(row[:n] for row in full.dist[:n]))
        return space, {a: full.d(a, n) for a in support}
    space = random_space(rng, n)
    return space, {a: F(draw(st.integers(0, 40)), 8) for a in support}


@settings(max_examples=300, deadline=None)
@given(prescriptions())
def test_realize_point_fills_any_valid_prescription(case):
    space, values = case
    if katetov_violations(space, values):
        with pytest.raises(PreconditionError):
            realize_point(space, values)
        return
    grown, q = realize_point(space, values)
    assert validate_space(grown).ok
    assert all(grown.d(q, a) == v for a, v in values.items())
    assert tuple(row[:space.n] for row in grown.dist[:space.n]) == space.dist


def test_realize_after_extend_fuzz():
    rng = random.Random(13)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6))
        ball = Ball(0, space.diameter() + 2)
        space, _ = random_point_in_ball(rng, space, ball)
        assert validate_space(space).ok


def realize_then_test(rng, space, ball):
    """Reference two-anchor draw: realize each candidate, then test it."""
    from urylab.gen import rand_fraction
    center, r = ball.center, ball.radius
    for _ in range(3):
        if space.n < 2:
            break
        a, b = rng.sample(range(space.n), 2)
        rho_a = rand_fraction(rng, F(1, 16), r, 16)
        dab = space.d(a, b)
        lo, hi = abs(rho_a - dab), rho_a + dab
        rho_b = rand_fraction(rng, lo, hi, 16)
        if rho_b <= 0 or rho_b < lo or rho_b > hi:
            continue
        try:
            grown, x = realize_point(space, {a: rho_a, b: rho_b})
        except PreconditionError:
            continue
        if grown.d(center, x) < r:
            return grown, x
    rho = rand_fraction(rng, r / 32, r * F(15, 16), 16)
    if rho <= 0 or rho >= r:
        rho = r / 2
    return realize_point(space, {center: rho})


def test_random_point_in_ball_appends_only_the_accepted_row(monkeypatch):
    appends = []
    with_point = FiniteMetricSpace.with_point

    def counting(self, label, row):
        appends.append(label)
        return with_point(self, label, row)

    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        space = random_space(rng, rng.randint(2, 7))
        twin.setstate(rng.getstate())
        # a small ball, so that some two-anchor candidates land outside
        ball = Ball(0, space.diameter() / 3)
        want = realize_then_test(twin, space, ball)
        monkeypatch.setattr(FiniteMetricSpace, "with_point", counting)
        appends.clear()
        got = random_point_in_ball(rng, space, ball)
        monkeypatch.setattr(FiniteMetricSpace, "with_point", with_point)
        assert got == want
        assert rng.getstate() == twin.getstate()
        assert len(appends) == 1
